// The ch_self device: intra-process (rank-to-itself) communication
// (paper §4.1; the loop-back device every MPICH instantiation carries).
#pragma once

#include "core/directory.hpp"
#include "mpi/adi.hpp"

namespace madmpi::core {

/// Self sends never touch a network: the payload moves with one host copy
/// into the rank's own matching context. Always eager — a rendezvous with
/// oneself on a single thread would deadlock, and there is no copy to save.
class ChSelfDevice final : public mpi::Device {
 public:
  explicit ChSelfDevice(RankDirectory& directory) : directory_(directory) {}

  const char* name() const override { return "ch_self"; }

  std::size_t rendezvous_threshold() const override {
    return static_cast<std::size_t>(-1);  // never rendezvous
  }

  bool reaches(rank_t src, rank_t dst) const override { return src == dst; }

  Status send(rank_t src, rank_t dst, const mpi::Envelope& env,
              byte_span packed, mpi::TransferMode mode) override {
    MADMPI_CHECK_MSG(src == dst, "ch_self used for a non-self message");
    (void)mode;  // self transfers are always effectively eager
    sim::Node& node = directory_.node_of(src);
    node.clock().advance(kSelfOverheadUs);
    directory_.context_of(dst).deliver_eager(env, packed);
    return Status::ok();
  }

  /// A self "rendezvous" (MPI_Issend to oneself) delivers eagerly like
  /// every other self transfer and completes inline — parking a thread
  /// would only add cost, and ordering is trivially program order.
  void isend_rendezvous(rank_t src, rank_t dst, const mpi::Envelope& env,
                        byte_span packed, std::vector<std::byte> owned,
                        std::shared_ptr<mpi::RequestState> state) override {
    (void)owned;  // payload already delivered below; staging dies here
    Status result = send(src, dst, env, packed, mpi::TransferMode::kEager);
    mpi::RequestState::complete(state,
                                mpi::MpiStatus::of_send(env, result.code()));
  }

  static constexpr usec_t kSelfOverheadUs = 0.4;

 private:
  RankDirectory& directory_;
};

}  // namespace madmpi::core
