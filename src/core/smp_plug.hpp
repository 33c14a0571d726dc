// The smp_plug device: intra-node, inter-process communication over shared
// memory (paper §4.1; originating in the SMP implementation of MPI-BIP).
#pragma once

#include "core/directory.hpp"
#include "mpi/adi.hpp"

namespace madmpi::core {

/// Ranks on the same node exchange messages through a shared segment.
/// Eager: copy in + copy out (the second copy is charged by the matching
/// layer). Rendezvous (above the shared-segment size): the sender parks on
/// a request until the receive is posted, then writes straight into the
/// destination buffer (mpi::place_recv) — a genuine single-copy handoff, no
/// polling thread needed because both parties share the node.
class SmpPlugDevice final : public mpi::Device {
 public:
  explicit SmpPlugDevice(RankDirectory& directory);

  const char* name() const override { return "smp_plug"; }

  std::size_t rendezvous_threshold() const override { return kSegmentBytes; }

  bool reaches(rank_t src, rank_t dst) const override;

  Status send(rank_t src, rank_t dst, const mpi::Envelope& env,
              byte_span packed, mpi::TransferMode mode) override;

  /// Nonblocking rendezvous: the announcement lands on the calling
  /// thread (keeping per-source delivery order); the match runs the
  /// single-copy handoff as a temporary thread completing both requests.
  void isend_rendezvous(rank_t src, rank_t dst, const mpi::Envelope& env,
                        byte_span packed, std::vector<std::byte> owned,
                        std::shared_ptr<mpi::RequestState> state) override;

  /// Shared-segment capacity: eager messages up to this size.
  static constexpr std::size_t kSegmentBytes = 32 * 1024;
  static constexpr usec_t kPostUs = 0.3;   // FIFO slot reservation
  static constexpr usec_t kWakeUs = 0.4;   // peer notification

 private:
  RankDirectory& directory_;
};

}  // namespace madmpi::core
