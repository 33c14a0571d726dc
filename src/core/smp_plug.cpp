#include "core/smp_plug.hpp"

#include "marcel/executor.hpp"
#include "sim/cost_model.hpp"

namespace madmpi::core {

SmpPlugDevice::SmpPlugDevice(RankDirectory& directory)
    : directory_(directory) {}

bool SmpPlugDevice::reaches(rank_t src, rank_t dst) const {
  return src != dst && directory_.same_node(src, dst);
}

Status SmpPlugDevice::send(rank_t src, rank_t dst, const mpi::Envelope& env,
                           byte_span packed, mpi::TransferMode mode) {
  MADMPI_CHECK_MSG(reaches(src, dst), "smp_plug used across nodes");
  sim::Node& node = directory_.node_of(src);

  if (mode == mpi::TransferMode::kEager) {
    // Copy into the shared FIFO; the matching layer charges the copy out.
    node.clock().advance(kPostUs + kWakeUs +
                         static_cast<double>(packed.size()) *
                             sim::kHostCopyUsPerByte);
    directory_.context_of(dst).deliver_eager(env, packed);
    return Status::ok();
  }

  // Rendezvous: announce, park until the receive is posted, then deliver
  // straight into the user buffer (single copy). Whichever thread posts
  // the receive pays the signal; we wake no earlier than its stamp.
  auto matched = std::make_shared<mpi::RequestState>(node);
  mpi::PostedRecv target;
  node.clock().advance(kPostUs + kWakeUs);
  directory_.context_of(dst).deliver_rendezvous(
      env, [matched, &target](const mpi::Envelope&, mpi::PostedRecv posted) {
        target = std::move(posted);
        mpi::RequestState::complete(matched, {});
      });
  matched->wait();
  const mpi::MpiStatus status = mpi::place_recv(target, env, packed);
  node.clock().advance(static_cast<double>(status.bytes) *
                       sim::kHostCopyUsPerByte);
  mpi::RequestState::complete(target.request, status);
  return Status::ok();
}

void SmpPlugDevice::isend_rendezvous(
    rank_t src, rank_t dst, const mpi::Envelope& env, byte_span packed,
    std::vector<std::byte> owned,
    std::shared_ptr<mpi::RequestState> state) {
  MADMPI_CHECK_MSG(reaches(src, dst), "smp_plug used across nodes");
  sim::Node& node = directory_.node_of(src);
  node.clock().advance(kPostUs + kWakeUs);
  // The staging buffer (when any) rides in the callback by refcount:
  // std::function requires a copyable target.
  auto keepalive =
      std::make_shared<std::vector<std::byte>>(std::move(owned));
  directory_.context_of(dst).deliver_rendezvous(
      env, [&node, env, packed, keepalive = std::move(keepalive),
            state = std::move(state)](const mpi::Envelope&,
                                      mpi::PostedRecv target) {
        // The copy is a temporary thread (the paper's one-Marcel-thread-
        // per-isend) on a lane of its own: the match often fires on the
        // sender's own lane, and a tree node fanning 64 KiB to four
        // children must not serialize four copies there.
        marcel::Executor::run_here(node, marcel::ThreadCosts::kCreate, [&] {
          const mpi::MpiStatus status = mpi::place_recv(target, env, packed);
          node.clock().advance(static_cast<double>(status.bytes) *
                               sim::kHostCopyUsPerByte);
          mpi::RequestState::complete(target.request, status);
          mpi::RequestState::complete(
              state, mpi::MpiStatus::of_send(env, ErrorCode::kOk));
        });
      });
}

}  // namespace madmpi::core
