#include "core/smp_plug.hpp"

#include <cstring>

#include "marcel/semaphore.hpp"
#include "sim/cost_model.hpp"

namespace madmpi::core {

namespace {

/// The single-copy handoff into the posted buffer, completing the receive.
/// Truncation delivers the prefix that fits and reports MPI_ERR_TRUNCATE
/// on the receive status (same policy as finish_recv).
void hand_off(sim::Node& node, const mpi::Envelope& env, byte_span packed,
              const mpi::PostedRecv& target) {
  const bool truncated = env.bytes > target.capacity_bytes;
  const std::size_t delivered =
      truncated ? target.capacity_bytes : packed.size();
  node.clock().advance(static_cast<double>(delivered) *
                       sim::kHostCopyUsPerByte);
  const std::size_t elem_size = target.type.size();
  const int elements =
      elem_size == 0 ? 0 : static_cast<int>(delivered / elem_size);
  target.type.unpack(packed.data(), elements, target.buffer);
  if (target.type.is_contiguous()) {
    // Ragged tail of a truncated contiguous receive: deliver raw prefix.
    const std::size_t tail = elem_size == 0 ? 0 : delivered % elem_size;
    if (tail != 0) {
      auto* base = static_cast<std::byte*>(target.buffer);
      std::memcpy(base + static_cast<std::size_t>(elements) * elem_size,
                  packed.data() + delivered - tail, tail);
    }
  }
  mpi::MpiStatus status;
  status.source = env.src;
  status.tag = env.tag;
  status.bytes = delivered;
  if (truncated) status.error = ErrorCode::kTruncated;
  mpi::RequestState::complete(target.request, status);
}

}  // namespace

SmpPlugDevice::SmpPlugDevice(RankDirectory& directory,
                             marcel::Executor& executor)
    : directory_(directory), executor_(executor) {}

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
  // straight into the user buffer (single copy).
  marcel::Semaphore matched(node, 0);
  mpi::PostedRecv target;
  node.clock().advance(kPostUs + kWakeUs);
  directory_.context_of(dst).deliver_rendezvous(
      env, [&matched, &target](const mpi::Envelope&, mpi::PostedRecv posted) {
        target = std::move(posted);
        matched.signal();
      });
  matched.wait();
  hand_off(node, env, packed, target);
  return Status::ok();
}

bool SmpPlugDevice::isend_rendezvous(
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
      env, [this, &node, env, packed, keepalive = std::move(keepalive),
            state = std::move(state)](const mpi::Envelope&,
                                      mpi::PostedRecv target) {
        // The copy runs as a helper task (the paper's one-Marcel-thread-
        // per-isend), NOT inline: the match often fires on the sender's
        // own lane (receive already posted when the announcement lands),
        // and a tree node fanning 64 KiB to four children must not
        // serialize four copies there.
        executor_.post(node, marcel::ThreadCosts::kCreate,
                       [&node, env, packed, keepalive, state,
                        target = std::move(target)] {
          hand_off(node, env, packed, target);
          mpi::RequestState::complete(
              state, mpi::MpiStatus::of_send(env, ErrorCode::kOk));
        });
      });
  return true;
}

}  // namespace madmpi::core
