// A device with a poller lifecycle (ch_mad and the baseline native devices
// implement this; ch_self and smp_plug need no pollers).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/slab_pool.hpp"
#include "marcel/executor.hpp"
#include "mpi/adi.hpp"

namespace madmpi::core {

class ManagedDevice : public mpi::Device {
 public:
  /// Bring the device up; its pollers run as loops on `executor`.
  /// shutdown() waits for them to return.
  virtual void start(marcel::Executor& executor) = 0;
  virtual void shutdown() {}

 protected:
  /// The zero-copy rendezvous data push (paper §4.2.2), run on the data
  /// task's lane: `push(body)` sends `data` lent as `body` and returns the
  /// outcome. The send completes `completion` with it once the last wire
  /// reference drops — on the receiver's poller, a gateway or here — on a
  /// fresh lane born at the post-push stamp, as marcel::Executor births a
  /// task: the lane the data task would have completed the send on.
  /// `owned`, when non-empty, backs `data` until then.
  template <class Push>
  static void push_lent(sim::Node& node, byte_span data,
                        std::vector<std::byte> owned,
                        std::shared_ptr<mpi::RequestState> completion,
                        const mpi::Envelope& envelope, Push&& push) {
    // The hook keeps only this record and the node — no device state,
    // which may die first.
    struct Lent {
      std::vector<std::byte> owned;
      std::shared_ptr<mpi::RequestState> completion;
      mpi::Envelope envelope;
      ErrorCode result = ErrorCode::kOk;
      usec_t pushed_at = 0.0;
    };
    auto* lent = new Lent{std::move(owned), std::move(completion), envelope};
    sim::Node* at = &node;
    const ChunkRef body = ChunkRef::lend(data, [at, lent] {
      sim::VirtualClock::LaneMap lanes;
      marcel::run_as_thread(lanes, at, lent->pushed_at, [lent] {
        mpi::RequestState::complete(
            std::move(lent->completion),
            mpi::MpiStatus::of_send(lent->envelope, lent->result));
        delete lent;
      });
    });
    lent->result = push(body).code();
    lent->pushed_at = node.clock().now();
    // `body` drops here: the send completes now if the receiver already
    // placed the bytes, else when its last wire reference drops.
  }
};

}  // namespace madmpi::core
