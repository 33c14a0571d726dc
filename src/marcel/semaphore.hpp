// Virtual-time-aware counting semaphore.
//
// The ch_mad rendezvous protocol blocks the MPI control thread on a
// semaphore stored in the rhandle; the polling thread releases it when the
// data lands (paper Section 4.2.2). In virtual time, the waiter must wake
// *no earlier than* the releaser's clock, so V() stamps the release time and
// P() synchronizes the waiter's clock to it plus the Marcel wake cost.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/types.hpp"
#include "marcel/engine.hpp"
#include "marcel/executor.hpp"
#include "sim/node.hpp"

namespace madmpi::marcel {

class Semaphore {
 public:
  explicit Semaphore(sim::Node& node, int initial = 0)
      : node_(node), count_(initial) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// V: release one waiter. Charges the signal cost to the releaser and
  /// records its clock so the waiter cannot observe an earlier time.
  void signal() {
    const usec_t at = node_.clock().advance(ThreadCosts::kSemSignal);
    // Notify while holding the lock: the waiter owns this semaphore (one
    // on its stack, say) and may destroy it the moment it observes the
    // permit, and the releaser holds no reference that could keep it
    // alive, so the notify must not touch the object after the state
    // change becomes visible. That costs the waiter a second wake-up on
    // the lock; RequestState::complete and Executor::post avoid it because
    // their callers do hold such a reference. A parked fiber, though, owns
    // its own stack: it cannot observe the permit until its shard worker
    // re-polls, so the engine nudge is safe after the lock.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++count_;
      release_times_.push_back(at);
      available_.notify_one();
    }
    engine_notify();
  }

  /// P: wait for a release; wake at max(own clock, releaser clock) + wake
  /// cost. On a fiber this parks the continuation instead of blocking the
  /// shard worker.
  void wait() {
    usec_t released_at;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      engine_wait(lock, available_, [this] { return count_ > 0; });
      --count_;
      released_at = release_times_.front();
      release_times_.pop_front();
    }
    node_.clock().sync_to(released_at);
    node_.clock().advance(ThreadCosts::kWake);
  }

  /// Non-blocking P; returns false when no permit is available.
  bool try_wait() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ <= 0) return false;
    --count_;
    node_.clock().sync_to(release_times_.front());
    release_times_.pop_front();
    return true;
  }

  int value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

 private:
  sim::Node& node_;
  mutable std::mutex mutex_;
  std::condition_variable available_;
  int count_;
  std::deque<usec_t> release_times_;
};

}  // namespace madmpi::marcel
