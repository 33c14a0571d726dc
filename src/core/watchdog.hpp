// Progress watchdog (robustness layer tentpole, part 3).
//
// A loop on the session's executor that periodically sweeps for
// operations that can no longer make progress — posted receives and
// rendezvous handshakes whose only route to the peer is dead — and cancels
// them with ErrorCode::kTimedOut so the blocked rank gets an MPI error
// through its communicator's error handler instead of hanging forever.
//
// The poll interval is wall-clock time and deliberately does NOT leak into
// the simulation: every cancellation stamps virtual time as the operation's
// recorded start plus the configured horizon (VirtualClock::bind_lane), so
// a run that cancels is bit-identical no matter how fast the host polled.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>

#include "marcel/executor.hpp"

namespace madmpi::core {

class ProgressWatchdog {
 public:
  /// One full sweep over every rank context and device. Runs on the
  /// watchdog's loop; must be safe to call concurrently with rank threads.
  using Sweep = std::function<void()>;

  /// Cheap digest of global progress (the session hashes every node's
  /// VirtualClock lane snapshot). A tick whose fingerprint differs from
  /// the previous one proves some rank advanced virtual time since the
  /// last look, so the expensive sweep (which locks every device table)
  /// is skipped. Ticks with an unchanged fingerprint sweep as before, and
  /// every kForcedSweepPeriod-th tick sweeps unconditionally so a stall
  /// whose last act was to advance a clock is still caught.
  using Fingerprint = std::function<std::uint64_t()>;

  /// Start sweeping on a loop of `executor`; it binds no lane.
  ProgressWatchdog(
      marcel::Executor& executor, Sweep sweep,
      std::chrono::milliseconds interval = std::chrono::milliseconds(2),
      Fingerprint fingerprint = nullptr);
  ~ProgressWatchdog();

  ProgressWatchdog(const ProgressWatchdog&) = delete;
  ProgressWatchdog& operator=(const ProgressWatchdog&) = delete;

  /// Stop the loop and wait for it to return. Idempotent; implicit in the
  /// destructor.
  void stop();

  /// Ticks that skipped their sweep because the fingerprint moved (tests).
  std::uint64_t sweeps_skipped() const {
    return sweeps_skipped_.load(std::memory_order_relaxed);
  }

  /// Sweep at least once every this many ticks, fingerprint or not.
  static constexpr int kForcedSweepPeriod = 4;

 private:
  void run();

  Sweep sweep_;
  std::chrono::milliseconds interval_;
  Fingerprint fingerprint_;
  std::atomic<std::uint64_t> sweeps_skipped_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::future<void> returned_;
};

}  // namespace madmpi::core
