#include "core/watchdog.hpp"

namespace madmpi::core {

ProgressWatchdog::ProgressWatchdog(marcel::Executor& executor, Sweep sweep,
                                   std::chrono::milliseconds interval,
                                   Fingerprint fingerprint)
    : sweep_(std::move(sweep)),
      interval_(interval),
      fingerprint_(std::move(fingerprint)),
      returned_(executor.loop([this] { run(); })) {}

ProgressWatchdog::~ProgressWatchdog() { stop(); }

void ProgressWatchdog::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  returned_.wait();
}

void ProgressWatchdog::run() {
  std::uint64_t last_print = fingerprint_ ? fingerprint_() : 0;
  int ticks_since_sweep = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    cv_.wait_for(lock, interval_);
    if (stopping_) break;
    lock.unlock();
    bool skip = false;
    if (fingerprint_ && ticks_since_sweep + 1 < kForcedSweepPeriod) {
      const std::uint64_t print = fingerprint_();
      if (print != last_print) {
        last_print = print;
        skip = true;
      }
    }
    if (skip) {
      ++ticks_since_sweep;
      sweeps_skipped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ticks_since_sweep = 0;
      sweep_();
      if (fingerprint_) last_print = fingerprint_();
    }
    lock.lock();
  }
}

}  // namespace madmpi::core
