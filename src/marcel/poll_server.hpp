// Factorized network polling (Marcel + Madeleine cooperation, paper §3.3).
//
// The poll server owns one persistent polling thread per registered source
// (ch_mad registers one per Madeleine channel, §4.2.3). Each active poller
// is declared on the node so concurrent pollers interfere: handling a
// message on channel X is delayed by the other channels' polling costs —
// exactly the effect the paper measures in Figure 9 (SCI alone vs SCI+TCP).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/datapath_stats.hpp"
#include "common/types.hpp"
#include "marcel/thread.hpp"
#include "sim/node.hpp"
#include "sim/sched.hpp"

namespace madmpi::marcel {

class PollServer {
 public:
  explicit PollServer(sim::Node& node) : node_(node) {}
  PollServer(const PollServer&) = delete;
  PollServer& operator=(const PollServer&) = delete;
  ~PollServer() { join(); }

  /// Spawn a persistent polling thread for one source. `iterate` must block
  /// until the next event, handle it, and return true; it returns false when
  /// the source has shut down (the thread then exits). `poll_cost_us` is the
  /// price of one poll of this protocol and feeds the interference model.
  void add_poller(channel_id_t channel, usec_t poll_cost_us,
                  std::function<bool()> iterate) {
    // Schedule exploration: perturb this channel's poll cost before it
    // enters the interference model, shifting every wakeup on the node.
    // Pure in (seed, node, channel) — identical across replays.
    if (auto* sched = sim::ScheduleController::current()) {
      poll_cost_us +=
          sched->poll_frequency_jitter_us(node_.id(), channel, poll_cost_us);
    }
    node_.register_poller(channel, poll_cost_us);
    threads_.push_back(std::make_unique<Thread>(
        node_, [this, channel, iterate = std::move(iterate)] {
          while (iterate()) {
          }
          node_.unregister_poller(channel);
        }));
  }

  /// Charge the virtual cost of waking up to handle one message on
  /// `channel`: the Marcel wake plus the interference of the other pollers.
  /// Called by the poller's own iterate body after its blocking wait ends.
  usec_t charge_wakeup(channel_id_t channel) {
    // Teardown drain (TERM broadcasts, late credit returns) still charges
    // virtual time, but must not leak into the process-wide wakeup
    // counter: benches and tests snapshot it around measured windows, and
    // a session tearing down mid-poll would smear nondeterministic drain
    // wakeups into the next window's delta.
    if (!draining_.load(std::memory_order_acquire)) {
      DatapathStats::global().count_poll_wakeup();
    }
    usec_t extra = ThreadCosts::kWake + node_.poll_interference(channel);
    // Schedule exploration: jitter each wakeup so two pollers racing for
    // near-simultaneous arrivals can finish in either order. The sequence
    // number is the calling poller's own wakeup count — each channel has
    // exactly one poller thread, so a thread-local counter is that
    // poller's causal history, not shared racy state.
    if (auto* sched = sim::ScheduleController::current()) {
      thread_local std::uint64_t wakeups = 0;
      extra += sched->poll_wakeup_jitter_us(node_.id(), channel, wakeups++);
    }
    node_.clock().advance(extra);
    return extra;
  }

  sim::Node& node() { return node_; }
  std::size_t poller_count() const { return threads_.size(); }

  /// Mark the teardown drain: wakeups from here on are session shutdown
  /// traffic, not workload, and stay out of DatapathStats.
  void begin_drain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Join every polling thread. The sources must have been closed first so
  /// the iterate callbacks observe shutdown and return false.
  void join() {
    for (auto& thread : threads_) thread->join();
    threads_.clear();
  }

 private:
  sim::Node& node_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::atomic<bool> draining_{false};
};

}  // namespace madmpi::marcel
