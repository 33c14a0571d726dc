// Factorized network polling (Marcel + Madeleine cooperation, paper §3.3).
//
// The poll server runs one persistent poller per registered source (ch_mad
// registers one per Madeleine channel, §4.2.3) as a loop on the session's
// executor, started like a Marcel thread: its creator pays the thread
// creation cost and the poller's lane is born there. Under the sharded
// engine the loop is a fiber on its node's shard, and its blocking take
// parks (net::Endpoint); under the threaded engine it is an OS thread.
// Each active poller is declared on the node so concurrent pollers
// interfere: handling a message on channel X is delayed by the other
// channels' polling costs — exactly the effect the paper measures in
// Figure 9 (SCI alone vs SCI+TCP).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "common/datapath_stats.hpp"
#include "common/types.hpp"
#include "marcel/executor.hpp"
#include "sim/node.hpp"
#include "sim/sched.hpp"

namespace madmpi::marcel {

class PollServer {
 public:
  /// One poller's own state, handed to each of its iterations.
  struct Poller {
    channel_id_t channel = 0;
    std::uint64_t wakeups = 0;  // schedule-seed jitter sequence
    std::future<void> returned;
  };

  PollServer(sim::Node& node, Executor& executor)
      : node_(node), executor_(executor) {}
  PollServer(const PollServer&) = delete;
  PollServer& operator=(const PollServer&) = delete;
  ~PollServer() { join(); }

  /// Start a persistent poller for one source. `iterate` must block until
  /// the next event, handle it, and return true; it returns false when the
  /// source has shut down (the poller then exits). `poll_cost_us` is the
  /// price of one poll of this protocol and feeds the interference model.
  void add_poller(channel_id_t channel, usec_t poll_cost_us,
                  std::function<bool(Poller&)> iterate) {
    // Schedule exploration: perturb this channel's poll cost before it
    // enters the interference model, shifting every wakeup on the node.
    // Pure in (seed, node, channel) — identical across replays.
    if (auto* sched = sim::ScheduleController::current()) {
      poll_cost_us +=
          sched->poll_frequency_jitter_us(node_.id(), channel, poll_cost_us);
    }
    node_.register_poller(channel, poll_cost_us);
    auto poller = std::make_unique<Poller>();
    poller->channel = channel;
    Poller* raw = poller.get();
    raw->returned = executor_.loop(
        [this, raw, iterate = std::move(iterate)] {
          while (iterate(*raw)) {
          }
          node_.unregister_poller(raw->channel);
        },
        &node_, ThreadCosts::kCreate);
    pollers_.push_back(std::move(poller));
  }

  /// Charge the virtual cost of waking `poller` up to handle one message:
  /// the Marcel wake plus the interference of the other pollers. Called by
  /// the poller's own iterate body after its blocking wait ends.
  usec_t charge_wakeup(Poller& poller) {
    // Teardown drain (TERM broadcasts, late credit returns) still charges
    // virtual time, but must not leak into the process-wide wakeup
    // counter: benches and tests snapshot it around measured windows, and
    // a session tearing down mid-poll would smear nondeterministic drain
    // wakeups into the next window's delta.
    if (!draining_.load(std::memory_order_acquire)) {
      DatapathStats::global().count_poll_wakeup();
    }
    usec_t extra = ThreadCosts::kWake + node_.poll_interference(poller.channel);
    // Schedule exploration: jitter each wakeup so two pollers racing for
    // near-simultaneous arrivals can finish in either order. The sequence
    // number is this poller's own wakeup count, its causal history.
    if (auto* sched = sim::ScheduleController::current()) {
      extra += sched->poll_wakeup_jitter_us(node_.id(), poller.channel,
                                            poller.wakeups++);
    }
    node_.clock().advance(extra);
    return extra;
  }

  std::size_t poller_count() const { return pollers_.size(); }

  /// Mark the teardown drain: wakeups from here on are session shutdown
  /// traffic, not workload, and stay out of DatapathStats.
  void begin_drain() { draining_.store(true, std::memory_order_release); }

  /// Wait for every poller to return. The sources must have been closed
  /// first so the iterate callbacks observe shutdown and return false.
  void join() {
    for (auto& poller : pollers_) poller->returned.wait();
    pollers_.clear();
  }

 private:
  sim::Node& node_;
  Executor& executor_;
  std::vector<std::unique_ptr<Poller>> pollers_;
  std::atomic<bool> draining_{false};
};

}  // namespace madmpi::marcel
