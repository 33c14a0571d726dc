// The MPICH/Madeleine session: builds the simulated cluster, Madeleine and
// its channels, the three concurrent devices (ch_self, smp_plug, ch_mad),
// hosts the rank threads, and implements the runtime services of the
// generic MPI layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "core/ch_mad.hpp"
#include "core/ch_self.hpp"
#include "core/directory.hpp"
#include "core/managed_device.hpp"
#include "core/smp_plug.hpp"
#include "core/watchdog.hpp"
#include "mad/madeleine.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"

namespace madmpi::core {

class Session final : public mpi::Runtime {
 public:
  struct Options {
    sim::ClusterSpec cluster;

    /// Ablation hook forwarded to ch_mad.
    std::optional<std::size_t> switch_point_override;

    /// Enable gateway forwarding: nodes without a common network reach
    /// each other through intermediate nodes over dedicated forwarding
    /// channels (the paper's §6 future-work mechanism).
    bool enable_forwarding = false;

    /// Replace the inter-node device (used by the baseline benchmarks).
    /// When empty, the default ch_mad over one channel per declared
    /// network is built.
    std::function<std::unique_ptr<ManagedDevice>(Session&)>
        internode_factory;

    // --- robustness knobs ----------------------------------------------

    /// Per-peer eager credit window in bytes, forwarded to ch_mad.
    /// 0 derives the window from the elected switch point; SIZE_MAX
    /// disables credit flow control. A dry sender demotes to rendezvous.
    std::size_t credit_window_bytes = 0;

    /// Per-rank unexpected-store budget in bytes; eager messages that
    /// would overflow it are refused at the ADI and retried as
    /// rendezvous. 0 means unlimited.
    std::size_t unexpected_budget_bytes = 8 * 1024 * 1024;

    /// Progress-watchdog horizon in virtual microseconds: an operation
    /// whose peer is unreachable is cancelled (ErrorCode::kTimedOut) and
    /// stamped at its start time plus this horizon. 0 disables the
    /// watchdog.
    usec_t watchdog_horizon_us = 10000.0;
  };

  explicit Session(Options options);
  ~Session() override;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- mpi::Runtime -----------------------------------------------------
  int world_size() const override { return directory_.size(); }
  sim::Node& node_of(rank_t global) override {
    return directory_.node_of(global);
  }
  mpi::RankContext& context_of(rank_t global) override {
    return directory_.context_of(global);
  }
  mpi::Device& device_for(rank_t src, rank_t dst) override;
  /// The one executor the devices and the watchdog share: the pollers
  /// and the watchdog sweep run as its loops (the pollers as fibers under
  /// the sharded engine).
  marcel::Executor& executor() { return executor_; }
  int derive_context_id(int parent_context, std::int64_t key) override;
  /// Failure detector for the FT collectives: directional route health
  /// between the hosting nodes (same-node peers share memory and never
  /// fail independently here).
  bool peer_unreachable(rank_t from_global, rank_t to_global) override;
  /// Link digest for the hierarchical collective engine: same-node peers
  /// get the shared-memory class; inter-node pairs are classed by the
  /// router's elected protocol, with the NIC-offload capability and cost
  /// parameters copied from that protocol's cost model.
  mpi::CollLink coll_link(rank_t a_global, rank_t b_global) override;

  // --- execution ----------------------------------------------------------
  /// Run `rank_main` once per rank, each on its own thread bound to its
  /// node, or as a fiber of the session's pool under the sharded engine.
  /// Returns when every rank returned. May be called repeatedly.
  void run(const std::function<void(mpi::Comm)>& rank_main);

  /// World communicator handle for one rank (for driving ranks manually).
  mpi::Comm comm_world(rank_t rank) {
    return mpi::Comm::world(this, rank, /*world_context=*/0);
  }

  /// Stop the watchdog sweep and the pollers, close channels, then join
  /// every executor worker. Implicit in the destructor.
  void finalize();

  // --- introspection --------------------------------------------------------
  sim::Fabric& fabric() { return fabric_; }
  mad::Madeleine& madeleine() { return *madeleine_; }
  RankDirectory& directory() { return directory_; }
  const sim::ClusterSpec& cluster() const { return madeleine_->cluster(); }

  /// The ch_mad device, or nullptr when a custom inter-node device is
  /// installed.
  ChMadDevice* ch_mad();
  ManagedDevice& internode_device() { return *internode_; }

  /// Reset every node clock to zero (benchmark warm-up isolation).
  void reset_clocks();

  /// True when every channel between the two nodes is dead in the
  /// from->to direction — by observed link health or by the fault-plan
  /// oracle at the from-node's current virtual time. With forwarding
  /// enabled a live two-hop relay keeps the route alive. The progress
  /// watchdog's failure detector.
  bool route_dead(node_id_t from, node_id_t to);

  /// Operations the watchdog has cancelled so far (receives, rendezvous
  /// handshakes, probes are not counted — they re-check the detector
  /// themselves).
  std::uint64_t watchdog_cancels() const {
    return watchdog_cancels_.load(std::memory_order_relaxed);
  }

  /// Digest of every node clock's live lanes (VirtualClock::lanes()). The
  /// watchdog skips its sweep on ticks where this moved — some thread
  /// advanced virtual time, so nothing is stalled. Exposed for tests and
  /// external harnesses.
  std::uint64_t progress_fingerprint();

  /// The watchdog, or nullptr when no watchdog is configured
  /// (introspection: tests assert on sweeps_skipped()).
  ProgressWatchdog* watchdog() { return watchdog_.get(); }

  /// Open an extra channel on the `index`-th declared network, private to
  /// the caller (no ch_mad poller attached). Raw-Madeleine benchmarks use
  /// this: channel isolation keeps their traffic away from the device.
  mad::Channel& open_raw_channel(std::size_t network_index = 0,
                                 const std::string& name = "raw");

  /// Print a per-channel traffic report (messages/bytes, plus ch_mad's
  /// eager/rendezvous/forwarded counters) to `out`.
  void print_stats(std::FILE* out = stdout);

  /// Consecutive stalled watchdog sweeps (global progress fingerprint
  /// unchanged) before deadline-carrying FT receives are cancelled. The
  /// deadline is a safety valve for fault schedules the reachability
  /// oracle cannot prove dead (e.g. a peer that skipped its send during
  /// an outage window that later healed); gating it on a long observed
  /// stall keeps transient wall-clock hiccups from cancelling healthy
  /// operations.
  static constexpr int kFtStallSweeps = 48;

 private:
  enum class RouteState { kAlive, kDead, kNoChannel };

  /// Check a single node pair for a live direct channel (route_dead's
  /// one-hop primitive).
  RouteState direct_route_state(node_id_t from, node_id_t to);

  sim::Fabric fabric_;
  std::unique_ptr<mad::Madeleine> madeleine_;
  RankDirectory directory_;

  std::unique_ptr<ChSelfDevice> ch_self_;
  std::unique_ptr<SmpPlugDevice> smp_plug_;
  std::unique_ptr<ManagedDevice> internode_;
  std::unique_ptr<ProgressWatchdog> watchdog_;
  std::atomic<std::uint64_t> watchdog_cancels_{0};
  usec_t watchdog_horizon_us_ = 0.0;
  bool forwarding_enabled_ = false;

  std::mutex context_mutex_;
  std::map<std::pair<int, std::int64_t>, int> derived_contexts_;
  int next_context_ = 2;  // 0/1 belong to the world communicator

  // MADMPI_COLL_TUNE runs the collective auto-tuner ahead of the first
  // run()'s rank_main, once per session.
  bool coll_tuned_ = false;

  bool finalized_ = false;

  // The sharded engine's fiber pool (MADMPI_ENGINE=sharded, read at
  // construction): rank fibers and pollers. Null under the threaded engine.
  std::unique_ptr<marcel::FiberPool> pool_;

  // Declared last, so destroyed first: its loops use the devices.
  marcel::Executor executor_;
};

}  // namespace madmpi::core
