#include "core/session.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/log.hpp"
#include "marcel/engine.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault.hpp"

namespace madmpi::core {

Session::Session(Options options) {
  MADMPI_CHECK_MSG(options.cluster.validate().is_ok(),
                   "invalid cluster specification");
  madeleine_ =
      std::make_unique<mad::Madeleine>(fabric_, std::move(options.cluster));

  // Lay ranks out node-major, matching ClusterSpec::rank_location.
  for (std::size_t n = 0; n < cluster().nodes.size(); ++n) {
    sim::Node& node = fabric_.node(static_cast<node_id_t>(n));
    for (int local = 0; local < cluster().nodes[n].ranks; ++local) {
      directory_.add_rank(node, local);
    }
  }

  ch_self_ = std::make_unique<ChSelfDevice>(directory_);
  smp_plug_ = std::make_unique<SmpPlugDevice>(directory_);

  forwarding_enabled_ = options.enable_forwarding;
  if (options.internode_factory) {
    internode_ = options.internode_factory(*this);
  } else if (!cluster().networks.empty()) {
    ChMadDevice::Config config;
    config.switch_point_override = options.switch_point_override;
    config.credit_window_bytes = options.credit_window_bytes;
    if (options.enable_forwarding) {
      // A second channel per network, dedicated to forwarded traffic:
      // channel isolation keeps relays from ever matching direct messages.
      int counter = 0;
      for (const auto& network : cluster().networks) {
        std::string name = std::string("fwd-") +
                           sim::protocol_keyword(network.protocol) + "-" +
                           std::to_string(counter++);
        config.forward_channels.push_back(
            &madeleine_->open_channel(network, std::move(name)));
      }
    }
    internode_ = std::make_unique<ChMadDevice>(
        directory_, madeleine_->open_default_channels(), config);
  }
  // MADMPI_ENGINE=sharded: one fiber pool for the session's life. Rank i
  // runs on shard i % shards, and each node's pollers on the shard of its
  // first rank (a rank-less node's on shard node % shards).
  if (marcel::engine_kind_from_env() == marcel::EngineKind::kSharded) {
    const std::size_t shards =
        std::min(marcel::engine_shards_from_env(),
                 static_cast<std::size_t>(std::max(1, world_size())));
    pool_ = std::make_unique<marcel::FiberPool>(
        shards, marcel::engine_stack_bytes_from_env());
    std::vector<std::size_t> node_shards;
    std::size_t first_rank = 0;
    for (std::size_t n = 0; n < cluster().nodes.size(); ++n) {
      const auto ranks = static_cast<std::size_t>(cluster().nodes[n].ranks);
      node_shards.push_back((ranks > 0 ? first_rank : n) % shards);
      first_rank += ranks;
    }
    executor_.use_pool(pool_.get(), std::move(node_shards));
  }
  if (internode_) internode_->start(executor_);

  for (rank_t rank = 0; rank < world_size(); ++rank) {
    directory_.context_of(rank).set_unexpected_budget(
        options.unexpected_budget_bytes);
  }

  // Progress watchdog: needs the ch_mad router as its failure oracle, so
  // sessions with a custom inter-node device (the baselines) run without
  // one, exactly as before this layer existed.
  watchdog_horizon_us_ = options.watchdog_horizon_us;
  if (watchdog_horizon_us_ > 0.0 && ch_mad() != nullptr) {
    for (rank_t rank = 0; rank < world_size(); ++rank) {
      const node_id_t home = directory_.node_of(rank).id();
      directory_.context_of(rank).set_watchdog(
          watchdog_horizon_us_, [this, home](rank_t peer) {
            const node_id_t origin = directory_.node_of(peer).id();
            // The direction the missing data must flow: peer -> me.
            return origin != home && route_dead(origin, home);
          });
    }
    auto sweep = [this, last_fingerprint = std::uint64_t(0),
                  stalled_sweeps = 0]() mutable {
      std::uint64_t cancels = 0;
      if (ChMadDevice* device = ch_mad()) {
        cancels += device->watchdog_sweep(
            [this](node_id_t from, node_id_t to) {
              return route_dead(from, to);
            },
            watchdog_horizon_us_);
      }
      for (rank_t rank = 0; rank < world_size(); ++rank) {
        mpi::RankContext& context = directory_.context_of(rank);
        const std::size_t canceled =
            context.cancel_unreachable(ErrorCode::kTimedOut);
        if (canceled > 0) {
          cancels += canceled;
          context.notify_waiters();
        }
      }
      // FT deadline safety valve: only after a long run of sweeps with no
      // virtual-time progress anywhere do deadline-carrying receives give
      // up (see kFtStallSweeps).
      const std::uint64_t fingerprint = progress_fingerprint();
      if (fingerprint == last_fingerprint) {
        ++stalled_sweeps;
      } else {
        last_fingerprint = fingerprint;
        stalled_sweeps = 0;
      }
      if (stalled_sweeps >= kFtStallSweeps) {
        // Cancel only the globally oldest cohort of deadline receives:
        // the operation that is actually stuck. Ranks blocked in *newer*
        // operations are usually waiting on the stuck rank's contribution
        // — cancelling their receives too would fail collectives that
        // become perfectly completable once the laggard catches up. The
        // slack batches receives posted within one operation's lane skew
        // while staying below the gap between successive collectives.
        constexpr usec_t kStallCohortSlackUs = 200.0;
        usec_t oldest = 0.0;
        for (rank_t rank = 0; rank < world_size(); ++rank) {
          const usec_t candidate =
              directory_.context_of(rank).min_ft_deadline();
          if (candidate <= 0.0) continue;
          if (oldest == 0.0 || candidate < oldest) oldest = candidate;
        }
        if (oldest > 0.0) {
          for (rank_t rank = 0; rank < world_size(); ++rank) {
            mpi::RankContext& context = directory_.context_of(rank);
            const std::size_t expired = context.cancel_expired(
                ErrorCode::kTimedOut, oldest + kStallCohortSlackUs);
            if (expired > 0) {
              cancels += expired;
              context.notify_waiters();
            }
          }
        }
        stalled_sweeps = 0;
      }
      if (cancels > 0) {
        watchdog_cancels_.fetch_add(cancels, std::memory_order_relaxed);
      }
    };
    watchdog_ = std::make_unique<ProgressWatchdog>(
        executor_, std::move(sweep), std::chrono::milliseconds(2),
        [this] { return progress_fingerprint(); });
  }
}

std::uint64_t Session::progress_fingerprint() {
  // Digest of every live lane of every node clock (the VirtualClock
  // introspection hook). Any rank or polling thread advancing virtual
  // time changes the digest, which the watchdog reads as proof of
  // progress. FNV-1a over (lane id, time bits) is plenty: we only need
  // "changed at all", not collision resistance.
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (byte * 8)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (std::size_t n = 0; n < cluster().nodes.size(); ++n) {
    for (const auto& lane :
         fabric_.node(static_cast<node_id_t>(n)).clock().lanes()) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(lane.time));
      std::memcpy(&bits, &lane.time, sizeof(bits));
      mix(lane.id);
      mix(bits);
    }
  }
  return hash;
}

Session::~Session() { finalize(); }

void Session::finalize() {
  if (finalized_) return;
  finalized_ = true;
  // Stop the watchdog before the device: its sweeps walk device state.
  if (watchdog_) {
    watchdog_->stop();
    watchdog_.reset();
  }
  if (internode_) internode_->shutdown();
  madeleine_->close_all();
  executor_.join();
  pool_.reset();  // every fiber has returned: stop the shard workers
}

Session::RouteState Session::direct_route_state(node_id_t from, node_id_t to) {
  bool saw_channel = false;
  const usec_t t = fabric_.node(from).clock().high_water();
  for (mad::Channel* channel : madeleine_->channels()) {
    if (!channel->has_member(from) || !channel->has_member(to)) continue;
    saw_channel = true;
    if (!channel->link_alive(from, to)) continue;
    const sim::Nic* nic = fabric_.find_nic(from, channel->protocol());
    const sim::FaultPlan* plan =
        nic != nullptr ? nic->model().fault_plan.get() : nullptr;
    // The oracle: a permanent kill is dead the moment the plan says so,
    // even before any send attempt observed it (a pure receiver never
    // sends, so link health alone would never notice).
    if (plan != nullptr && plan->dead(from, to, t)) continue;
    return RouteState::kAlive;
  }
  return saw_channel ? RouteState::kDead : RouteState::kNoChannel;
}

bool Session::route_dead(node_id_t from, node_id_t to) {
  if (from == to) return false;
  if (direct_route_state(from, to) == RouteState::kAlive) return false;
  if (forwarding_enabled_) {
    // Forwarding relays across any number of gateways, so the detector
    // must too: breadth-first search over live direct links. Declaring a
    // reachable peer dead cancels healthy operations, which is worse
    // than the watchdog missing a beat.
    const std::size_t node_count = cluster().nodes.size();
    std::vector<bool> visited(node_count, false);
    std::vector<node_id_t> frontier{from};
    visited[static_cast<std::size_t>(from)] = true;
    while (!frontier.empty()) {
      const node_id_t here = frontier.back();
      frontier.pop_back();
      for (std::size_t n = 0; n < node_count; ++n) {
        const node_id_t next = static_cast<node_id_t>(n);
        if (visited[n] ||
            direct_route_state(here, next) != RouteState::kAlive) {
          continue;
        }
        if (next == to) return false;
        visited[n] = true;
        frontier.push_back(next);
      }
    }
  }
  return true;
}

bool Session::peer_unreachable(rank_t from_global, rank_t to_global) {
  const node_id_t from = directory_.node_of(from_global).id();
  const node_id_t to = directory_.node_of(to_global).id();
  return from != to && route_dead(from, to);
}

mpi::CollLink Session::coll_link(rank_t a_global, rank_t b_global) {
  mpi::CollLink link;
  if (a_global == b_global) {
    link.quality = 0;
    return link;
  }
  const node_id_t a = directory_.node_of(a_global).id();
  const node_id_t b = directory_.node_of(b_global).id();
  if (a == b) {
    // Shared memory: a class no network reaches, so islands always beat
    // the interconnect in the digest's cluster detection.
    link.quality = 100;
    return link;
  }
  // Worst class (1) when a custom inter-node device is installed or the
  // pair only talks through gateway forwarding — both look like one flat
  // interconnect to the hierarchy.
  link.quality = 1;
  ChMadDevice* device = ch_mad();
  if (device == nullptr) return link;
  mad::Channel* channel = device->router().route(a, b);
  if (channel == nullptr) return link;
  link.quality = 2 + protocol_performance_rank(channel->protocol());
  // Offload parameters come from the live NIC model (fault plans and
  // per-session tweaks mutate it), falling back to the protocol defaults.
  const sim::Nic* nic = fabric_.find_nic(a, channel->protocol());
  const sim::LinkCostModel model =
      nic != nullptr ? nic->model() : sim::model_for(channel->protocol());
  link.offload = model.supports_coll_offload;
  link.offload_post_us = model.coll_post_us;
  link.offload_hop_us = model.coll_hop_us;
  link.offload_bytes_per_us = model.coll_bytes_per_us;
  link.offload_notify_us = model.coll_notify_us;
  return link;
}

mpi::Device& Session::device_for(rank_t src, rank_t dst) {
  if (src == dst) return *ch_self_;
  if (directory_.same_node(src, dst)) return *smp_plug_;
  MADMPI_CHECK_MSG(internode_ != nullptr,
                   "inter-node message but no inter-node device configured");
  MADMPI_CHECK_MSG(internode_->reaches(src, dst),
                   "destination unreachable: the nodes share no network "
                   "(enable forwarding or fix the topology)");
  return *internode_;
}

int Session::derive_context_id(int parent_context, std::int64_t key) {
  std::lock_guard<std::mutex> lock(context_mutex_);
  auto [it, inserted] =
      derived_contexts_.try_emplace({parent_context, key}, next_context_);
  if (inserted) next_context_ += 2;  // each comm owns (p2p, collective)
  return it->second;
}

void Session::run(const std::function<void(mpi::Comm)>& rank_main) {
  MADMPI_CHECK_MSG(!finalized_, "run() after finalize()");
  // MADMPI_COLL_TUNE: micro-probe the collective algorithms once per
  // session, ahead of the first run()'s rank_main, and install the
  // decision table kAuto resolution consults.
  const std::function<void(mpi::Comm)>* body = &rank_main;
  std::function<void(mpi::Comm)> tuned_body;
  if (env_flag("MADMPI_COLL_TUNE", false) && !coll_tuned_) {
    coll_tuned_ = true;
    tuned_body = [&rank_main](mpi::Comm comm) {
      mpi::tune_collectives(comm);
      rank_main(comm);
    };
    body = &tuned_body;
  }
  const std::function<void(mpi::Comm)>& main_fn = *body;
  if (pool_) {
    // Scale-out engine: rank fibers on the session's pool. Capture each
    // rank's causal birth time serially before any fiber runs, so lane
    // creation order (and with it the seeded replay) is independent of
    // which shard starts first.
    const auto ranks = static_cast<std::size_t>(world_size());
    std::vector<usec_t> births(ranks);
    for (std::size_t rank = 0; rank < ranks; ++rank) {
      births[rank] =
          node_of(static_cast<rank_t>(rank)).clock().high_water();
    }
    pool_->run(ranks, [this, &main_fn, &births](std::size_t rank) {
      const auto r = static_cast<rank_t>(rank);
      node_of(r).clock().bind_lane(births[rank]);
      main_fn(comm_world(r));
    });
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world_size()));
  for (rank_t rank = 0; rank < world_size(); ++rank) {
    threads.emplace_back(
        [this, rank, &main_fn] { main_fn(comm_world(rank)); });
  }
  for (auto& thread : threads) thread.join();
}

ChMadDevice* Session::ch_mad() {
  return dynamic_cast<ChMadDevice*>(internode_.get());
}

mad::Channel& Session::open_raw_channel(std::size_t network_index,
                                        const std::string& name) {
  MADMPI_CHECK(network_index < cluster().networks.size());
  return madeleine_->open_channel(cluster().networks[network_index], name);
}

void Session::print_stats(std::FILE* out) {
  std::fprintf(out, "%-16s %-8s %10s %14s %8s %8s\n", "channel", "proto",
               "messages", "bytes", "drops", "retries");
  for (mad::Channel* channel : madeleine_->channels()) {
    const auto stats = channel->traffic();
    std::fprintf(out,
                 "%-16s %-8s %10" PRIu64 " %14" PRIu64 " %8" PRIu64
                 " %8" PRIu64 "\n",
                 channel->name().c_str(),
                 sim::protocol_name(channel->protocol()),
                 stats.messages_sent, stats.bytes_sent, stats.frames_dropped,
                 stats.retransmits);
  }
  if (auto* device = ch_mad()) {
    std::fprintf(out,
                 "ch_mad: %" PRIu64 " eager, %" PRIu64 " rendezvous, %" PRIu64
                 " forwarded, %" PRIu64 " failovers (switch point %zu B)\n",
                 device->eager_sent(), device->rendezvous_sent(),
                 device->forwarded(), device->failovers(),
                 device->switch_point());
    if (device->credit_window() != 0) {
      std::fprintf(out,
                   "flow control: window %zu B/peer, %" PRIu64
                   " demoted, %" PRIu64 " credit packets\n",
                   device->credit_window(), device->eager_demoted(),
                   device->credit_packets());
    }
  }
  for (rank_t rank = 0; rank < world_size(); ++rank) {
    mpi::RankContext& context = directory_.context_of(rank);
    if (context.unexpected_bytes_high_water() == 0 &&
        context.eager_refused() == 0) {
      continue;
    }
    std::fprintf(out,
                 "rank %d unexpected store: high water %zu B (budget %zu B), "
                 "%" PRIu64 " eager refusals\n",
                 rank, context.unexpected_bytes_high_water(),
                 context.unexpected_budget(), context.eager_refused());
  }
  if (watchdog_cancels() > 0) {
    std::fprintf(out, "watchdog: %" PRIu64 " operations cancelled\n",
                 watchdog_cancels());
  }
}

void Session::reset_clocks() {
  for (std::size_t n = 0; n < cluster().nodes.size(); ++n) {
    fabric_.node(static_cast<node_id_t>(n)).clock().reset();
  }
}

}  // namespace madmpi::core
