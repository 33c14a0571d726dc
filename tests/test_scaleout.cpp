// Rank-scaling stress tier for the sharded run-to-completion engine:
// 256- and 1024-rank sessions on one machine (p2p ring, allreduce, an FT
// bcast under a seeded outage), replay tests asserting two one-shard runs
// with the same schedule seed produce bit-identical VirtualClock stamps
// and message orders, on one node and across nodes, and the
// teardown-drain regression for poll-wakeup
// accounting. The big tests pin MADMPI_ENGINE=sharded themselves — a
// thread-per-rank 1024-way session is exactly what the fiber engine
// exists to avoid — so both ctest registrations exercise the same engine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/datapath_stats.hpp"
#include "core/session.hpp"
#include "sim/fault.hpp"
#include "sim/sched.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;

/// Set an environment variable for one scope, restoring the previous value
/// (or absence) on exit. The engine knobs are read when a Session is
/// built, so in-process setenv is enough to steer individual tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

std::shared_ptr<sim::FaultPlan> install_plan(Session& session,
                                             node_id_t node,
                                             std::uint64_t seed) {
  auto plan = std::make_shared<sim::FaultPlan>(seed);
  sim::Nic* nic = session.fabric().find_nic(node, sim::Protocol::kTcp);
  EXPECT_NE(nic, nullptr);
  nic->mutable_model().fault_plan = plan;
  return plan;
}

TEST(Scaleout, Ring256AcrossNodes) {
  // 256 ranks as 8 nodes x 32: the ring crosses a node boundary every 32
  // hops, so this exercises smp delivery, ch_mad credit flow and the
  // poller threads all under the fiber engine at once.
  ScopedEnv engine("MADMPI_ENGINE", "sharded");
  ScopedEnv shards("MADMPI_SHARDS", "4");
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(8, sim::Protocol::kTcp, 32);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const int n = comm.size();
    const int me = comm.rank();
    ASSERT_EQ(n, 256);
    std::int32_t token = me;
    std::int32_t from_left = -1;
    const auto status = comm.sendrecv(
        &token, 1, Datatype::int32(), (me + 1) % n, /*send_tag=*/7,
        &from_left, 1, Datatype::int32(), (me + n - 1) % n, /*recv_tag=*/7);
    ASSERT_EQ(status.error, ErrorCode::kOk);
    EXPECT_EQ(from_left, (me + n - 1) % n);
  });
}

TEST(Scaleout, Allreduce1024SingleNode) {
  // The headline count: 1024 ranks in one session on one machine. A
  // thread-per-rank engine would need 1024 OS threads; the sharded engine
  // runs them as fibers on a handful of workers. The smaller stack knob is
  // exercised here too — collective bodies are shallow.
  ScopedEnv engine("MADMPI_ENGINE", "sharded");
  ScopedEnv stack("MADMPI_FIBER_STACK_KB", "256");
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(1, sim::Protocol::kTcp, 1024);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const int n = comm.size();
    ASSERT_EQ(n, 1024);
    const std::int64_t mine = comm.rank();
    std::int64_t total = -1;
    const Status status = comm.allreduce(&mine, &total, 1,
                                         Datatype::int64(), mpi::Op::sum());
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    EXPECT_EQ(total, static_cast<std::int64_t>(n) * (n - 1) / 2);
  });
}

TEST(Scaleout, FtBcast256UnderSeededOutage) {
  // Fault-tolerant bcast at 256 ranks while the root node's NIC is both
  // dark for the opening window and lossy afterwards (seeded drops). The
  // survivable tree must reroute/retry until every rank holds the payload.
  ScopedEnv engine("MADMPI_ENGINE", "sharded");
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(8, sim::Protocol::kTcp, 32);
  Session session(std::move(options));
  install_plan(session, 0, /*seed=*/17)
      ->outage(0.0, 150.0, /*src=*/0, /*dst=*/1)
      .drop(0.10);
  std::mutex mutex;
  std::map<int, Status> statuses;
  session.run([&](Comm comm) {
    mpi::CollectiveConfig config;
    config.fault_tolerant = true;
    comm.set_collective_config(config);
    std::vector<int> data(512);
    if (comm.rank() == 0) std::iota(data.begin(), data.end(), 3);
    const Status status = comm.bcast(data.data(), 512, Datatype::int32(), 0);
    for (int i = 0; i < 512; ++i) {
      ASSERT_EQ(data[i], i + 3) << "rank " << comm.rank();
    }
    std::lock_guard<std::mutex> lock(mutex);
    statuses[comm.rank()] = status;
  });
  ASSERT_EQ(statuses.size(), 256u);
  for (const auto& [rank, status] : statuses) {
    EXPECT_TRUE(status.is_ok()) << "rank " << rank << ": "
                                << status.to_string();
  }
}

/// One run's observable schedule: per-rank wildcard delivery order and
/// the virtual time each of those receives returned at, the per-rank
/// fiber-lane clock reading and node high-water mark at the end of the
/// body, and on one node the high-water mark after the run. Compared
/// bitwise across replays.
struct ScheduleFingerprint {
  std::vector<std::vector<std::pair<int, int>>> order;  // (source, tag)
  std::vector<std::vector<double>> recv_stamps;
  std::vector<double> stamps;
  std::vector<double> high_water;

  bool operator==(const ScheduleFingerprint& other) const {
    return order == other.order && recv_stamps == other.recv_stamps &&
           stamps == other.stamps && high_water == other.high_water;
  }
};

/// Every rank isends to four ring offsets and takes its four messages by
/// wildcard receives, then joins an allreduce and, with `alltoall`, an
/// alltoall. Each run installs a fresh schedule controller for `seed`.
ScheduleFingerprint run_replay_workload(std::uint64_t seed,
                                        sim::ClusterSpec cluster,
                                        bool alltoall) {
  // Fresh controller per run so choice streams start from the same state.
  sim::ScheduleController::install(seed);
  constexpr int kRounds = 4;
  constexpr int kOffsets[kRounds] = {1, 3, 7, 11};
  Session::Options options;
  options.cluster = std::move(cluster);
  Session session(std::move(options));
  const auto ranks = static_cast<std::size_t>(session.world_size());
  ScheduleFingerprint print;
  print.order.resize(ranks);
  print.recv_stamps.resize(ranks);
  print.stamps.resize(ranks, 0.0);
  print.high_water.resize(ranks, 0.0);
  session.run([&](Comm comm) {
    const int n = comm.size();
    const int me = comm.rank();
    std::vector<mpi::Request> sends;
    std::vector<std::int32_t> payloads(kRounds);
    for (int k = 0; k < kRounds; ++k) {
      payloads[k] = me;
      sends.push_back(comm.isend(&payloads[k], 1, Datatype::int32(),
                                 (me + kOffsets[k]) % n, 100 + k));
    }
    // Each offset is a bijection on ranks, so everyone receives exactly
    // kRounds messages; wildcard receives make the arrival order itself
    // part of the fingerprint.
    for (int k = 0; k < kRounds; ++k) {
      std::int32_t value = -1;
      const auto status = comm.recv(&value, 1, Datatype::int32(),
                                    mpi::kAnySource, mpi::kAnyTag);
      ASSERT_EQ(status.error, ErrorCode::kOk);
      EXPECT_EQ(value, status.source);
      print.order[me].emplace_back(status.source, status.tag);
      print.recv_stamps[me].push_back(comm.wtime_us());
    }
    for (auto& request : sends) request.wait();
    std::int64_t mine = me;
    std::int64_t total = -1;
    comm.allreduce(&mine, &total, 1, Datatype::int64(), mpi::Op::sum());
    EXPECT_EQ(total, static_cast<std::int64_t>(n) * (n - 1) / 2);
    if (alltoall) {
      std::vector<std::int32_t> out(static_cast<std::size_t>(n) * 64);
      std::vector<std::int32_t> in(out.size(), -1);
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = me * 100000 + static_cast<std::int32_t>(i);
      }
      ASSERT_TRUE(comm.alltoall(out.data(), 64, Datatype::int32(), in.data(),
                                64, Datatype::int32())
                      .is_ok());
      for (int peer = 0; peer < n; ++peer) {
        EXPECT_EQ(in[static_cast<std::size_t>(peer) * 64],
                  peer * 100000 + me * 64);
      }
    }
    // Fibers run on their node's clock via private lanes: this reads the
    // calling fiber's own causal time, a direct schedule observable.
    print.stamps[me] = session.node_of(me).clock().now();
    print.high_water[me] = session.node_of(me).clock().high_water();
  });
  // Across nodes, pollers may still handle credit returns after the last
  // rank returned, concurrently with this read; on one node none runs.
  if (session.cluster().nodes.size() == 1) {
    print.high_water.push_back(session.fabric().node(0).clock().high_water());
  }
  sim::ScheduleController::uninstall();
  return print;
}

void expect_bit_identical_replay(const sim::ClusterSpec& cluster,
                                 bool alltoall) {
  const ScheduleFingerprint first =
      run_replay_workload(2026, cluster, alltoall);
  const ScheduleFingerprint second =
      run_replay_workload(2026, cluster, alltoall);
  EXPECT_TRUE(first == second)
      << "same seed, different schedule: replay is broken";
  for (std::size_t r = 0; r < first.order.size(); ++r) {
    ASSERT_EQ(first.order[r].size(), 4u);
    ASSERT_GT(first.stamps[r], 0.0);
  }
  EXPECT_EQ(first.high_water, second.high_water);
}

TEST(Scaleout, ShardedReplayIsBitIdentical) {
  // The determinism contract: MADMPI_SHARDS=1 leaves the shard worker as
  // the only thread touching rank state, so a fixed MADMPI_SCHED_SEED must
  // replay the exact schedule — identical wildcard delivery orders and
  // bit-identical VirtualClock stamps. Here on one node (smp only).
  ScopedEnv engine("MADMPI_ENGINE", "sharded");
  ScopedEnv shards("MADMPI_SHARDS", "1");
  ScopedEnv env_seed("MADMPI_SCHED_SEED", "0");  // explicit install below
  expect_bit_identical_replay(
      sim::ClusterSpec::homogeneous(1, sim::Protocol::kTcp, 64),
      /*alltoall=*/false);
}

TEST(Scaleout, ShardedMultiNodeReplayIsBitIdentical) {
  // The same contract across nodes: the pollers of both networks are
  // fibers of the one shard too, so frames are handled in an order the
  // seed fixes. Four nodes on SCI and TCP, four ranks each.
  ScopedEnv engine("MADMPI_ENGINE", "sharded");
  ScopedEnv shards("MADMPI_SHARDS", "1");
  ScopedEnv env_seed("MADMPI_SCHED_SEED", "0");  // explicit install below
  sim::ClusterSpec cluster =
      sim::ClusterSpec::homogeneous(4, sim::Protocol::kSisci, 4);
  sim::NetworkSpec tcp;
  tcp.protocol = sim::Protocol::kTcp;
  for (const auto& node : cluster.nodes) tcp.members.push_back(node.name);
  cluster.networks.push_back(std::move(tcp));
  expect_bit_identical_replay(cluster, /*alltoall=*/true);
}

TEST(Scaleout, TeardownDrainKeepsWakeupCountsQuiet) {
  // Regression for the mid-poll teardown leak: TERM sweeps during
  // Session::finalize() used to smear poller wakeups into whatever stats
  // window a benchmark had open. With begin_drain() raised before the
  // close sequence, the workload's own wakeups still count but the
  // teardown's must not. Payloads stay tiny so no batched credit-return
  // packet is still in flight when the workload snapshot is taken.
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  Session session(std::move(options));
  const auto before = DatapathStats::global().snapshot();
  session.run([](Comm comm) {
    for (int i = 0; i < 8; ++i) {
      std::int32_t value = 40 + i;
      if (comm.rank() == 0) {
        comm.send(&value, 1, Datatype::int32(), 1, i);
      } else {
        std::int32_t got = -1;
        const auto status =
            comm.recv(&got, 1, Datatype::int32(), 0, i);
        ASSERT_EQ(status.error, ErrorCode::kOk);
        EXPECT_EQ(got, value);
      }
    }
  });
  const auto after_run = DatapathStats::global().snapshot();
  EXPECT_GT((after_run - before).poll_wakeups, 0u)
      << "cross-node eager traffic should wake the destination poller";
  session.finalize();
  const auto after_teardown = DatapathStats::global().snapshot();
  EXPECT_EQ((after_teardown - after_run).poll_wakeups, 0u)
      << "teardown TERM sweep leaked into the wakeup counter";
}

}  // namespace
}  // namespace madmpi
