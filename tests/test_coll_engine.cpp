// The hierarchical collective engine (PR 9): topology digest, hierarchical
// and NIC-offloaded algorithms, kAuto resolution (env override > tuner
// table > heuristic), the nonblocking-collective schedules, and the FT
// interop pin (FT mode always falls back to the flat survivable path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "core/session.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::AllreduceAlgorithm;
using mpi::BarrierAlgorithm;
using mpi::BcastAlgorithm;
using mpi::CollectiveConfig;
using mpi::Comm;
using mpi::Datatype;

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

/// `clusters` SCI islands of `nodes_per` machines, every machine also on
/// the Fast-Ethernet interconnect — the paper's cluster-of-clusters with a
/// configurable cluster count (cluster_of_clusters() hard-codes two).
sim::ClusterSpec meta_cluster(int clusters, int nodes_per, int ranks_per) {
  sim::ClusterSpec spec;
  sim::NetworkSpec tcp;
  tcp.protocol = sim::Protocol::kTcp;
  for (int c = 0; c < clusters; ++c) {
    sim::NetworkSpec sci;
    sci.protocol = sim::Protocol::kSisci;
    sci.adapter = static_cast<adapter_id_t>(c);
    for (int n = 0; n < nodes_per; ++n) {
      sim::NodeSpec node;
      node.name = "c" + std::to_string(c) + "n" + std::to_string(n);
      node.ranks = ranks_per;
      spec.nodes.push_back(node);
      sci.members.push_back(node.name);
      tcp.members.push_back(node.name);
    }
    spec.networks.push_back(std::move(sci));
  }
  spec.networks.push_back(std::move(tcp));
  return spec;
}

/// Misaligned variant: `ranks` total, spread over `clusters` SCI islands as
/// evenly as possible with `ranks_per`-rank machines (the last machine of a
/// cluster takes the remainder). With non-power-of-two cluster and node
/// sizes, a flat binomial tree's rank±2^k edges cross the interconnect at
/// many levels — the shape where hierarchy matters. (On power-of-two-
/// aligned shapes the flat binomial tree IS the hierarchical tree and the
/// two time identically.)
sim::ClusterSpec misaligned_meta_cluster(int ranks, int clusters,
                                         int ranks_per) {
  sim::ClusterSpec spec;
  sim::NetworkSpec tcp;
  tcp.protocol = sim::Protocol::kTcp;
  for (int c = 0; c < clusters; ++c) {
    int remaining = ranks / clusters + (c < ranks % clusters ? 1 : 0);
    sim::NetworkSpec sci;
    sci.protocol = sim::Protocol::kSisci;
    sci.adapter = static_cast<adapter_id_t>(c);
    for (int n = 0; remaining > 0; ++n) {
      sim::NodeSpec node;
      node.name = "c" + std::to_string(c) + "n" + std::to_string(n);
      node.ranks = std::min(ranks_per, remaining);
      remaining -= node.ranks;
      spec.nodes.push_back(node);
      sci.members.push_back(node.name);
      tcp.members.push_back(node.name);
    }
    spec.networks.push_back(std::move(sci));
  }
  spec.networks.push_back(std::move(tcp));
  return spec;
}

TEST(CollTopo, MetaClusterDigest) {
  Session::Options options;
  options.cluster = meta_cluster(2, 2, 2);  // 8 ranks, 4 nodes, 2 clusters
  Session session(std::move(options));
  session.run([](Comm comm) {
    const mpi::CollTopo& topo = comm.coll_topo();
    ASSERT_EQ(topo.islands.size(), 4u);
    ASSERT_EQ(topo.clusters.size(), 2u);
    EXPECT_FALSE(topo.single_island());
    // Mixed SCI/TCP leader fabric: no homogeneous offload tree.
    EXPECT_FALSE(topo.offload_capable);
    // Islands hold node-major rank pairs; leaders are the even ranks.
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_EQ(topo.islands[i].members.size(), 2u);
      EXPECT_EQ(topo.leader_of_island(static_cast<int>(i)),
                static_cast<rank_t>(2 * i));
    }
    // Clusters pair islands {0,1} and {2,3} (the two SCI networks).
    EXPECT_EQ(topo.islands[0].cluster, topo.islands[1].cluster);
    EXPECT_EQ(topo.islands[2].cluster, topo.islands[3].cluster);
    EXPECT_NE(topo.islands[0].cluster, topo.islands[2].cluster);
  });
}

TEST(CollTopo, HomogeneousSciIsOffloadCapable) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kSisci, 2);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const mpi::CollTopo& topo = comm.coll_topo();
    EXPECT_EQ(topo.islands.size(), 4u);
    EXPECT_TRUE(topo.single_cluster());
    EXPECT_TRUE(topo.offload_capable);
    EXPECT_GT(topo.offload_bytes_per_us, 0.0);
  });
}

TEST(CollEngine, AutoResolvesHierAcrossIslandsFlatWithin) {
  {
    Session::Options options;
    options.cluster = meta_cluster(2, 2, 2);
    Session session(std::move(options));
    session.run([](Comm comm) {
      EXPECT_EQ(comm.resolve_bcast(64 * 1024), BcastAlgorithm::kHierarchical);
      EXPECT_EQ(comm.resolve_allreduce(64 * 1024),
                AllreduceAlgorithm::kHierarchical);
      EXPECT_EQ(comm.resolve_barrier(), BarrierAlgorithm::kHierarchical);
    });
  }
  {
    Session::Options options;
    options.cluster = sim::ClusterSpec::homogeneous(1, sim::Protocol::kTcp, 8);
    Session session(std::move(options));
    session.run([](Comm comm) {
      // Single island: the historical flat algorithms, bit-identical.
      EXPECT_EQ(comm.resolve_bcast(4), BcastAlgorithm::kBinomial);
      EXPECT_EQ(comm.resolve_allreduce(4), AllreduceAlgorithm::kReduceBcast);
      EXPECT_EQ(comm.resolve_barrier(), BarrierAlgorithm::kDissemination);
    });
  }
}

TEST(CollEngine, AutoElectsOffloadBarrierOnCapableFabric) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kSisci, 2);
  Session session(std::move(options));
  session.run([](Comm comm) {
    EXPECT_EQ(comm.resolve_barrier(), BarrierAlgorithm::kOffload);
    CollectiveConfig config = comm.collective_config();
    config.offload = false;  // MADMPI_COLL_OFFLOAD=0 equivalent
    comm.set_collective_config(config);
    EXPECT_EQ(comm.resolve_barrier(), BarrierAlgorithm::kHierarchical);
  });
}

TEST(CollEngine, CollectiveConfigIsRankLocal) {
  // Regression: the config used to live in the communicator-shared state,
  // so rank 0's write reached rank 1 mid-resolution. Point-to-point
  // messages order the steps — deliberately not a barrier, whose algorithm
  // the two ranks no longer agree on. Rank 1 says it is up first, so both
  // ranks hold the world communicator while rank 0 writes.
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kSisci, 2);
  Session session(std::move(options));
  session.run([](Comm comm) {
    int token = 1;
    if (comm.rank() == 0) {
      comm.recv(&token, 1, Datatype::int32(), 1, 7);
      CollectiveConfig config = comm.collective_config();
      config.offload = false;
      comm.set_collective_config(config);
      EXPECT_EQ(comm.resolve_barrier(), BarrierAlgorithm::kHierarchical);
      comm.send(&token, 1, Datatype::int32(), 1, 7);
    } else if (comm.rank() == 1) {
      comm.send(&token, 1, Datatype::int32(), 0, 7);
      comm.recv(&token, 1, Datatype::int32(), 0, 7);
      EXPECT_EQ(comm.resolve_barrier(), BarrierAlgorithm::kOffload);
    }
  });
}

TEST(CollEngine, EnvOverrideBeatsAuto) {
  ScopedEnv bcast_env("MADMPI_COLL_BCAST", "linear");
  ScopedEnv barrier_env("MADMPI_COLL_BARRIER", "dissemination");
  Session::Options options;
  options.cluster = meta_cluster(2, 2, 2);
  Session session(std::move(options));
  session.run([](Comm comm) {
    EXPECT_EQ(comm.resolve_bcast(64 * 1024), BcastAlgorithm::kLinear);
    EXPECT_EQ(comm.resolve_barrier(), BarrierAlgorithm::kDissemination);
    // The overridden algorithm still delivers.
    std::vector<int> data(128, comm.rank() == 1 ? 41 : -1);
    if (comm.rank() == 1) std::iota(data.begin(), data.end(), 5);
    comm.bcast(data.data(), 128, Datatype::int32(), 1);
    for (int i = 0; i < 128; ++i) ASSERT_EQ(data[i], 5 + i);
  });
}

// Hierarchical and offloaded algorithms must agree with the flat ones
// bit-for-bit (payloads travel as opaque host-order bytes; integer ops are
// exact), including re-rooting at every rank.
TEST(CollEngine, HierMatchesFlatOnEveryRoot) {
  Session::Options options;
  options.cluster = meta_cluster(3, 2, 2);  // 12 ranks, misaligned islands
  Session session(std::move(options));
  session.run([](Comm comm) {
    constexpr int kCount = 1000;
    for (int root = 0; root < comm.size(); ++root) {
      CollectiveConfig config;
      config.bcast = BcastAlgorithm::kHierarchical;
      config.allreduce = AllreduceAlgorithm::kHierarchical;
      config.barrier = BarrierAlgorithm::kHierarchical;
      comm.set_collective_config(config);

      std::vector<int> data(kCount, -1);
      if (comm.rank() == root) {
        for (int i = 0; i < kCount; ++i) data[i] = root * 100000 + i;
      }
      comm.bcast(data.data(), kCount, Datatype::int32(), root);
      for (int i = 0; i < kCount; ++i) {
        ASSERT_EQ(data[i], root * 100000 + i) << "root " << root;
      }

      std::vector<std::int64_t> mine(kCount), total(kCount, -1);
      for (int i = 0; i < kCount; ++i) mine[i] = comm.rank() + i;
      comm.allreduce(mine.data(), total.data(), kCount, Datatype::int64(),
                     mpi::Op::sum());
      const std::int64_t n = comm.size();
      for (int i = 0; i < kCount; ++i) {
        ASSERT_EQ(total[i], n * (n - 1) / 2 + n * i);
      }

      std::vector<std::int64_t> reduced(kCount, -7);
      comm.reduce(mine.data(), reduced.data(), kCount, Datatype::int64(),
                  mpi::Op::sum(), root);
      if (comm.rank() == root) {
        for (int i = 0; i < kCount; ++i) {
          ASSERT_EQ(reduced[i], n * (n - 1) / 2 + n * i);
        }
      }
      comm.barrier();
    }
  });
}

TEST(CollEngine, OffloadBcastAndBarrierDeliver) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(5, sim::Protocol::kSisci, 2);
  Session session(std::move(options));
  session.run([](Comm comm) {
    CollectiveConfig config;
    config.bcast = BcastAlgorithm::kOffload;
    config.barrier = BarrierAlgorithm::kOffload;
    comm.set_collective_config(config);
    for (int root : {0, 3, 9}) {
      std::vector<int> data(512, -1);
      if (comm.rank() == root) std::iota(data.begin(), data.end(), root);
      comm.bcast(data.data(), 512, Datatype::int32(), root);
      for (int i = 0; i < 512; ++i) ASSERT_EQ(data[i], root + i);
      comm.barrier();
    }
  });
}

TEST(CollEngine, OffloadBarrierBeatsHostTrees) {
  // Acceptance pin: the modeled NIC combine/forward tree beats both host
  // algorithms at every probed scale (the barrier is pure latency, which
  // is exactly what the firmware tree removes).
  for (int nodes : {4, 8, 16}) {
    auto measure = [nodes](BarrierAlgorithm algorithm) {
      Session::Options options;
      options.cluster =
          sim::ClusterSpec::homogeneous(nodes, sim::Protocol::kSisci, 2);
      Session session(std::move(options));
      usec_t elapsed = 0.0;
      session.run([&](Comm comm) {
        CollectiveConfig config;
        config.barrier = algorithm;
        comm.set_collective_config(config);
        comm.barrier();  // warm-up / sync
        const usec_t t0 = comm.wtime_us();
        comm.barrier();
        if (comm.rank() == 0) elapsed = comm.wtime_us() - t0;
      });
      return elapsed;
    };
    const usec_t dissemination = measure(BarrierAlgorithm::kDissemination);
    const usec_t hier = measure(BarrierAlgorithm::kHierarchical);
    const usec_t offload = measure(BarrierAlgorithm::kOffload);
    EXPECT_LT(offload, dissemination) << nodes << " nodes";
    EXPECT_LT(offload, hier) << nodes << " nodes";
  }
}

TEST(CollEngine, HierBcastBeatsFlatOnMetaCluster) {
  ScopedEnv engine("MADMPI_ENGINE", "sharded");
  auto measure = [](BcastAlgorithm algorithm) {
    Session::Options options;
    // 256 ranks, misaligned: 3 clusters of 86/85/85 ranks on 6-rank nodes.
    options.cluster = misaligned_meta_cluster(256, 3, 6);
    Session session(std::move(options));
    usec_t elapsed = 0.0;
    session.run([&](Comm comm) {
      CollectiveConfig config;
      config.bcast = algorithm;
      comm.set_collective_config(config);
      std::vector<std::byte> payload(64 * 1024);
      comm.bcast(payload.data(), static_cast<int>(payload.size()),
                 Datatype::byte(), 0);  // warm-up
      comm.barrier();
      const usec_t t0 = comm.wtime_us();
      comm.bcast(payload.data(), static_cast<int>(payload.size()),
                 Datatype::byte(), 0);
      // Completion latency is the *slowest* rank's elapsed — the root's
      // own elapsed only covers its sends.
      usec_t local = comm.wtime_us() - t0;
      usec_t slowest = 0.0;
      comm.allreduce(&local, &slowest, 1, Datatype::float64(),
                     mpi::Op::max());
      if (comm.rank() == 0) elapsed = slowest;
    });
    return elapsed;
  };
  const usec_t flat = measure(BcastAlgorithm::kBinomial);
  const usec_t hier = measure(BcastAlgorithm::kHierarchical);
  EXPECT_LT(hier, flat);
}

// --- Nonblocking collectives -------------------------------------------

TEST(CollEngine, IcollsCompleteWithCorrectResults) {
  Session::Options options;
  options.cluster = meta_cluster(2, 2, 2);
  Session session(std::move(options));
  session.run([](Comm comm) {
    std::vector<int> bcast_data(777, comm.rank() == 2 ? 0 : -1);
    if (comm.rank() == 2) std::iota(bcast_data.begin(), bcast_data.end(), 3);
    mpi::Request bcast_req =
        comm.ibcast(bcast_data.data(), 777, Datatype::int32(), 2);

    std::vector<double> mine(33), total(33, -1.0);
    for (int i = 0; i < 33; ++i) mine[i] = comm.rank() + i;
    mpi::Request reduce_req = comm.iallreduce(
        mine.data(), total.data(), 33, Datatype::float64(), mpi::Op::sum());

    mpi::MpiStatus status = bcast_req.wait();
    EXPECT_EQ(status.error, ErrorCode::kOk);
    status = reduce_req.wait();
    EXPECT_EQ(status.error, ErrorCode::kOk);

    for (int i = 0; i < 777; ++i) ASSERT_EQ(bcast_data[i], 3 + i);
    const double n = comm.size();
    for (int i = 0; i < 33; ++i) {
      ASSERT_NEAR(total[i], n * (n - 1) / 2.0 + n * i, 1e-9);
    }

    mpi::Request barrier_req = comm.ibarrier();
    EXPECT_EQ(barrier_req.wait().error, ErrorCode::kOk);
  });
}

TEST(CollEngine, ConcurrentIcollsDoNotCrossMatch) {
  // Three operations in flight at once: the per-instance tags must keep
  // their wire traffic apart even though they share the collective
  // context.
  Session::Options options;
  options.cluster = meta_cluster(2, 2, 1);
  Session session(std::move(options));
  session.run([](Comm comm) {
    std::vector<std::int64_t> a(100), a_out(100), b(100), b_out(100);
    for (int i = 0; i < 100; ++i) {
      a[i] = comm.rank() * 2 + i;
      b[i] = comm.rank() * 3 - i;
    }
    std::vector<int> c(256, comm.rank() == 0 ? 11 : -1);
    mpi::Request ra = comm.iallreduce(a.data(), a_out.data(), 100,
                                      Datatype::int64(), mpi::Op::sum());
    mpi::Request rb = comm.iallreduce(b.data(), b_out.data(), 100,
                                      Datatype::int64(), mpi::Op::max());
    mpi::Request rc = comm.ibcast(c.data(), 256, Datatype::int32(), 0);
    // Complete in reverse start order.
    EXPECT_EQ(rc.wait().error, ErrorCode::kOk);
    EXPECT_EQ(rb.wait().error, ErrorCode::kOk);
    EXPECT_EQ(ra.wait().error, ErrorCode::kOk);
    const std::int64_t n = comm.size();
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(a_out[i], n * (n - 1) + n * i);
      ASSERT_EQ(b_out[i], (n - 1) * 3 - i);
    }
    for (int i = 0; i < 256; ++i) ASSERT_EQ(c[i], 11);
  });
}

TEST(CollEngine, SpinTestDrivesIcollProgress) {
  // Satellite pin: MPI_Test-style spin loops must complete on both
  // engines — Request::test yields the shard, so a fiber polling its own
  // i-coll cannot starve the peers that complete it (the sharded ctest
  // registration runs this same body under MADMPI_ENGINE=sharded).
  Session::Options options;
  options.cluster = meta_cluster(2, 2, 2);
  Session session(std::move(options));
  session.run([](Comm comm) {
    std::vector<int> mine(50), total(50, -1);
    for (int i = 0; i < 50; ++i) mine[i] = comm.rank() + i;
    mpi::Request req = comm.iallreduce(mine.data(), total.data(), 50,
                                       Datatype::int32(), mpi::Op::sum());
    mpi::MpiStatus status;
    while (!req.test(&status)) {
    }
    EXPECT_EQ(status.error, ErrorCode::kOk);
    const int n = comm.size();
    for (int i = 0; i < 50; ++i) ASSERT_EQ(total[i], n * (n - 1) / 2 + n * i);
  });
}

// --- Auto-tuner ---------------------------------------------------------

TEST(CollTuner, ProducesDeterministicValidTable) {
  // Exact run-to-run determinism holds exactly where the engine's replay
  // contract does: single-node topologies, where every transfer carries a
  // causal virtual stamp and no channel poller races the drain order. On
  // multi-node fabrics the probes are only statistically stable (min-of-
  // reps + decisive-margin hysteresis); MultiNodeTableIsValid covers that.
  auto tune_once = [] {
    Session::Options options;
    options.cluster =
        sim::ClusterSpec::homogeneous(1, sim::Protocol::kSisci, 8);
    Session session(std::move(options));
    session.run([](Comm comm) { mpi::tune_collectives(comm); });
    return session.coll_decision_table();
  };
  const mpi::CollDecisionTable first = tune_once();
  const mpi::CollDecisionTable second = tune_once();
  EXPECT_TRUE(first.valid);
  EXPECT_NE(first.serialize(), "untuned");
  EXPECT_EQ(first.serialize(), second.serialize());
}

TEST(CollTuner, MultiNodeTableIsValid) {
  Session::Options options;
  options.cluster = meta_cluster(2, 2, 2);
  Session session(std::move(options));
  session.run([](Comm comm) { mpi::tune_collectives(comm); });
  const mpi::CollDecisionTable table = session.coll_decision_table();
  EXPECT_TRUE(table.valid);
  EXPECT_NE(table.serialize(), "untuned");
}

TEST(CollTuner, TableDrivesAutoResolution) {
  Session::Options options;
  options.cluster = meta_cluster(2, 2, 2);
  Session session(std::move(options));
  session.run([](Comm comm) { mpi::tune_collectives(comm); });
  const mpi::CollDecisionTable table = session.coll_decision_table();
  ASSERT_TRUE(table.valid);
  session.run([&table](Comm comm) {
    EXPECT_EQ(comm.resolve_bcast(64), table.bcast_small);
    EXPECT_EQ(comm.resolve_bcast(1 << 20), table.bcast_large);
    EXPECT_EQ(comm.resolve_allreduce(64), table.allreduce_small);
    EXPECT_EQ(comm.resolve_allreduce(1 << 20), table.allreduce_large);
    EXPECT_EQ(comm.resolve_barrier(), table.barrier);
  });
}

TEST(CollTuner, EnvRunsTunerBeforeRankMain) {
  ScopedEnv tune_env("MADMPI_COLL_TUNE", "1");
  Session::Options options;
  options.cluster = meta_cluster(2, 2, 1);
  Session session(std::move(options));
  session.run([](Comm comm) {
    // rank_main starts with the table already installed.
    int one = 1, sum = 0;
    comm.allreduce(&one, &sum, 1, Datatype::int32(), mpi::Op::sum());
    EXPECT_EQ(sum, comm.size());
  });
  EXPECT_TRUE(session.coll_decision_table().valid);
}

// --- FT interop guard ---------------------------------------------------

TEST(CollEngine, FtModeResolvesToFlatSurvivablePath) {
  // Satellite pin: MADMPI_FT_COLLECTIVES=1 must force the flat survivable
  // algorithms regardless of topology, tuner table or explicit hierarchy
  // selection — the digest could diverge across ranks under faults, so FT
  // mode refuses it by construction.
  Session::Options options;
  options.cluster = meta_cluster(2, 2, 2);
  Session session(std::move(options));
  session.run([](Comm comm) {
    CollectiveConfig config;
    config.fault_tolerant = true;
    config.bcast = BcastAlgorithm::kHierarchical;
    config.allreduce = AllreduceAlgorithm::kHierarchical;
    config.barrier = BarrierAlgorithm::kOffload;
    comm.set_collective_config(config);
    EXPECT_EQ(comm.resolve_bcast(64 * 1024), BcastAlgorithm::kBinomial);
    EXPECT_EQ(comm.resolve_allreduce(64 * 1024),
              AllreduceAlgorithm::kReduceBcast);
    EXPECT_EQ(comm.resolve_barrier(), BarrierAlgorithm::kDissemination);
    // And the wrapped collective still delivers.
    std::vector<int> data(64, comm.rank() == 0 ? 9 : -1);
    comm.bcast(data.data(), 64, Datatype::int32(), 0);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(data[i], 9);
  });
}

}  // namespace
}  // namespace madmpi
