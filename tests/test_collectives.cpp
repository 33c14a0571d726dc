// Collective operation tests across communicator sizes and datatypes.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/session.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;
using mpi::Op;

/// Heterogeneous session covering smp_plug + all three networks when the
/// rank count allows; falls back to a TCP-only cluster for small counts.
std::unique_ptr<Session> world_of(int ranks) {
  Session::Options options;
  if (ranks >= 4 && ranks % 2 == 0) {
    options.cluster =
        sim::ClusterSpec::cluster_of_clusters(ranks / 4 + 1, ranks / 4 + 1);
    // Trim/adjust: distribute `ranks` across the nodes evenly-ish.
    int remaining = ranks;
    for (auto& node : options.cluster.nodes) {
      node.ranks = 0;
    }
    std::size_t i = 0;
    while (remaining > 0) {
      options.cluster.nodes[i % options.cluster.nodes.size()].ranks += 1;
      --remaining;
      ++i;
    }
    // Drop nodes that ended up with zero ranks? Keep them; they just idle.
    for (auto& node : options.cluster.nodes) {
      node.ranks = std::max(node.ranks, 1);
    }
  } else {
    options.cluster =
        sim::ClusterSpec::homogeneous(std::max(ranks, 2), sim::Protocol::kTcp);
  }
  return std::make_unique<Session>(std::move(options));
}

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, Barrier) {
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(GetParam(), sim::Protocol::kSisci);
  Session session(std::move(options));
  std::atomic<int> arrived{0};
  session.run([&](Comm comm) {
    ++arrived;
    comm.barrier();
    // Everyone must have arrived before anyone leaves.
    EXPECT_EQ(arrived.load(), comm.size());
    comm.barrier();
  });
}

TEST_P(CollectiveSizes, BcastFromEveryRoot) {
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(GetParam(), sim::Protocol::kBip);
  Session session(std::move(options));
  session.run([](Comm comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<int> data(16, comm.rank() == root ? root * 11 : -1);
      comm.bcast(data.data(), 16, Datatype::int32(), root);
      for (int v : data) ASSERT_EQ(v, root * 11);
    }
  });
}

TEST_P(CollectiveSizes, ReduceSumToEveryRoot) {
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(GetParam(), sim::Protocol::kSisci);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const int n = comm.size();
    for (int root = 0; root < n; ++root) {
      std::vector<std::int64_t> mine(8);
      for (std::size_t i = 0; i < mine.size(); ++i) {
        mine[i] = comm.rank() + static_cast<int>(i);
      }
      std::vector<std::int64_t> sum(8, -1);
      comm.reduce(mine.data(), sum.data(), 8, Datatype::int64(), Op::sum(),
                  root);
      if (comm.rank() == root) {
        const std::int64_t ranks_total = static_cast<std::int64_t>(n) *
                                         (n - 1) / 2;
        for (std::size_t i = 0; i < sum.size(); ++i) {
          ASSERT_EQ(sum[i],
                    ranks_total + static_cast<std::int64_t>(i) * n);
        }
      } else {
        for (auto v : sum) ASSERT_EQ(v, -1);  // untouched on non-roots
      }
    }
  });
}

TEST_P(CollectiveSizes, AllreduceMinMax) {
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(GetParam(), sim::Protocol::kTcp);
  Session session(std::move(options));
  session.run([](Comm comm) {
    double mine = 100.0 - comm.rank();
    double lo = 0.0, hi = 0.0;
    comm.allreduce(&mine, &lo, 1, Datatype::float64(), Op::min());
    comm.allreduce(&mine, &hi, 1, Datatype::float64(), Op::max());
    EXPECT_EQ(lo, 100.0 - (comm.size() - 1));
    EXPECT_EQ(hi, 100.0);
  });
}

TEST_P(CollectiveSizes, GatherScatterRoundTrip) {
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(GetParam(), sim::Protocol::kSisci);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const int n = comm.size();
    constexpr int kPer = 4;
    std::vector<int> mine(kPer, comm.rank());
    std::vector<int> gathered(static_cast<std::size_t>(kPer) * n, -1);
    comm.gather(mine.data(), kPer, Datatype::int32(), gathered.data(), kPer,
                Datatype::int32(), 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < n; ++r) {
        for (int j = 0; j < kPer; ++j) {
          ASSERT_EQ(gathered[static_cast<std::size_t>(r * kPer + j)], r);
        }
      }
      // Transform and scatter back.
      for (auto& v : gathered) v *= 10;
    }
    std::vector<int> back(kPer, -1);
    comm.scatter(gathered.data(), kPer, Datatype::int32(), back.data(), kPer,
                 Datatype::int32(), 0);
    for (int v : back) ASSERT_EQ(v, comm.rank() * 10);
  });
}

TEST_P(CollectiveSizes, AllgatherRing) {
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(GetParam(), sim::Protocol::kBip);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const int n = comm.size();
    std::array<int, 2> mine{comm.rank(), comm.rank() * comm.rank()};
    std::vector<int> all(static_cast<std::size_t>(2 * n), -1);
    comm.allgather(mine.data(), 2, Datatype::int32(), all.data(), 2,
                   Datatype::int32());
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(2 * r)], r);
      ASSERT_EQ(all[static_cast<std::size_t>(2 * r + 1)], r * r);
    }
  });
}

TEST_P(CollectiveSizes, AlltoallPairwise) {
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(GetParam(), sim::Protocol::kSisci);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const int n = comm.size();
    std::vector<int> out(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) out[d] = comm.rank() * 100 + d;
    std::vector<int> in(static_cast<std::size_t>(n), -1);
    comm.alltoall(out.data(), 1, Datatype::int32(), in.data(), 1,
                  Datatype::int32());
    for (int s = 0; s < n; ++s) {
      ASSERT_EQ(in[static_cast<std::size_t>(s)], s * 100 + comm.rank());
    }
  });
}

TEST_P(CollectiveSizes, InclusiveScan) {
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(GetParam(), sim::Protocol::kTcp);
  Session session(std::move(options));
  session.run([](Comm comm) {
    int mine = comm.rank() + 1;
    int prefix = 0;
    comm.scan(&mine, &prefix, 1, Datatype::int32(), Op::sum());
    EXPECT_EQ(prefix, (comm.rank() + 1) * (comm.rank() + 2) / 2);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes, ::testing::Values(2, 3, 5, 8),
                         [](const auto& info) {
                           return "ranks" + std::to_string(info.param);
                         });

TEST(Collectives, GathervRaggedBlocks) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kSisci);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const int mine_count = comm.rank() + 1;  // 1, 2, 3, 4 elements
    std::vector<int> mine(static_cast<std::size_t>(mine_count), comm.rank());
    std::vector<int> counts{1, 2, 3, 4};
    std::vector<int> displs{0, 2, 5, 9};  // with holes
    std::vector<int> out(14, -1);
    comm.gatherv(mine.data(), mine_count, Datatype::int32(), out.data(),
                 counts, displs, Datatype::int32(), 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(out[0], 0);
      EXPECT_EQ(out[1], -1);  // hole
      EXPECT_EQ(out[2], 1);
      EXPECT_EQ(out[3], 1);
      EXPECT_EQ(out[5], 2);
      EXPECT_EQ(out[9], 3);
      EXPECT_EQ(out[12], 3);
      EXPECT_EQ(out[13], -1);
    }
  });
}

TEST(Collectives, ScattervRaggedBlocks) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(3, sim::Protocol::kTcp);
  Session session(std::move(options));
  session.run([](Comm comm) {
    std::vector<int> counts{3, 1, 2};
    std::vector<int> displs{0, 4, 6};
    std::vector<int> source;
    if (comm.rank() == 0) {
      source = {10, 11, 12, -1, 20, -1, 30, 31};
    }
    std::vector<int> mine(static_cast<std::size_t>(counts[comm.rank()]), -9);
    comm.scatterv(source.data(), counts, displs, Datatype::int32(),
                  mine.data(), counts[comm.rank()], Datatype::int32(), 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(mine, (std::vector<int>{10, 11, 12}));
    } else if (comm.rank() == 1) {
      EXPECT_EQ(mine, (std::vector<int>{20}));
    } else {
      EXPECT_EQ(mine, (std::vector<int>{30, 31}));
    }
  });
}

TEST(Collectives, AllgathervRagged) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(3, sim::Protocol::kBip);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const int mine_count = 3 - comm.rank();  // 3, 2, 1
    std::vector<double> mine(static_cast<std::size_t>(mine_count),
                             comm.rank() + 0.5);
    std::vector<int> counts{3, 2, 1};
    std::vector<int> displs{0, 3, 5};
    std::vector<double> all(6, -1.0);
    comm.allgatherv(mine.data(), mine_count, Datatype::float64(), all.data(),
                    counts, displs, Datatype::float64());
    EXPECT_EQ(all, (std::vector<double>{0.5, 0.5, 0.5, 1.5, 1.5, 2.5}));
  });
}

TEST(Collectives, ReduceScatterBlock) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kSisci);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const int n = comm.size();
    constexpr int kPer = 2;
    std::vector<int> contribution(static_cast<std::size_t>(kPer * n));
    for (int i = 0; i < kPer * n; ++i) {
      contribution[static_cast<std::size_t>(i)] = comm.rank() + i;
    }
    std::vector<int> mine(kPer, -1);
    comm.reduce_scatter_block(contribution.data(), mine.data(), kPer,
                              Datatype::int32(), Op::sum());
    const int rank_sum = n * (n - 1) / 2;
    for (int j = 0; j < kPer; ++j) {
      const int slot = comm.rank() * kPer + j;
      ASSERT_EQ(mine[static_cast<std::size_t>(j)], rank_sum + slot * n);
    }
  });
}

TEST(Collectives, UserOpInAllreduce) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kTcp);
  Session session(std::move(options));
  session.run([](Comm comm) {
    // (max, location) pairs via a user op.
    auto maxloc = Op::user([](const void* in, void* inout, int count,
                              const mpi::Datatype&) {
      const auto* a = static_cast<const double*>(in);
      auto* b = static_cast<double*>(inout);
      for (int i = 0; i < count; ++i) {
        if (a[2 * i] > b[2 * i]) {
          b[2 * i] = a[2 * i];
          b[2 * i + 1] = a[2 * i + 1];
        }
      }
    });
    // Rank 2 holds the max.
    double mine[2] = {comm.rank() == 2 ? 99.0 : 1.0 * comm.rank(),
                      1.0 * comm.rank()};
    double best[2] = {-1, -1};
    comm.allreduce(mine, best, 1,
                   Datatype::contiguous(2, Datatype::float64()), maxloc);
    EXPECT_EQ(best[0], 99.0);
    EXPECT_EQ(best[1], 2.0);
  });
}

TEST(Collectives, BcastDerivedDatatype) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(3, sim::Protocol::kSisci);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const auto evens = Datatype::vector(4, 1, 2, Datatype::int32());
    std::vector<int> data(8, -1);
    if (comm.rank() == 0) {
      for (int i = 0; i < 8; ++i) data[static_cast<std::size_t>(i)] = i;
    }
    comm.bcast(data.data(), 1, evens, 0);
    EXPECT_EQ(data[0], 0);
    EXPECT_EQ(data[2], 2);
    EXPECT_EQ(data[4], 4);
    EXPECT_EQ(data[6], 6);
    if (comm.rank() != 0) {
      EXPECT_EQ(data[1], -1);  // odd slots never transmitted
    }
  });
}

TEST(Collectives, BlockCollectivesWithStridedDatatypes) {
  // `pair` packs ints 0 and 2 of a 3-int element: int 1 of every element
  // is a hole the collectives must neither send nor overwrite. Each call
  // runs strided on both sides, then strided on one side against a
  // contiguous int32 x 2 on the other (the pack-once / unpack-once paths).
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kSisci);
  Session session(std::move(options));
  session.run([](Comm comm) {
    const auto pair = Datatype::vector(2, 1, 2, Datatype::int32());
    const auto ints = Datatype::int32();
    const int n = comm.size();
    const int me = comm.rank();
    constexpr int kHole = -1;
    // Rank `from`'s block for rank `to`: {v, v + 1}, v = 100 from + 10 to.
    auto value = [](int from, int to) { return 100 * from + 10 * to; };
    // `blocks` strided elements, element p holding block(p).
    auto strided = [&](int blocks, auto block) {
      std::vector<int> buf(static_cast<std::size_t>(3 * blocks), kHole);
      for (int p = 0; p < blocks; ++p) {
        buf[static_cast<std::size_t>(3 * p)] = block(p);
        buf[static_cast<std::size_t>(3 * p + 2)] = block(p) + 1;
      }
      return buf;
    };
    auto dense = [&](int blocks, auto block) {
      std::vector<int> buf;
      for (int p = 0; p < blocks; ++p) {
        buf.push_back(block(p));
        buf.push_back(block(p) + 1);
      }
      return buf;
    };
    auto holes = [&](int blocks) {
      return strided(blocks, [](int) { return kHole; });
    };
    const int root = 2;
    auto own = [&](int) { return value(me, root); };
    auto to_each = [&](int p) { return value(me, p); };
    auto from_each_to_me = [&](int p) { return value(p, me); };
    auto from_each_to_root = [&](int p) { return value(p, root); };

    for (bool dense_recv : {false, true}) {
      const Datatype& recv_type = dense_recv ? ints : pair;
      const int per_block = dense_recv ? 2 : 1;
      auto expected = [&](int blocks, auto block) {
        return dense_recv ? dense(blocks, block) : strided(blocks, block);
      };
      auto empty = [&](int blocks) {
        if (!dense_recv) return holes(blocks);
        return std::vector<int>(static_cast<std::size_t>(2 * blocks), kHole);
      };

      std::vector<int> send = strided(1, own);
      std::vector<int> recv = empty(n);
      ASSERT_TRUE(comm.gather(send.data(), 1, pair, recv.data(), per_block,
                              recv_type, root)
                      .is_ok());
      if (me == root) {
        EXPECT_EQ(recv, expected(n, from_each_to_root)) << "gather";
      }

      send = me == root ? strided(n, [&](int p) { return value(root, p); })
                        : std::vector<int>{};
      recv = empty(1);
      ASSERT_TRUE(comm.scatter(send.data(), 1, pair, recv.data(), per_block,
                               recv_type, root)
                      .is_ok());
      EXPECT_EQ(recv, expected(1, [&](int) { return value(root, me); }))
          << "scatter";

      send = strided(1, own);
      recv = empty(n);
      ASSERT_TRUE(comm.allgather(send.data(), 1, pair, recv.data(),
                                 per_block, recv_type)
                      .is_ok());
      EXPECT_EQ(recv, expected(n, from_each_to_root)) << "allgather";

      send = strided(n, to_each);
      recv = empty(n);
      ASSERT_TRUE(comm.alltoall(send.data(), 1, pair, recv.data(), per_block,
                                recv_type)
                      .is_ok());
      EXPECT_EQ(recv, expected(n, from_each_to_me)) << "alltoall";
    }

    // Contiguous send side against a strided receive side.
    std::vector<int> send = dense(n, to_each);
    std::vector<int> recv = holes(n);
    ASSERT_TRUE(
        comm.alltoall(send.data(), 2, ints, recv.data(), 1, pair).is_ok());
    EXPECT_EQ(recv, strided(n, from_each_to_me)) << "alltoall dense->strided";
  });
}

TEST(Collectives, LargePayloadAllreduceOnHeterogeneousCluster) {
  auto session = world_of(6);
  session->run([](Comm comm) {
    constexpr int kCount = 32 * 1024;  // rendezvous territory
    std::vector<double> mine(kCount, 1.0);
    std::vector<double> total(kCount, 0.0);
    comm.allreduce(mine.data(), total.data(), kCount, Datatype::float64(),
                   Op::sum());
    for (double v : total) ASSERT_EQ(v, static_cast<double>(comm.size()));
  });
}

}  // namespace
}  // namespace madmpi
