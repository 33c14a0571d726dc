// Stress and robustness: concurrency storms, queue floods, lifecycle
// churn, cross-layer concurrent use.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>

#include "common/rng.hpp"
#include "core/session.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;

/// Seed for the randomized stress streams. Deterministic by default so a
/// failure reproduces, overridable (MADMPI_STRESS_SEED=n) so sweeps can
/// explore other size patterns; always echoed through SCOPED_TRACE so a
/// red run records which stream it was on.
std::uint64_t stress_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("MADMPI_STRESS_SEED");
    if (env != nullptr && *env != '\0') {
      return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
    }
    return static_cast<std::uint64_t>(777);
  }();
  return seed;
}

TEST(Stress, RandomTrafficStormOnHeterogeneousCluster) {
  // 12 ranks across SCI/Myrinet/TCP + smp_plug; every rank sends a
  // checksummed random-size message to every other rank per round.
  SCOPED_TRACE("MADMPI_STRESS_SEED=" + std::to_string(stress_seed()));
  Session::Options options;
  options.cluster = sim::ClusterSpec::cluster_of_clusters(2, 2, 3);
  Session session(std::move(options));
  constexpr int kRounds = 5;

  session.run([](Comm comm) {
    const int n = comm.size();
    // Same stream on every rank: sizes are globally agreed.
    Rng rng(stress_seed());
    for (int round = 0; round < kRounds; ++round) {
      // sizes[src][dst]
      std::vector<std::vector<std::size_t>> sizes(
          static_cast<std::size_t>(n),
          std::vector<std::size_t>(static_cast<std::size_t>(n)));
      for (auto& row : sizes) {
        for (auto& size : row) size = rng.next_range(1, 30000);
      }

      std::vector<std::vector<std::uint8_t>> inbox(
          static_cast<std::size_t>(n));
      std::vector<mpi::Request> recvs;
      for (int src = 0; src < n; ++src) {
        if (src == comm.rank()) continue;
        auto& buffer = inbox[static_cast<std::size_t>(src)];
        buffer.resize(sizes[static_cast<std::size_t>(src)]
                           [static_cast<std::size_t>(comm.rank())]);
        recvs.push_back(comm.irecv(buffer.data(),
                                   static_cast<int>(buffer.size()),
                                   Datatype::uint8(), src, round));
      }
      for (int dst = 0; dst < n; ++dst) {
        if (dst == comm.rank()) continue;
        const std::size_t bytes =
            sizes[static_cast<std::size_t>(comm.rank())]
                 [static_cast<std::size_t>(dst)];
        std::vector<std::uint8_t> payload(bytes);
        for (std::size_t i = 0; i < bytes; ++i) {
          payload[i] = static_cast<std::uint8_t>(
              (comm.rank() * 31 + dst * 7 + static_cast<int>(i)) & 0xff);
        }
        comm.send(payload.data(), static_cast<int>(bytes), Datatype::uint8(),
                  dst, round);
      }
      mpi::Request::wait_all(recvs);
      for (int src = 0; src < n; ++src) {
        if (src == comm.rank()) continue;
        const auto& buffer = inbox[static_cast<std::size_t>(src)];
        for (std::size_t i = 0; i < buffer.size(); ++i) {
          ASSERT_EQ(buffer[i],
                    static_cast<std::uint8_t>(
                        (src * 31 + comm.rank() * 7 + static_cast<int>(i)) &
                        0xff))
              << "round " << round << " src " << src << " byte " << i
              << " (MADMPI_STRESS_SEED=" << stress_seed() << ")";
        }
      }
    }
  });
}

TEST(Stress, ConcurrentCollectivesOnDisjointComms) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(8, sim::Protocol::kSisci);
  Session session(std::move(options));
  session.run([](Comm comm) {
    // Four pairs, each spinning its own allreduce loop concurrently.
    Comm pair = comm.split(comm.rank() / 2, comm.rank());
    for (int round = 0; round < 50; ++round) {
      int mine = comm.rank() * 1000 + round;
      int sum = 0;
      pair.allreduce(&mine, &sum, 1, Datatype::int32(), mpi::Op::sum());
      const int partner = (comm.rank() ^ 1) * 1000 + round;
      ASSERT_EQ(sum, mine + partner);
    }
  });
}

TEST(Stress, UnexpectedQueueFlood) {
  // Rank 0 floods rank 1 with 500 eager messages before any receive is
  // posted; matching must drain them in order afterwards.
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kBip);
  Session session(std::move(options));
  static constexpr int kFlood = 500;
  session.run([](Comm comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kFlood; ++i) {
        comm.send(&i, 1, Datatype::int32(), 1, 4);
      }
      int done = 0;
      comm.recv(&done, 1, Datatype::int32(), 1, 5);
      EXPECT_EQ(done, kFlood);
    } else {
      // Wait until the flood has landed unexpected.
      while (!comm.iprobe(0, 4)) {
      }
      int count = 0;
      for (int i = 0; i < kFlood; ++i) {
        int value = -1;
        comm.recv(&value, 1, Datatype::int32(), 0, 4);
        ASSERT_EQ(value, i);  // non-overtaking through the unexpected queue
        ++count;
      }
      comm.send(&count, 1, Datatype::int32(), 0, 5);
    }
  });
}

TEST(Stress, SessionLifecycleChurn) {
  for (int cycle = 0; cycle < 10; ++cycle) {
    Session::Options options;
    options.cluster = sim::ClusterSpec::cluster_of_clusters(2, 2);
    Session session(std::move(options));
    session.run([cycle](Comm comm) {
      int mine = comm.rank() + cycle;
      int sum = 0;
      comm.allreduce(&mine, &sum, 1, Datatype::int32(), mpi::Op::sum());
      EXPECT_EQ(sum, 0 + 1 + 2 + 3 + 4 * cycle);
    });
  }  // destructor: TERM broadcast + poller join, 10x
}

TEST(Stress, RawChannelAndMpiTrafficConcurrently) {
  // A raw Madeleine channel streams blocks while MPI collectives run over
  // the same physical network — channel isolation under load.
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  Session session(std::move(options));
  mad::Channel& raw = session.open_raw_channel();

  std::atomic<int> raw_received{0};
  std::thread raw_receiver([&] {
    for (int i = 0; i < 100; ++i) {
      auto incoming = raw.at(1)->begin_unpacking();
      ASSERT_TRUE(incoming.has_value());
      int seq = -1;
      incoming->unpack(&seq, sizeof seq, mad::SendMode::kSafer,
                       mad::RecvMode::kExpress);
      incoming->end_unpacking();
      ASSERT_EQ(seq, i);
      ++raw_received;
    }
  });
  std::thread raw_sender([&] {
    for (int i = 0; i < 100; ++i) {
      mad::Packing packing = raw.at(0)->begin_packing(1);
      packing.pack(&i, sizeof i, mad::SendMode::kSafer,
                   mad::RecvMode::kExpress);
      packing.end_packing();
    }
  });

  session.run([](Comm comm) {
    for (int round = 0; round < 20; ++round) {
      double mine = comm.rank() + round;
      double sum = 0.0;
      comm.allreduce(&mine, &sum, 1, Datatype::float64(), mpi::Op::sum());
      ASSERT_EQ(sum, 1.0 + 2 * round);
    }
  });
  raw_sender.join();
  raw_receiver.join();
  EXPECT_EQ(raw_received.load(), 100);
}

TEST(Stress, ManyCommunicatorsActiveAtOnce) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kTcp);
  Session session(std::move(options));
  session.run([](Comm comm) {
    std::vector<Comm> comms;
    for (int i = 0; i < 16; ++i) comms.push_back(comm.dup());
    // Interleave traffic over all of them; contexts must never cross.
    const int peer = comm.rank() ^ 1;
    std::vector<mpi::Request> recvs;
    std::vector<int> in(16, -1);
    for (int i = 0; i < 16; ++i) {
      recvs.push_back(comms[static_cast<std::size_t>(i)].irecv(
          &in[static_cast<std::size_t>(i)], 1, Datatype::int32(), peer, 0));
    }
    for (int i = 15; i >= 0; --i) {  // send in reverse comm order
      int value = i * 100 + comm.rank();
      comms[static_cast<std::size_t>(i)].send(&value, 1, Datatype::int32(),
                                              peer, 0);
    }
    mpi::Request::wait_all(recvs);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(in[static_cast<std::size_t>(i)], i * 100 + peer);
    }
  });
}

TEST(Stress, StatsReportAfterTraffic) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::cluster_of_clusters(2, 2);
  Session session(std::move(options));
  session.run([](Comm comm) {
    // Separate buffers: MPI forbids receiving into a buffer an active send
    // still reads (the rendezvous push lends `out` to the wire).
    std::vector<std::byte> out(20000);
    std::vector<std::byte> in(20000);
    const int peer = (comm.rank() + 1) % comm.size();
    const int from = (comm.rank() - 1 + comm.size()) % comm.size();
    auto req = comm.irecv(in.data(), 20000, Datatype::byte(), from, 0);
    comm.send(out.data(), 20000, Datatype::byte(), peer, 0);
    req.wait();
  });
  // Aggregate counters must reflect the ring (4 data messages + protocol).
  std::uint64_t total_messages = 0;
  for (mad::Channel* channel : session.madeleine().channels()) {
    total_messages += channel->traffic().messages_sent;
  }
  EXPECT_GE(total_messages, 4u);
  // And the report renders without issue.
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  session.print_stats(sink);
  EXPECT_GT(std::ftell(sink), 0);
  std::fclose(sink);
}

}  // namespace
}  // namespace madmpi
