// One-sided communication over the zero-copy datapath: windows,
// put/get/accumulate, fence and lock/unlock epochs, heterogeneous peers —
// plus regression tests for the MPI_Get_count zero-size-datatype edge, the
// negative MPI_Comm_split color, and recoverable stream truncation.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/datapath_stats.hpp"
#include "core/session.hpp"
#include "harness.hpp"
#include "mad/madeleine.hpp"
#include "mpi/compat.hpp"
#include "mpi/win.hpp"
#include "sim/sched.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;
using mpi::RmaLockType;
using mpi::RmaOp;
using mpi::RmaType;
using mpi::Win;

std::unique_ptr<Session> pair_session(sim::Protocol protocol) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, protocol);
  return std::make_unique<Session>(std::move(options));
}

// ----------------------------------------------------------- active target

TEST(Rma, PutVisibleAfterFence) {
  auto session = pair_session(sim::Protocol::kSisci);
  session->run([&](Comm comm) {
    Win win = Win::allocate(comm, 256);
    ASSERT_TRUE(win.valid());
    EXPECT_EQ(win.size(), 256u);

    ASSERT_TRUE(win.fence().is_ok());
    std::vector<std::uint8_t> payload(64);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 3 + 1);
      }
      EXPECT_TRUE(win.put(payload.data(), static_cast<int>(payload.size()),
                          RmaType::kUint8, 1, 0)
                      .is_ok());
    }
    ASSERT_TRUE(win.fence().is_ok());
    if (comm.rank() == 1) {
      EXPECT_EQ(win.puts_applied(), 1u);
      const auto* exposed =
          reinterpret_cast<const std::uint8_t*>(win.base());
      for (std::size_t i = 0; i < payload.size(); ++i) {
        ASSERT_EQ(exposed[i], static_cast<std::uint8_t>(i * 3 + 1)) << i;
      }
      // Untouched remainder stays zeroed (Win::allocate zero-fills).
      EXPECT_EQ(exposed[64], 0u);
    }
    EXPECT_TRUE(win.free().is_ok());
  });
}

TEST(Rma, GetRoundtrip) {
  auto session = pair_session(sim::Protocol::kTcp);
  session->run([&](Comm comm) {
    Win win = Win::allocate(comm, 128);
    if (comm.rank() == 1) {
      // Local stores into one's own exposed window need no epoch.
      std::int32_t values[4] = {11, -22, 33, -44};
      std::memcpy(win.base(), values, sizeof values);
    }
    ASSERT_TRUE(win.fence().is_ok());
    std::int32_t fetched[4] = {0, 0, 0, 0};
    if (comm.rank() == 0) {
      ASSERT_TRUE(win.get(fetched, 4, RmaType::kInt32, 1, 0).is_ok());
    }
    ASSERT_TRUE(win.fence().is_ok());  // completes the get
    if (comm.rank() == 0) {
      EXPECT_EQ(fetched[0], 11);
      EXPECT_EQ(fetched[1], -22);
      EXPECT_EQ(fetched[2], 33);
      EXPECT_EQ(fetched[3], -44);
    }
    EXPECT_TRUE(win.free().is_ok());
  });
}

TEST(Rma, AccumulateSumAndReplace) {
  auto session = pair_session(sim::Protocol::kSisci);
  session->run([&](Comm comm) {
    Win win = Win::allocate(comm, 64);
    ASSERT_TRUE(win.fence().is_ok());
    if (comm.rank() == 0) {
      std::int32_t addend = 40;
      EXPECT_TRUE(
          win.accumulate(&addend, 1, RmaType::kInt32, RmaOp::kSum, 1, 0)
              .is_ok());
      addend = 2;
      EXPECT_TRUE(
          win.accumulate(&addend, 1, RmaType::kInt32, RmaOp::kSum, 1, 0)
              .is_ok());
      const double replaced = 2.5;
      EXPECT_TRUE(win.accumulate(&replaced, 1, RmaType::kFloat64,
                                 RmaOp::kReplace, 1, 8)
                      .is_ok());
    }
    ASSERT_TRUE(win.fence().is_ok());
    if (comm.rank() == 1) {
      EXPECT_EQ(win.accumulates_applied(), 3u);
      std::int32_t sum = 0;
      std::memcpy(&sum, win.base(), sizeof sum);
      EXPECT_EQ(sum, 42);  // window starts zeroed: 0 + 40 + 2
      double stored = 0.0;
      std::memcpy(&stored, win.base() + 8, sizeof stored);
      EXPECT_EQ(stored, 2.5);
    }
    EXPECT_TRUE(win.free().is_ok());
  });
}

// Host bytes copied by one get of `bytes` over an SCI pair, from before the
// request to after the fence that completes it.
std::uint64_t bytes_copied_by_one_get(std::size_t bytes) {
  auto session = pair_session(sim::Protocol::kSisci);
  std::uint64_t copied = 0;
  session->run([&](Comm comm) {
    Win win = Win::allocate(comm, bytes);
    std::vector<std::uint8_t> fetched(bytes);
    ASSERT_TRUE(win.fence().is_ok());
    ASSERT_TRUE(comm.barrier().is_ok());
    const auto before = DatapathStats::global().snapshot();
    ASSERT_TRUE(comm.barrier().is_ok());
    if (comm.rank() == 0) {
      ASSERT_TRUE(win.get(fetched.data(), static_cast<int>(bytes),
                          RmaType::kUint8, 1, 0)
                      .is_ok());
    }
    ASSERT_TRUE(win.fence().is_ok());
    ASSERT_TRUE(comm.barrier().is_ok());
    if (comm.rank() == 0) {
      copied = (DatapathStats::global().snapshot() - before).bytes_copied;
    }
    EXPECT_TRUE(win.free().is_ok());
  });
  return copied;
}

TEST(Rma, GetReplyTravelsByReference) {
  // The target snapshots the window range into a pooled chunk and lends
  // that chunk to the wire; the origin copies it into the get buffer. Two
  // copies, no staging in between.
  EXPECT_EQ(bytes_copied_by_one_get(4096), 8192u);
  // SCI carries blocks of 64 B or less inline in the control frame, which
  // is a copy of its own.
  EXPECT_EQ(bytes_copied_by_one_get(32), 96u);
}

// ---------------------------------------------------------- passive target

TEST(Rma, LockUnlockExclusiveRemote) {
  auto session = pair_session(sim::Protocol::kTcp);
  session->run([&](Comm comm) {
    Win win = Win::allocate(comm, 64);
    if (comm.rank() == 0) {
      ASSERT_TRUE(win.lock(RmaLockType::kExclusive, 1).is_ok());
      const std::int64_t value = 0x0123456789abcdefLL;
      EXPECT_TRUE(win.put(&value, 1, RmaType::kInt64, 1, 0).is_ok());
      ASSERT_TRUE(win.unlock(1).is_ok());
    }
    // unlock() returning means the put has been applied at the target; the
    // barrier sequences rank 1's read behind rank 0's unlock.
    ASSERT_TRUE(comm.barrier().is_ok());
    if (comm.rank() == 1) {
      std::int64_t stored = 0;
      std::memcpy(&stored, win.base(), sizeof stored);
      EXPECT_EQ(stored, 0x0123456789abcdefLL);
      EXPECT_EQ(win.puts_applied(), 1u);
    }
    EXPECT_TRUE(win.free().is_ok());
  });
}

TEST(Rma, LockSelfSameNodePath) {
  auto session = pair_session(sim::Protocol::kTcp);
  session->run([&](Comm comm) {
    Win win = Win::allocate(comm, 64);
    // Same-node (here: self) lock and put go through the direct host-store
    // path — no wire traffic, still epoch-checked.
    ASSERT_TRUE(win.lock(RmaLockType::kExclusive, comm.rank()).is_ok());
    const std::int32_t value = 7 + comm.rank();
    EXPECT_TRUE(
        win.put(&value, 1, RmaType::kInt32, comm.rank(), 16).is_ok());
    ASSERT_TRUE(win.unlock(comm.rank()).is_ok());
    std::int32_t stored = 0;
    std::memcpy(&stored, win.base() + 16, sizeof stored);
    EXPECT_EQ(stored, 7 + comm.rank());
    EXPECT_TRUE(win.free().is_ok());
  });
}

// ------------------------------------------------------------ heterogeneity

TEST(Rma, HeterogeneousPutAndAccumulate) {
  // Node 1 is big-endian: its puts stage-and-swap at the origin, and every
  // payload it receives is swapped back on landing — values survive both
  // directions (receiver-makes-right, same convention as two-sided).
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  options.cluster.nodes[1].big_endian = true;
  Session session(std::move(options));
  session.run([&](Comm comm) {
    Win win = Win::allocate(comm, 256);
    if (comm.rank() == 0) {
      const std::int32_t seed = 37;  // rank 1 accumulates onto this
      std::memcpy(win.base() + 128, &seed, sizeof seed);
    }
    ASSERT_TRUE(win.fence().is_ok());
    const std::int32_t out[3] = {0x01020304, -7, 1 << 30};
    if (comm.rank() == 0) {
      // Little-endian origin, big-endian target.
      EXPECT_TRUE(win.put(out, 3, RmaType::kInt32, 1, 0).is_ok());
    } else {
      // Big-endian origin, little-endian target — put and accumulate.
      EXPECT_TRUE(win.put(out, 3, RmaType::kInt32, 0, 64).is_ok());
      const std::int32_t addend = 5;
      EXPECT_TRUE(
          win.accumulate(&addend, 1, RmaType::kInt32, RmaOp::kSum, 0, 128)
              .is_ok());
    }
    ASSERT_TRUE(win.fence().is_ok());
    std::int32_t in[3] = {0, 0, 0};
    const std::size_t offset = comm.rank() == 0 ? 64 : 0;
    std::memcpy(in, win.base() + offset, sizeof in);
    EXPECT_EQ(in[0], 0x01020304);
    EXPECT_EQ(in[1], -7);
    EXPECT_EQ(in[2], 1 << 30);
    if (comm.rank() == 0) {
      std::int32_t sum = 0;
      std::memcpy(&sum, win.base() + 128, sizeof sum);
      EXPECT_EQ(sum, 42);  // 37 + 5, applied in host order
    }
    EXPECT_TRUE(win.free().is_ok());
  });
}

std::unique_ptr<Session> big_endian_pair_session() {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  options.cluster.nodes[1].big_endian = true;
  return std::make_unique<Session>(std::move(options));
}

TEST(Rma, HeterogeneousGetBothDirections) {
  // A get reply travels in the target's order and the origin converts:
  // each rank reads the other's window, one direction big-endian to
  // little-endian and the other the reverse.
  auto session = big_endian_pair_session();
  session->run([&](Comm comm) {
    Win win = Win::allocate(comm, 64);
    const std::int64_t mine[2] = {0x0102030405060708LL + comm.rank(),
                                  -9 - comm.rank()};
    std::memcpy(win.base(), mine, sizeof mine);
    ASSERT_TRUE(win.fence().is_ok());
    const int peer = 1 - comm.rank();
    std::int64_t fetched[2] = {0, 0};
    ASSERT_TRUE(win.get(fetched, 2, RmaType::kInt64, peer, 0).is_ok());
    ASSERT_TRUE(win.fence().is_ok());
    EXPECT_EQ(fetched[0], 0x0102030405060708LL + peer);
    EXPECT_EQ(fetched[1], -9 - peer);
    EXPECT_TRUE(win.free().is_ok());
  });
}

TEST(Rma, ReplaceAccumulateFromBigEndianOrigin) {
  // MPI_REPLACE from a big-endian origin stores host-order values, like a
  // put, and counts as an accumulate.
  auto session = big_endian_pair_session();
  session->run([&](Comm comm) {
    Win win = Win::allocate(comm, 64);
    ASSERT_TRUE(win.fence().is_ok());
    const std::int32_t ints[3] = {0x01020304, -7, 1 << 30};
    const double real = -2.75;
    if (comm.rank() == 1) {
      EXPECT_TRUE(win.accumulate(ints, 3, RmaType::kInt32, RmaOp::kReplace,
                                 0, 0)
                      .is_ok());
      EXPECT_TRUE(win.accumulate(&real, 1, RmaType::kFloat64,
                                 RmaOp::kReplace, 0, 16)
                      .is_ok());
    }
    ASSERT_TRUE(win.fence().is_ok());
    if (comm.rank() == 0) {
      EXPECT_EQ(win.accumulates_applied(), 2u);
      EXPECT_EQ(win.puts_applied(), 0u);
      std::int32_t in[3] = {0, 0, 0};
      std::memcpy(in, win.base(), sizeof in);
      EXPECT_EQ(in[0], 0x01020304);
      EXPECT_EQ(in[1], -7);
      EXPECT_EQ(in[2], 1 << 30);
      double stored = 0.0;
      std::memcpy(&stored, win.base() + 16, sizeof stored);
      EXPECT_EQ(stored, -2.75);
    }
    EXPECT_TRUE(win.free().is_ok());
  });
}

// --------------------------------------------------------------- same node

TEST(Rma, PutAccumulateGetBetweenRanksOfOneNode) {
  // Ranks 0 and 1 share node 0 (ranks 2 and 3 node 1): their one-sided
  // traffic is a host store under the window lock, never a packet.
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci, 2);
  Session session(std::move(options));
  session.run([&](Comm comm) {
    Win win = Win::allocate(comm, 64);
    ASSERT_TRUE(win.fence().is_ok());
    if (comm.rank() == 0) {
      const std::int32_t values[2] = {17, -3};
      EXPECT_TRUE(win.put(values, 2, RmaType::kInt32, 1, 0).is_ok());
      const std::int32_t addend = 25;
      EXPECT_TRUE(
          win.accumulate(&addend, 1, RmaType::kInt32, RmaOp::kSum, 1, 0)
              .is_ok());
      const double replaced = 0.5;
      EXPECT_TRUE(win.accumulate(&replaced, 1, RmaType::kFloat64,
                                 RmaOp::kReplace, 1, 8)
                      .is_ok());
    }
    ASSERT_TRUE(win.fence().is_ok());
    std::int32_t fetched[2] = {0, 0};
    double fetched_real = 0.0;
    if (comm.rank() == 0) {
      ASSERT_TRUE(win.get(fetched, 2, RmaType::kInt32, 1, 0).is_ok());
      ASSERT_TRUE(win.get(&fetched_real, 1, RmaType::kFloat64, 1, 8).is_ok());
    }
    ASSERT_TRUE(win.fence().is_ok());
    if (comm.rank() == 0) {
      EXPECT_EQ(fetched[0], 42);  // 17 + 25
      EXPECT_EQ(fetched[1], -3);
      EXPECT_EQ(fetched_real, 0.5);
    }
    if (comm.rank() == 1) {
      EXPECT_EQ(win.puts_applied(), 1u);
      EXPECT_EQ(win.accumulates_applied(), 2u);
    }
    EXPECT_TRUE(win.free().is_ok());
  });
}

// -------------------------------------------------------------- forwarding

TEST(Rma, PutGetAndFenceAcrossAGateway) {
  // a0 and b0 share no network: every one-sided packet (the put, the get
  // and its reply, the fence sync and its ack) is relayed by gw.
  sim::ClusterSpec spec;
  for (const char* name : {"a0", "gw", "b0"}) {
    sim::NodeSpec node;
    node.name = name;
    spec.nodes.push_back(node);
  }
  spec.networks.push_back({sim::Protocol::kSisci, 0, {"a0", "gw"}});
  spec.networks.push_back({sim::Protocol::kBip, 0, {"gw", "b0"}});
  Session::Options options;
  options.cluster = spec;
  options.enable_forwarding = true;
  Session session(std::move(options));
  session.run([&](Comm comm) {
    Win win = Win::allocate(comm, 4096);
    if (comm.rank() == 2) {
      for (int i = 0; i < 256; ++i) {
        const std::int32_t value = 1000 + i;
        std::memcpy(win.base() + 1024 + 4 * i, &value, sizeof value);
      }
    }
    ASSERT_TRUE(win.fence().is_ok());
    std::vector<std::int32_t> out(256), in(256, 0);
    if (comm.rank() == 0) {
      for (int i = 0; i < 256; ++i) out[i] = 3 * i - 100;
      EXPECT_TRUE(win.put(out.data(), 256, RmaType::kInt32, 2, 0).is_ok());
      EXPECT_TRUE(win.get(in.data(), 256, RmaType::kInt32, 2, 1024).is_ok());
    }
    ASSERT_TRUE(win.fence().is_ok());
    if (comm.rank() == 0) {
      for (int i = 0; i < 256; ++i) ASSERT_EQ(in[i], 1000 + i) << i;
    }
    if (comm.rank() == 2) {
      EXPECT_EQ(win.puts_applied(), 1u);
      std::vector<std::int32_t> landed(256);
      std::memcpy(landed.data(), win.base(), 4 * landed.size());
      for (int i = 0; i < 256; ++i) ASSERT_EQ(landed[i], 3 * i - 100) << i;
    }
    EXPECT_TRUE(win.free().is_ok());
  });
  EXPECT_GE(session.ch_mad()->forwarded(), 4u);
}

// ------------------------------------------------------------ error paths

TEST(Rma, WindowBoundsAndBadTargetAreRefused) {
  auto session = pair_session(sim::Protocol::kTcp);
  session->run([&](Comm comm) {
    Win win = Win::allocate(comm, 64);
    ASSERT_TRUE(win.fence().is_ok());
    std::vector<std::uint8_t> payload(65, 0xee);
    const int peer = 1 - comm.rank();
    // Larger than the whole target window.
    Status status = win.put(payload.data(), 65, RmaType::kUint8, peer, 0);
    EXPECT_EQ(status.code(), ErrorCode::kOutOfRange);
    // In range by size, out of range by offset.
    status = win.put(payload.data(), 8, RmaType::kUint8, peer, 60);
    EXPECT_EQ(status.code(), ErrorCode::kOutOfRange);
    // Target rank outside the communicator.
    status = win.put(payload.data(), 1, RmaType::kUint8, 5, 0);
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
    // Nothing was transmitted or applied anywhere.
    ASSERT_TRUE(win.fence().is_ok());
    EXPECT_EQ(win.puts_applied(), 0u);
    EXPECT_TRUE(win.free().is_ok());
  });
}

TEST(Rma, AccessOutsideEpochIsRefused) {
  auto session = pair_session(sim::Protocol::kTcp);
  session->run([&](Comm comm) {
    Win win = Win::allocate(comm, 64);
    // No fence yet, no lock held: every access must be refused locally.
    std::uint8_t byte = 1;
    EXPECT_EQ(win.put(&byte, 1, RmaType::kByte, 1 - comm.rank(), 0).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(win.get(&byte, 1, RmaType::kByte, 1 - comm.rank(), 0).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(win.accumulate(&byte, 1, RmaType::kUint8, RmaOp::kSum,
                             1 - comm.rank(), 0)
                  .code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(win.puts_applied(), 0u);
    EXPECT_TRUE(win.free().is_ok());
  });
}

// ------------------------------------------------- conformance integration

TEST(Rma, ConformanceScenarioPassesUnperturbed) {
  const conformance::Scenario* scenario = conformance::find_scenario("rma");
  ASSERT_NE(scenario, nullptr);
  // Seed 0 = perturbation off; the 20-seed sweep runs as the `rma_sweep`
  // ctest entry (label: sweep) and in the nightly --scenario=all sweep.
  const auto result =
      conformance::run_scenario(*scenario, 0, sim::kSchedAllChoices);
  EXPECT_TRUE(result.passed())
      << (result.violations.empty()
              ? ""
              : result.violations.front().oracle + ": " +
                    result.violations.front().detail);
}

// ------------------------------------------------- regression: MPI_Get_count

TEST(RmaRegression, ElementCountZeroSizeDatatype) {
  // An empty message counts zero elements even of a zero-size (empty
  // derived) datatype; only a non-dividing byte count is MPI_UNDEFINED.
  EXPECT_EQ(mpi::element_count(0, 0), 0);
  EXPECT_EQ(mpi::element_count(0, 4), 0);
  EXPECT_EQ(mpi::element_count(4, 0), -1);
  EXPECT_EQ(mpi::element_count(5, 4), -1);
  EXPECT_EQ(mpi::element_count(8, 4), 2);

  mpi::MpiStatus status;
  status.bytes = 0;
  EXPECT_EQ(status.count(0), 0);
  status.bytes = 12;
  EXPECT_EQ(status.count(0), -1);
  EXPECT_EQ(status.count(4), 3);
}

TEST(RmaRegression, CompatGetCountZeroSizeDatatype) {
  compat::run(sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp), [] {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype empty;
    MPI_Type_contiguous(0, MPI_INT, &empty);
    MPI_Type_commit(&empty);

    MPI_Status status{};
    status.internal_bytes = 0;
    int count = -1;
    EXPECT_EQ(MPI_Get_count(&status, empty, &count), MPI_SUCCESS);
    EXPECT_EQ(count, 0);  // empty message: 0, not MPI_UNDEFINED

    status.internal_bytes = 4;
    EXPECT_EQ(MPI_Get_count(&status, empty, &count), MPI_SUCCESS);
    EXPECT_EQ(count, MPI_UNDEFINED);  // 4 bytes never divide into 0-size

    MPI_Type_free(&empty);
    MPI_Finalize();
  });
}

// --------------------------------------------- regression: negative color

TEST(RmaRegression, SplitNegativeColorRaisesInvalidArgument) {
  auto session = pair_session(sim::Protocol::kTcp);
  session->run([&](Comm comm) {
    ErrorCode seen = ErrorCode::kOk;
    comm.set_errhandler(mpi::Errhandler::custom(
        [&](ErrorCode code, const std::string&) { seen = code; }));
    Comm split = comm.split(-5, 0);
    EXPECT_FALSE(split.valid());
    EXPECT_EQ(seen, ErrorCode::kInvalidArgument);
    // The guard fires before the collective exchange, so no rank is left
    // stuck inside the allgather — a legal split still works afterwards.
    comm.set_errhandler(mpi::Errhandler::errors_return());
    Comm legal = comm.split(0, comm.rank());
    ASSERT_TRUE(legal.valid());
    EXPECT_EQ(legal.size(), comm.size());
  });
}

TEST(RmaRegression, CompatSplitNegativeColorReturnsErrArg) {
  compat::run(sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp), [] {
    MPI_Init(nullptr, nullptr);
    MPI_Comm_set_errhandler(MPI_COMM_WORLD, MPI_ERRORS_RETURN);
    MPI_Comm out = 99;
    EXPECT_EQ(MPI_Comm_split(MPI_COMM_WORLD, -5, 0, &out), MPI_ERR_ARG);
    EXPECT_EQ(out, MPI_COMM_NULL);
    // MPI_UNDEFINED stays the legal "no membership" sentinel.
    EXPECT_EQ(MPI_Comm_split(MPI_COMM_WORLD, MPI_UNDEFINED, 0, &out),
              MPI_SUCCESS);
    EXPECT_EQ(out, MPI_COMM_NULL);
    MPI_Finalize();
  });
}

// ----------------------------------------------- regression: truncation

TEST(RmaRegression, TruncatedUnpackViewIsRecoverable) {
  // Unpacking past the end of a message marks the stream truncated and
  // returns an empty view instead of aborting the rank; end_unpacking()
  // stays callable (the consumer maps this onto MPI_ERR_TRUNCATE).
  sim::Fabric fabric;
  mad::Madeleine madeleine(
      fabric, sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp));
  mad::Channel& channel =
      madeleine.open_channel(madeleine.cluster().networks[0], "c0");

  std::thread sender([&] {
    std::int64_t value = 41;
    mad::Packing packing = channel.at(0)->begin_packing(1);
    packing.pack(&value, sizeof value, mad::SendMode::kCheaper,
                 mad::RecvMode::kExpress);
    packing.end_packing();
  });

  auto incoming = channel.at(1)->begin_unpacking();
  ASSERT_TRUE(incoming.has_value());
  const auto first = incoming->unpack_view(8, mad::SendMode::kCheaper,
                                           mad::RecvMode::kExpress);
  EXPECT_EQ(first.bytes.size(), 8u);
  EXPECT_FALSE(incoming->truncated());

  // The message carried one block; asking for another truncates.
  const auto past = incoming->unpack_view(4, mad::SendMode::kCheaper,
                                          mad::RecvMode::kExpress);
  EXPECT_TRUE(incoming->truncated());
  EXPECT_TRUE(past.bytes.empty());
  incoming->end_unpacking();
  sender.join();
}

}  // namespace
}  // namespace madmpi
