// Point-to-point MPI semantics over full sessions: blocking/non-blocking,
// modes across the eager/rendezvous switch, wildcards, ordering, probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "baselines/native_device.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;

std::unique_ptr<Session> two_nodes(sim::Protocol protocol) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, protocol);
  return std::make_unique<Session>(std::move(options));
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& byte : out) byte = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

// ---------------------------------------------------------------- basics

TEST(P2P, BlockingSendRecvWithStatus) {
  auto session = two_nodes(sim::Protocol::kSisci);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      std::vector<double> data{1.5, 2.5, 3.5};
      comm.send(data.data(), 3, Datatype::float64(), 1, 42);
    } else {
      std::vector<double> data(8, 0.0);
      auto status = comm.recv(data.data(), 8, Datatype::float64(), 0, 42);
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.tag, 42);
      EXPECT_EQ(status.bytes, 24u);
      EXPECT_EQ(status.count(sizeof(double)), 3);
      EXPECT_EQ(data[2], 3.5);
      EXPECT_EQ(data[3], 0.0);  // untouched tail
    }
  });
}

TEST(P2P, UnexpectedMessageBuffered) {
  auto session = two_nodes(sim::Protocol::kTcp);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      int value = 31337;
      comm.send(&value, 1, Datatype::int32(), 1, 0);
    } else {
      // Give the eager message time to arrive unexpected, then post.
      while (!comm.iprobe(0, 0)) {
      }
      int value = 0;
      comm.recv(&value, 1, Datatype::int32(), 0, 0);
      EXPECT_EQ(value, 31337);
    }
  });
}

TEST(P2P, AnySourceAnyTag) {
  auto session = two_nodes(sim::Protocol::kBip);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      int value = 5;
      comm.send(&value, 1, Datatype::int32(), 1, 1234);
    } else {
      int value = 0;
      auto status =
          comm.recv(&value, 1, Datatype::int32(), mpi::kAnySource,
                    mpi::kAnyTag);
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.tag, 1234);
      EXPECT_EQ(value, 5);
    }
  });
}

TEST(P2P, NonOvertakingOrder) {
  auto session = two_nodes(sim::Protocol::kSisci);
  constexpr int kMessages = 64;
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        comm.send(&i, 1, Datatype::int32(), 1, 7);
      }
    } else {
      for (int i = 0; i < kMessages; ++i) {
        int got = -1;
        comm.recv(&got, 1, Datatype::int32(), 0, 7);
        ASSERT_EQ(got, i);
      }
    }
  });
}

TEST(P2P, TagSelectivityAcrossPendingMessages) {
  auto session = two_nodes(sim::Protocol::kTcp);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      int a = 1, b = 2;
      comm.send(&a, 1, Datatype::int32(), 1, 10);
      comm.send(&b, 1, Datatype::int32(), 1, 20);
    } else {
      int b = 0, a = 0;
      comm.recv(&b, 1, Datatype::int32(), 0, 20);  // out of arrival order
      comm.recv(&a, 1, Datatype::int32(), 0, 10);
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, 2);
    }
  });
}

// ---------------------------------------------------- non-blocking & modes

TEST(P2P, IsendIrecvWaitAll) {
  auto session = two_nodes(sim::Protocol::kSisci);
  session->run([](Comm comm) {
    constexpr int kCount = 256;
    std::vector<int> out(kCount, comm.rank());
    std::vector<int> in(kCount, -1);
    const int peer = 1 - comm.rank();
    std::vector<mpi::Request> requests;
    requests.push_back(comm.irecv(in.data(), kCount, Datatype::int32(), peer,
                                  3));
    requests.push_back(comm.isend(out.data(), kCount, Datatype::int32(),
                                  peer, 3));
    mpi::Request::wait_all(requests);
    for (int v : in) ASSERT_EQ(v, peer);
  });
}

TEST(P2P, LargeIsendUsesRendezvousThread) {
  auto session = two_nodes(sim::Protocol::kSisci);
  constexpr std::size_t kCount = 16 * 1024;  // 64 KB > 8 KB switch
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      std::vector<int> data(kCount);
      std::iota(data.begin(), data.end(), 1);
      auto request = comm.isend(data.data(), static_cast<int>(kCount),
                                Datatype::int32(), 1, 0);
      // The buffer was staged: we may clobber it before completion.
      std::fill(data.begin(), data.end(), -1);
      request.wait();
    } else {
      std::vector<int> data(kCount, 0);
      comm.recv(data.data(), static_cast<int>(kCount), Datatype::int32(), 0,
                0);
      EXPECT_EQ(data.front(), 1);
      EXPECT_EQ(data.back(), static_cast<int>(kCount));
    }
  });
  EXPECT_GE(session->ch_mad()->rendezvous_sent(), 1u);
}

TEST(P2P, SsendCompletesOnlyAfterMatch) {
  auto session = two_nodes(sim::Protocol::kTcp);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      int value = 88;
      comm.ssend(&value, 1, Datatype::int32(), 1, 0);
      // Reaching here proves the receive was posted: virtual time must
      // include the full handshake round trip (>2x one-way latency).
      EXPECT_GT(comm.wtime_us(), 250.0);
    } else {
      int value = 0;
      comm.recv(&value, 1, Datatype::int32(), 0, 0);
      EXPECT_EQ(value, 88);
    }
  });
}

TEST(P2P, IssendNonBlocking) {
  auto session = two_nodes(sim::Protocol::kBip);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      int value = 3;
      auto request = comm.issend(&value, 1, Datatype::int32(), 1, 2);
      EXPECT_FALSE(request.test());  // peer has not posted yet
      int unblock = 0;
      comm.recv(&unblock, 1, Datatype::int32(), 1, 9);
      request.wait();
    } else {
      int unblock = 1;
      comm.send(&unblock, 1, Datatype::int32(), 0, 9);
      int value = 0;
      comm.recv(&value, 1, Datatype::int32(), 0, 2);
      EXPECT_EQ(value, 3);
    }
  });
}

TEST(P2P, SendrecvExchangesWithoutDeadlock) {
  auto session = two_nodes(sim::Protocol::kSisci);
  session->run([](Comm comm) {
    const int peer = 1 - comm.rank();
    // Large payloads in both directions simultaneously (rendezvous).
    std::vector<double> out(4096, comm.rank() + 0.5);
    std::vector<double> in(4096, -1.0);
    comm.sendrecv(out.data(), 4096, Datatype::float64(), peer, 0, in.data(),
                  4096, Datatype::float64(), peer, 0);
    for (double v : in) ASSERT_EQ(v, peer + 0.5);
  });
}

TEST(P2P, ProbeThenRecvBySize) {
  auto session = two_nodes(sim::Protocol::kTcp);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      std::vector<float> data(37, 1.25f);
      comm.send(data.data(), 37, Datatype::float32(), 1, 6);
    } else {
      auto status = comm.probe(mpi::kAnySource, 6);
      const auto count = status.count(sizeof(float));
      ASSERT_EQ(count, 37);
      std::vector<float> data(static_cast<std::size_t>(count));
      comm.recv(data.data(), static_cast<int>(count), Datatype::float32(),
                status.source, 6);
      EXPECT_EQ(data[36], 1.25f);
    }
  });
}

TEST(P2P, DerivedDatatypeAcrossTheWire) {
  auto session = two_nodes(sim::Protocol::kSisci);
  session->run([](Comm comm) {
    const auto column = Datatype::vector(4, 1, 4, Datatype::int32());
    if (comm.rank() == 0) {
      std::vector<int> matrix(16);
      std::iota(matrix.begin(), matrix.end(), 0);
      comm.send(matrix.data(), 1, column, 1, 0);  // column 0: 0,4,8,12
    } else {
      std::vector<int> column_out(4, -1);
      comm.recv(column_out.data(), 4, Datatype::int32(), 0, 0);
      EXPECT_EQ(column_out, (std::vector<int>{0, 4, 8, 12}));
    }
  });
}

TEST(P2P, RecvIntoDerivedDatatype) {
  auto session = two_nodes(sim::Protocol::kSisci);
  session->run([](Comm comm) {
    const auto column = Datatype::vector(4, 1, 4, Datatype::int32());
    if (comm.rank() == 0) {
      std::vector<int> data{9, 8, 7, 6};
      comm.send(data.data(), 4, Datatype::int32(), 1, 0);
    } else {
      std::vector<int> matrix(16, -1);
      comm.recv(matrix.data(), 1, column, 0, 0);
      EXPECT_EQ(matrix[0], 9);
      EXPECT_EQ(matrix[4], 8);
      EXPECT_EQ(matrix[8], 7);
      EXPECT_EQ(matrix[12], 6);
      EXPECT_EQ(matrix[1], -1);
    }
  });
}

// ------------------------------------------------------------- truncation

TEST(P2P, EagerTruncationDeliversPrefixWithErrorStatus) {
  auto session = two_nodes(sim::Protocol::kTcp);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      std::vector<int> data{10, 20, 30, 40};
      comm.send(data.data(), 4, Datatype::int32(), 1, 0);
    } else {
      std::vector<int> data(2, -1);
      auto status = comm.recv(data.data(), 2, Datatype::int32(), 0, 0);
      EXPECT_EQ(status.error, ErrorCode::kTruncated);
      EXPECT_EQ(status.bytes, 8u);  // the two elements that fit
      EXPECT_EQ(data[0], 10);
      EXPECT_EQ(data[1], 20);
    }
  });
}

TEST(P2P, RendezvousTruncationDeliversPrefixWithErrorStatus) {
  auto session = two_nodes(sim::Protocol::kSisci);
  constexpr std::size_t kCount = 16 * 1024;  // 64 KB > 8 KB switch
  constexpr std::size_t kFits = 1024;
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      std::vector<int> data(kCount);
      std::iota(data.begin(), data.end(), 1);
      comm.send(data.data(), static_cast<int>(kCount), Datatype::int32(), 1,
                0);
    } else {
      std::vector<int> data(kFits, -1);
      auto status = comm.recv(data.data(), static_cast<int>(kFits),
                              Datatype::int32(), 0, 0);
      EXPECT_EQ(status.error, ErrorCode::kTruncated);
      EXPECT_EQ(status.bytes, kFits * sizeof(int));
      EXPECT_EQ(data.front(), 1);
      EXPECT_EQ(data.back(), static_cast<int>(kFits));
    }
  });
  EXPECT_GE(session->ch_mad()->rendezvous_sent(), 1u);
}

// ------------------------------------------------------------ ragged tail
//
// A byte message of 8k+2 bytes into a vector receive type of 8-byte
// elements: k whole elements land through the type map, and the 2-byte
// ragged tail lands raw at extent * k. The placement and status.bytes are
// the same whichever device carries the message, eager or rendezvous.

/// The device carrying rank 0 -> rank 1 traffic in the device-parameterised
/// tests: ch_mad over SCI, smp_plug within one node, or the ScaMPI baseline.
enum class P2PDevice { kChMad, kSmpPlug, kBaseline };

const char* device_name(P2PDevice device) {
  static const char* const kDevices[] = {"ch_mad", "smp_plug", "ScaMPI"};
  return kDevices[static_cast<int>(device)];
}

Session::Options device_options(P2PDevice device) {
  Session::Options options;
  switch (device) {
    case P2PDevice::kChMad:
      options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
      break;
    case P2PDevice::kSmpPlug:
      options.cluster =
          sim::ClusterSpec::homogeneous(1, sim::Protocol::kTcp, 2);
      options.cluster.networks.clear();
      break;
    case P2PDevice::kBaseline:
      options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
      options.internode_factory =
          [](Session& s) -> std::unique_ptr<core::ManagedDevice> {
        return std::make_unique<baselines::NativeDevice>(
            baselines::profile_by_name("ScaMPI"), s.fabric(), s.cluster(),
            s.directory());
      };
      break;
  }
  return options;
}

enum class RaggedSend { kSend, kSsend, kIssend };

struct RaggedTailParam {
  P2PDevice device;
  RaggedSend send;
};

class P2PRaggedTail : public ::testing::TestWithParam<RaggedTailParam> {};

TEST_P(P2PRaggedTail, SameBytesEagerAndRendezvous) {
  const auto& param = GetParam();
  Session session(device_options(param.device));

  constexpr int kElements = 1000;
  constexpr std::size_t kBytes = 8 * kElements + 2;  // below every switch
  const auto message = pattern(kBytes, 23);
  // Two 4-byte blocks 8 bytes apart: size 8, extent 12.
  const auto type = Datatype::vector(2, 4, 8, Datatype::uint8());
  ASSERT_EQ(type.size(), 8u);
  ASSERT_EQ(type.extent(), 12u);

  std::vector<std::uint8_t> expected(type.extent() * (kElements + 1), 0xEE);
  for (std::size_t e = 0; e < kElements; ++e) {
    for (std::size_t j = 0; j < 4; ++j) {
      expected[12 * e + j] = message[8 * e + j];
      expected[12 * e + 8 + j] = message[8 * e + 4 + j];
    }
  }
  expected[12 * kElements] = message[kBytes - 2];
  expected[12 * kElements + 1] = message[kBytes - 1];

  session.run([&](Comm comm) {
    if (comm.rank() == 0) {
      const int count = static_cast<int>(kBytes);
      switch (param.send) {
        case RaggedSend::kSend:
          comm.send(message.data(), count, Datatype::uint8(), 1, 0);
          break;
        case RaggedSend::kSsend:
          comm.ssend(message.data(), count, Datatype::uint8(), 1, 0);
          break;
        case RaggedSend::kIssend:
          comm.issend(message.data(), count, Datatype::uint8(), 1, 0).wait();
          break;
      }
    } else {
      std::vector<std::uint8_t> buffer(expected.size(), 0xEE);
      auto status = comm.recv(buffer.data(), kElements + 1, type, 0, 0);
      EXPECT_EQ(status.error, ErrorCode::kOk);
      EXPECT_EQ(status.bytes, kBytes);
      const auto differ =
          std::mismatch(buffer.begin(), buffer.end(), expected.begin());
      EXPECT_EQ(differ.first - buffer.begin(),
                static_cast<std::ptrdiff_t>(buffer.size()))
          << "first misplaced byte (the ragged tail starts at "
          << 12 * kElements << ")";
    }
  });
  if (param.device == P2PDevice::kChMad) {
    EXPECT_EQ(session.ch_mad()->rendezvous_sent() != 0,
              param.send != RaggedSend::kSend);
  }
}

std::string ragged_tail_name(const RaggedTailParam& param) {
  static const char* const kSends[] = {"send", "ssend", "issend"};
  return std::string(device_name(param.device)) + "_" +
         kSends[static_cast<int>(param.send)];
}

INSTANTIATE_TEST_SUITE_P(
    Devices, P2PRaggedTail,
    ::testing::Values(
        RaggedTailParam{P2PDevice::kChMad, RaggedSend::kSend},
        RaggedTailParam{P2PDevice::kChMad, RaggedSend::kSsend},
        RaggedTailParam{P2PDevice::kChMad, RaggedSend::kIssend},
        RaggedTailParam{P2PDevice::kSmpPlug, RaggedSend::kSend},
        RaggedTailParam{P2PDevice::kSmpPlug, RaggedSend::kSsend},
        RaggedTailParam{P2PDevice::kSmpPlug, RaggedSend::kIssend},
        RaggedTailParam{P2PDevice::kBaseline, RaggedSend::kSend},
        RaggedTailParam{P2PDevice::kBaseline, RaggedSend::kSsend},
        RaggedTailParam{P2PDevice::kBaseline, RaggedSend::kIssend}),
    [](const auto& info) { return ragged_tail_name(info.param); });

// ---------------------------------------------------------- non-overtaking
//
// MPI's non-overtaking rule: two messages from one sender to one receiver
// with the same tag match in the order they were sent. A rendezvous isend
// must inject its request before the caller's next eager frame leaves, on
// every device.

class P2PNonOvertaking : public ::testing::TestWithParam<P2PDevice> {};

TEST_P(P2PNonOvertaking, RendezvousIsendThenEagerSendArriveInOrder) {
  Session session(device_options(GetParam()));
  constexpr std::size_t kBig = 128u << 10;  // rendezvous on every device
  constexpr int kPairs = 200;
  int misordered = 0;
  session.run([&](Comm comm) {
    std::vector<std::uint8_t> big(kBig);
    if (comm.rank() == 0) {
      for (int i = 0; i < kPairs; ++i) {
        mpi::Request request = comm.isend(
            big.data(), static_cast<int>(kBig), Datatype::uint8(), 1, 0);
        const int small = i;
        ASSERT_TRUE(comm.send(&small, 1, Datatype::int32(), 1, 0).is_ok());
        ASSERT_EQ(request.wait().error, ErrorCode::kOk);
      }
    } else {
      for (int i = 0; i < kPairs; ++i) {
        const auto first = comm.recv(big.data(), static_cast<int>(kBig),
                                     Datatype::uint8(), 0, 0);
        const auto second = comm.recv(big.data(), static_cast<int>(kBig),
                                      Datatype::uint8(), 0, 0);
        if (first.bytes != kBig || second.bytes != sizeof(int)) ++misordered;
      }
    }
  });
  EXPECT_EQ(misordered, 0) << "of " << kPairs << " pairs";
}

INSTANTIATE_TEST_SUITE_P(
    Devices, P2PNonOvertaking,
    ::testing::Values(P2PDevice::kChMad, P2PDevice::kSmpPlug,
                      P2PDevice::kBaseline),
    [](const auto& info) { return std::string(device_name(info.param)); });

// --------------------------------------------------------- property sweeps

struct SizeSweepParam {
  sim::Protocol protocol;
  std::size_t bytes;
};

class P2PSizeSweep : public ::testing::TestWithParam<SizeSweepParam> {};

TEST_P(P2PSizeSweep, PayloadIntegrityAcrossSwitchPoint) {
  const auto& param = GetParam();
  auto session = two_nodes(param.protocol);
  const auto expected = pattern(param.bytes, param.bytes * 31 + 7);
  session->run([&](Comm comm) {
    if (comm.rank() == 0) {
      comm.send(expected.data(), static_cast<int>(expected.size()),
                Datatype::uint8(), 1, 0);
    } else {
      std::vector<std::uint8_t> got(param.bytes + 8, 0xee);
      auto status = comm.recv(got.data(), static_cast<int>(param.bytes),
                              Datatype::uint8(), 0, 0);
      EXPECT_EQ(status.bytes, param.bytes);
      for (std::size_t i = 0; i < param.bytes; ++i) {
        ASSERT_EQ(got[i], expected[i]) << "at byte " << i;
      }
      for (std::size_t i = param.bytes; i < got.size(); ++i) {
        ASSERT_EQ(got[i], 0xee) << "overwrite at " << i;
      }
    }
  });
}

std::vector<SizeSweepParam> sweep_params() {
  std::vector<SizeSweepParam> params;
  for (auto protocol : {sim::Protocol::kTcp, sim::Protocol::kSisci,
                        sim::Protocol::kBip}) {
    // Straddle each protocol's switch point and the aggregation limits.
    for (std::size_t bytes :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{999}, std::size_t{1000},
          std::size_t{1024}, std::size_t{7 * 1024 - 1}, std::size_t{7 * 1024},
          std::size_t{8 * 1024}, std::size_t{8 * 1024 + 1},
          std::size_t{64 * 1024}, std::size_t{64 * 1024 + 1},
          std::size_t{1 << 20}}) {
      params.push_back({protocol, bytes});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, P2PSizeSweep, ::testing::ValuesIn(sweep_params()),
    [](const auto& info) {
      return std::string(sim::protocol_name(info.param.protocol)) + "_" +
             std::to_string(info.param.bytes) + "B";
    });

TEST(P2P, RandomizedBidirectionalTraffic) {
  auto session = two_nodes(sim::Protocol::kBip);
  constexpr int kRounds = 40;
  session->run([](Comm comm) {
    Rng rng(900 + comm.rank());
    Rng peer_rng(900 + (1 - comm.rank()));
    const int peer = 1 - comm.rank();
    for (int round = 0; round < kRounds; ++round) {
      const std::size_t my_size = rng.next_range(1, 20000);
      const std::size_t peer_size = peer_rng.next_range(1, 20000);
      std::vector<std::uint8_t> out(my_size,
                                    static_cast<std::uint8_t>(round));
      std::vector<std::uint8_t> in(peer_size, 0);
      auto recv_req = comm.irecv(in.data(), static_cast<int>(peer_size),
                                 Datatype::uint8(), peer, round);
      comm.send(out.data(), static_cast<int>(my_size), Datatype::uint8(),
                peer, round);
      recv_req.wait();
      for (auto byte : in) ASSERT_EQ(byte, static_cast<std::uint8_t>(round));
    }
  });
}

}  // namespace
}  // namespace madmpi
