// Heterogeneity management: mixed-endianness clusters (the "datatype
// management, heterogeneity" responsibility of the generic ADI, paper
// Figure 1). Wire data travels in the sender's byte order; the receiver
// makes it right.
#include <gtest/gtest.h>

#include <numeric>

#include "core/pingpong.hpp"
#include "core/session.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;

/// Two TCP nodes, the second declared big-endian.
std::unique_ptr<Session> mixed_pair(sim::Protocol protocol) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, protocol);
  options.cluster.nodes[1].big_endian = true;
  return std::make_unique<Session>(std::move(options));
}

TEST(Heterogeneity, SwapPackedPrimitives) {
  const auto i32 = Datatype::int32();
  std::uint32_t values[2] = {0x01020304u, 0xa0b0c0d0u};
  i32.swap_packed(reinterpret_cast<std::byte*>(values), 2);
  EXPECT_EQ(values[0], 0x04030201u);
  EXPECT_EQ(values[1], 0xd0c0b0a0u);
  i32.swap_packed(reinterpret_cast<std::byte*>(values), 2);  // involution
  EXPECT_EQ(values[0], 0x01020304u);
}

TEST(Heterogeneity, SwapPackedBytesUntouched) {
  const auto bytes = Datatype::byte();
  std::uint8_t data[4] = {1, 2, 3, 4};
  bytes.swap_packed(reinterpret_cast<std::byte*>(data), 4);
  EXPECT_EQ(data[0], 1);
  EXPECT_EQ(data[3], 4);
}

TEST(Heterogeneity, SwapPackedMixedStruct) {
  // Wire layout of struct(int32, double, int8): widths 4, 8, 1.
  const int lengths[] = {1, 1, 1};
  const std::ptrdiff_t displs[] = {0, 8, 16};
  const Datatype types[] = {Datatype::int32(), Datatype::float64(),
                            Datatype::int8()};
  const auto particle = Datatype::create_struct(lengths, displs, types);

  // Segment widths must survive flattening.
  ASSERT_EQ(particle.segments().size(), 3u);
  EXPECT_EQ(particle.segments()[0].width, 4u);
  EXPECT_EQ(particle.segments()[1].width, 8u);
  EXPECT_EQ(particle.segments()[2].width, 1u);

  std::array<std::byte, 13> wire{};
  for (std::size_t i = 0; i < wire.size(); ++i) {
    wire[i] = static_cast<std::byte>(i);
  }
  particle.swap_packed(wire.data(), 1);
  // int32 reversed:
  EXPECT_EQ(wire[0], std::byte{3});
  EXPECT_EQ(wire[3], std::byte{0});
  // double reversed:
  EXPECT_EQ(wire[4], std::byte{11});
  EXPECT_EQ(wire[11], std::byte{4});
  // int8 untouched:
  EXPECT_EQ(wire[12], std::byte{12});
}

TEST(Heterogeneity, CoalescePreservesWidthBoundaries) {
  // int32 followed by float32 at adjacent offsets: same width -> may
  // coalesce; int32 followed by double must not merge into one run.
  const int lengths[] = {1, 1};
  const std::ptrdiff_t displs[] = {0, 4};
  const Datatype mixed_types[] = {Datatype::int32(), Datatype::float64()};
  const auto mixed = Datatype::create_struct(lengths, displs, mixed_types);
  ASSERT_EQ(mixed.segments().size(), 2u);
  EXPECT_EQ(mixed.segments()[0].width, 4u);
  EXPECT_EQ(mixed.segments()[1].width, 8u);

  const Datatype same_types[] = {Datatype::int32(), Datatype::float32()};
  const auto same = Datatype::create_struct(lengths, displs, same_types);
  ASSERT_EQ(same.segments().size(), 1u);  // merged: equal widths
  EXPECT_EQ(same.segments()[0].width, 4u);
}

struct EndianCase {
  sim::Protocol protocol;
  std::size_t count;  // straddle eager and rendezvous
};

class MixedEndianTransfer : public ::testing::TestWithParam<EndianCase> {};

TEST_P(MixedEndianTransfer, ValuesSurviveBothDirections) {
  const auto& param = GetParam();
  auto session = mixed_pair(param.protocol);
  const int count = static_cast<int>(param.count);
  session->run([count](Comm comm) {
    const int peer = 1 - comm.rank();
    std::vector<std::int32_t> out(static_cast<std::size_t>(count));
    std::iota(out.begin(), out.end(), comm.rank() * 1000000 + 1);
    std::vector<std::int32_t> in(static_cast<std::size_t>(count), -1);
    auto req = comm.irecv(in.data(), count, Datatype::int32(), peer, 0);
    comm.send(out.data(), count, Datatype::int32(), peer, 0);
    req.wait();
    for (int i = 0; i < count; ++i) {
      ASSERT_EQ(in[static_cast<std::size_t>(i)], peer * 1000000 + 1 + i)
          << "element " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MixedEndianTransfer,
    ::testing::Values(EndianCase{sim::Protocol::kTcp, 16},
                      EndianCase{sim::Protocol::kSisci, 16},
                      EndianCase{sim::Protocol::kSisci, 50000},  // rendezvous
                      EndianCase{sim::Protocol::kBip, 50000}),
    [](const auto& info) {
      return std::string(sim::protocol_name(info.param.protocol)) + "_" +
             std::to_string(info.param.count);
    });

TEST(Heterogeneity, DoublesSurviveMixedCluster) {
  auto session = mixed_pair(sim::Protocol::kSisci);
  session->run([](Comm comm) {
    if (comm.rank() == 1) {  // the big-endian node sends
      std::vector<double> data{3.14159, -2.71828, 1e300, -1e-300};
      comm.send(data.data(), 4, Datatype::float64(), 0, 0);
    } else {
      std::vector<double> data(4, 0.0);
      comm.recv(data.data(), 4, Datatype::float64(), 1, 0);
      EXPECT_EQ(data[0], 3.14159);
      EXPECT_EQ(data[1], -2.71828);
      EXPECT_EQ(data[2], 1e300);
      EXPECT_EQ(data[3], -1e-300);
    }
  });
}

TEST(Heterogeneity, BigEndianNodeRendezvousThroughSmpPlug) {
  // Two ranks on one big-endian node: the shared segment carries
  // big-endian wire data, and both smp_plug rendezvous paths (blocking and
  // nonblocking) must swap it back as the eager path does.
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(1, sim::Protocol::kTcp, 2);
  options.cluster.networks.clear();
  options.cluster.nodes[0].big_endian = true;
  Session session(std::move(options));
  session.run([](Comm comm) {
    constexpr int kCount = 50000;  // above the 32 KiB shared segment
    for (int round = 0; round < 2; ++round) {
      if (comm.rank() == 0) {
        std::vector<std::int32_t> out(kCount);
        std::iota(out.begin(), out.end(), round * 1000000 + 1);
        if (round == 0) {
          comm.send(out.data(), kCount, Datatype::int32(), 1, round);
        } else {
          comm.isend(out.data(), kCount, Datatype::int32(), 1, round).wait();
        }
      } else {
        std::vector<std::int32_t> in(kCount, -1);
        comm.recv(in.data(), kCount, Datatype::int32(), 0, round);
        int wrong = 0;
        for (int i = 0; i < kCount; ++i) {
          wrong += in[static_cast<std::size_t>(i)] != round * 1000000 + 1 + i;
        }
        EXPECT_EQ(wrong, 0) << "round " << round;
      }
    }
  });
}

TEST(Heterogeneity, DerivedDatatypeAcrossEndianness) {
  auto session = mixed_pair(sim::Protocol::kTcp);
  session->run([](Comm comm) {
    const auto column = Datatype::vector(4, 1, 4, Datatype::int32());
    if (comm.rank() == 1) {
      std::vector<int> matrix(16);
      std::iota(matrix.begin(), matrix.end(), 100);
      comm.send(matrix.data(), 1, column, 0, 0);
    } else {
      std::vector<int> col(4, -1);
      comm.recv(col.data(), 4, Datatype::int32(), 1, 0);
      EXPECT_EQ(col, (std::vector<int>{100, 104, 108, 112}));
    }
  });
}

TEST(Heterogeneity, CollectivesOnMixedCluster) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kSisci);
  options.cluster.nodes[1].big_endian = true;
  options.cluster.nodes[3].big_endian = true;
  Session session(std::move(options));
  session.run([](Comm comm) {
    std::int64_t mine = (comm.rank() + 1) * 1000;
    std::int64_t sum = 0;
    comm.allreduce(&mine, &sum, 1, Datatype::int64(), mpi::Op::sum());
    EXPECT_EQ(sum, 10000);

    double value = comm.rank() == 1 ? 42.5 : -1.0;
    comm.bcast(&value, 1, Datatype::float64(), 1);
    EXPECT_EQ(value, 42.5);
  });
}

TEST(Heterogeneity, GatherFromBigEndianRanks) {
  // Collective payloads travel as the sender's memory bytes and land as
  // bytes, so a gather from big-endian ranks delivers their values
  // intact, contiguous or strided.
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kSisci);
  options.cluster.nodes[1].big_endian = true;
  options.cluster.nodes[3].big_endian = true;
  Session session(std::move(options));
  session.run([](Comm comm) {
    const std::int64_t mine[3] = {(comm.rank() + 1) * 1000, -1,
                                  (comm.rank() + 1) * 1000 + 1};
    std::vector<std::int64_t> firsts(4, 0);
    comm.gather(mine, 1, Datatype::int64(), firsts.data(), 1,
                Datatype::int64(), 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(firsts, (std::vector<std::int64_t>{1000, 2000, 3000, 4000}));
    }
    const auto ends = Datatype::vector(2, 1, 2, Datatype::int64());
    std::vector<std::int64_t> pairs(8, 0);
    comm.gather(mine, 1, ends, pairs.data(), 2, Datatype::int64(), 2);
    if (comm.rank() == 2) {
      EXPECT_EQ(pairs, (std::vector<std::int64_t>{1000, 1001, 2000, 2001,
                                                  3000, 3001, 4000, 4001}));
    }
  });
}

TEST(Heterogeneity, ConversionChargedOnlyAcrossUnlikeNodes) {
  // little->big transfer pays a conversion pass the little->little one
  // does not.
  auto measure = [](bool mixed) {
    Session::Options options;
    options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
    options.cluster.nodes[1].big_endian = mixed;
    Session session(std::move(options));
    return core::mpi_pingpong(session, 64 * 1024, 2).one_way_us;
  };
  const double same = measure(false);
  const double mixed = measure(true);
  // 64 KB * 0.0032 us/B ~ 210 us of conversion per direction.
  EXPECT_GT(mixed, same + 100.0);
}

TEST(Heterogeneity, SwapPackedBytesHandlesRaggedTail) {
  // 10 bytes of int32 wire data: two whole elements plus a 2-byte tail.
  // The whole elements byte-reverse; the partial one reverses what it has.
  const auto i32 = Datatype::int32();
  std::array<std::byte, 10> wire{};
  for (std::size_t i = 0; i < wire.size(); ++i) {
    wire[i] = static_cast<std::byte>(i);
  }
  i32.swap_packed_bytes(wire.data(), wire.size());
  EXPECT_EQ(wire[0], std::byte{3});
  EXPECT_EQ(wire[3], std::byte{0});
  EXPECT_EQ(wire[4], std::byte{7});
  EXPECT_EQ(wire[7], std::byte{4});
  // Partial trailing element: best-effort reversal of the 2 present bytes.
  EXPECT_EQ(wire[8], std::byte{9});
  EXPECT_EQ(wire[9], std::byte{8});
}

TEST(Heterogeneity, TruncatedRecvFromBigEndianConvertsTheTailCorrectly) {
  // A big-endian sender ships 4 ints; the receiver has room for 2. The
  // delivered prefix must still be byte-swapped (the old code swapped
  // `bytes / elem` elements of the *wire* length, corrupting short recvs).
  auto session = mixed_pair(sim::Protocol::kTcp);
  session->run([](Comm comm) {
    if (comm.rank() == 1) {  // big-endian sender
      std::vector<std::int32_t> data{0x01020304, 0x0a0b0c0d, 3, 4};
      comm.send(data.data(), 4, Datatype::int32(), 0, 0);
    } else {
      std::vector<std::int32_t> data(2, -1);
      auto status = comm.recv(data.data(), 2, Datatype::int32(), 1, 0);
      EXPECT_EQ(status.error, ErrorCode::kTruncated);
      EXPECT_EQ(status.bytes, 8u);
      EXPECT_EQ(data[0], 0x01020304);
      EXPECT_EQ(data[1], 0x0a0b0c0d);
    }
  });
}

TEST(Heterogeneity, ParserAcceptsEndianOption) {
  sim::ClusterSpec spec;
  ASSERT_TRUE(sim::ClusterSpec::parse(
                  "node sparc endian=big\nnode x86 endian=little\n"
                  "network tcp sparc x86\n",
                  &spec)
                  .is_ok());
  EXPECT_TRUE(spec.nodes[0].big_endian);
  EXPECT_FALSE(spec.nodes[1].big_endian);
}

}  // namespace
}  // namespace madmpi
