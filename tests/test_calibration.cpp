// Calibration guardrails: the simulated stack must stay close to the
// paper's published numbers (Tables 1 and 2). Tolerances are deliberately
// loose — the goal is shape fidelity, and these tests pin the anchors so a
// refactor cannot silently drift the cost models.
#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <memory>
#include <string>

#include "baselines/native_device.hpp"
#include "core/pingpong.hpp"
#include "core/session.hpp"

namespace madmpi {
namespace {

using core::Session;

struct Anchor {
  sim::Protocol protocol;
  double raw_latency_us;     // Table 1 (4 B message)
  double raw_bandwidth;      // Table 1 (8 MB message), MB/s
  double chmad_latency0_us;  // Table 2, 0 B
  double chmad_latency4_us;  // Table 2, 4 B
  double chmad_bandwidth;    // Table 2, 8 MB, MB/s
};

// Paper values.
const Anchor kAnchors[] = {
    {sim::Protocol::kTcp, 121.0, 11.2, 130.0, 148.7, 11.2},
    {sim::Protocol::kBip, 9.2, 122.0, 16.9, 18.9, 115.0},
    {sim::Protocol::kSisci, 4.4, 82.6, 13.0, 20.0, 82.5},
};

class CalibrationTest : public ::testing::TestWithParam<Anchor> {};

TEST_P(CalibrationTest, RawMadeleineMatchesTable1) {
  const Anchor& anchor = GetParam();
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, anchor.protocol);
  Session session(std::move(options));
  mad::Channel* channel = &session.open_raw_channel();

  const auto latency = core::raw_madeleine_pingpong(*channel, 0, 1, 4);
  EXPECT_NEAR(latency.one_way_us, anchor.raw_latency_us,
              anchor.raw_latency_us * 0.15)
      << "raw latency off for " << sim::protocol_name(anchor.protocol);

  const auto bandwidth =
      core::raw_madeleine_pingpong(*channel, 0, 1, 8u << 20, 1);
  EXPECT_NEAR(bandwidth.bandwidth_mb_s, anchor.raw_bandwidth,
              anchor.raw_bandwidth * 0.10)
      << "raw bandwidth off for " << sim::protocol_name(anchor.protocol);
}

TEST_P(CalibrationTest, ChMadMatchesTable2) {
  const Anchor& anchor = GetParam();
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, anchor.protocol);
  Session session(std::move(options));

  const auto lat0 = core::mpi_pingpong(session, 0);
  EXPECT_NEAR(lat0.one_way_us, anchor.chmad_latency0_us,
              anchor.chmad_latency0_us * 0.25)
      << "0-byte ch_mad latency off for "
      << sim::protocol_name(anchor.protocol);

  const auto lat4 = core::mpi_pingpong(session, 4);
  EXPECT_NEAR(lat4.one_way_us, anchor.chmad_latency4_us,
              anchor.chmad_latency4_us * 0.25)
      << "4-byte ch_mad latency off for "
      << sim::protocol_name(anchor.protocol);

  const auto bw = core::mpi_pingpong(session, 8u << 20, 1);
  EXPECT_NEAR(bw.bandwidth_mb_s, anchor.chmad_bandwidth,
              anchor.chmad_bandwidth * 0.15)
      << "8 MB ch_mad bandwidth off for "
      << sim::protocol_name(anchor.protocol);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CalibrationTest,
                         ::testing::ValuesIn(kAnchors),
                         [](const auto& info) {
                           return std::string(
                               sim::protocol_name(info.param.protocol));
                         });

// Bit-for-bit pin of the rendezvous one-way time: a fresh two-node session,
// one timed round trip after the warm-up. The values are the exact doubles
// behind the ch_mad bandwidth rows of bench/fig6_tcp (10.837/11.155 MB/s),
// fig7_sci (79.824/83.237) and fig8_bip (112.167/122.407). TCP elects a
// 64 KiB switch point and sends 64 KiB eager, so its rendezvous pin starts
// at 128 KiB. The tolerances above would not notice a completion stamp
// moved by one Marcel semaphore signal; these would.
struct RendezvousPin {
  sim::Protocol protocol;
  std::size_t bytes;
  double one_way_us;
};

const RendezvousPin kRendezvousPins[] = {
    {sim::Protocol::kTcp, 128u << 10, 0x1.6872a65d6c278p+13},  // 11534.33
    {sim::Protocol::kTcp, 1u << 20, 0x1.5e2fdb517fc9fp+16},    // 89647.86
    {sim::Protocol::kSisci, 64u << 10, 0x1.877c97e9a87e8p+9},  // 782.97
    {sim::Protocol::kSisci, 1u << 20, 0x1.776f0f500ee56p+13},  // 12013.88
    {sim::Protocol::kBip, 64u << 10, 0x1.169a73a6da0d4p+9},    // 557.21
    {sim::Protocol::kBip, 1u << 20, 0x1.fe9712389f051p+12},    // 8169.44
};

class RendezvousPinTest : public ::testing::TestWithParam<RendezvousPin> {};

TEST_P(RendezvousPinTest, OneWayTimeIsBitIdentical) {
  const RendezvousPin& pin = GetParam();
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, pin.protocol);
  Session session(std::move(options));
  ASSERT_GT(pin.bytes, session.ch_mad()->switch_point());  // rendezvous
  const auto result = core::mpi_pingpong(session, pin.bytes, 1);
  EXPECT_EQ(result.one_way_us, pin.one_way_us)
      << std::hexfloat << result.one_way_us << " vs " << pin.one_way_us;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, RendezvousPinTest, ::testing::ValuesIn(kRendezvousPins),
    [](const auto& info) {
      return std::string(sim::protocol_name(info.param.protocol)) + "_" +
             std::to_string(info.param.bytes >> 10) + "KiB";
    });

// The same pin for the native comparators' devices at 1 MiB: the values
// behind their 1 MiB rows of fig6_tcp (ch_p4, which sends it eager),
// fig7_sci and fig8_bip. Their rendezvous is ch_mad's handshake rebuilt
// in the baseline device, so it gets the same bit-for-bit guard.
struct BaselinePin {
  const char* profile;
  sim::Protocol protocol;
  double one_way_us;
};

const BaselinePin kBaselinePins[] = {
    {"ScaMPI", sim::Protocol::kSisci, 0x1.e009c8e8f3606p+13},     // 15361.22
    {"SCI-MPICH", sim::Protocol::kSisci, 0x1.48a955812c466p+14},  // 21034.33
    {"ch_p4", sim::Protocol::kTcp, 0x1.847c4766fa597p+16},        // 99452.28
    {"MPI-GM", sim::Protocol::kBip, 0x1.1358c0ef037e7p+14},       // 17622.19
    {"MPICH-PM", sim::Protocol::kBip, 0x1.d6b0c7a557849p+12},     // 7531.05
};

class BaselinePinTest : public ::testing::TestWithParam<BaselinePin> {};

TEST_P(BaselinePinTest, OneWayTimeAt1MiBIsBitIdentical) {
  const BaselinePin& pin = GetParam();
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, pin.protocol);
  options.internode_factory =
      [profile = pin.profile](Session& session)
      -> std::unique_ptr<core::ManagedDevice> {
    return std::make_unique<baselines::NativeDevice>(
        baselines::profile_by_name(profile), session.fabric(),
        session.cluster(), session.directory());
  };
  Session session(std::move(options));
  const auto result = core::mpi_pingpong(session, 1u << 20, 1);
  EXPECT_EQ(result.one_way_us, pin.one_way_us)
      << std::hexfloat << result.one_way_us << " vs " << pin.one_way_us;
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselinePinTest, ::testing::ValuesIn(kBaselinePins),
    [](const auto& info) {
      std::string name = info.param.profile;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace madmpi
