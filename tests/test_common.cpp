// Unit tests for the common utilities.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "common/byte_buffer.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/slab_pool.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "mpi/coll_types.hpp"

namespace madmpi {
namespace {

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_TRUE(static_cast<bool>(status));
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  Status status(ErrorCode::kTruncated, "buffer too small");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kTruncated);
  EXPECT_EQ(status.to_string(), "truncated: buffer too small");
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(error_code_name(static_cast<ErrorCode>(c)), "unknown");
  }
}

TEST(ByteBuffer, RoundTripScalars) {
  ByteWriter writer;
  writer.put<std::uint32_t>(0xdeadbeef);
  writer.put<double>(3.25);
  writer.put<std::int8_t>(-5);
  ByteReader reader(writer.span());
  EXPECT_EQ(reader.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(reader.get<double>(), 3.25);
  EXPECT_EQ(reader.get<std::int8_t>(), -5);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteBuffer, AppendRawAndRead) {
  ByteWriter writer;
  const char text[] = "madeleine";
  writer.append(text, sizeof text);
  EXPECT_EQ(writer.size(), sizeof text);
  ByteReader reader(writer.span());
  char out[sizeof text];
  reader.read(out, sizeof text);
  EXPECT_STREQ(out, "madeleine");
}

TEST(ByteBuffer, UnderflowAborts) {
  ByteWriter writer;
  writer.put<std::uint16_t>(7);
  ByteReader reader(writer.span());
  EXPECT_DEATH(reader.get<std::uint64_t>(), "underflow");
}

TEST(ByteBuffer, TakeMovesStorage) {
  ByteWriter writer;
  writer.put<int>(1);
  auto bytes = writer.take();
  EXPECT_EQ(bytes.size(), sizeof(int));
  EXPECT_EQ(writer.size(), 0u);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet samples;
  for (int i = 1; i <= 100; ++i) samples.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(samples.min(), 1.0);
  EXPECT_DOUBLE_EQ(samples.max(), 100.0);
  EXPECT_NEAR(samples.median(), 50.5, 1e-9);
  EXPECT_NEAR(samples.percentile(0.99), 99.01, 0.01);
  EXPECT_NEAR(samples.mean(), 50.5, 1e-9);
}

TEST(SampleSet, SingleSample) {
  SampleSet samples;
  samples.add(42.0);
  EXPECT_EQ(samples.median(), 42.0);
  EXPECT_EQ(samples.percentile(0.0), 42.0);
  EXPECT_EQ(samples.percentile(1.0), 42.0);
}

TEST(Series, TableAndCsvRendering) {
  Series series;
  series.x_label = "bytes";
  series.y_labels = {"a", "b"};
  series.add(1, {10.5, 20.25});
  series.add(2, {11.0, 21.0});
  const std::string table = series.to_table();
  EXPECT_NE(table.find("# bytes\ta\tb"), std::string::npos);
  EXPECT_NE(table.find("1\t10.500\t20.250"), std::string::npos);
  const std::string csv = series.to_csv();
  EXPECT_NE(csv.find("bytes,a,b"), std::string::npos);
  EXPECT_NE(csv.find("2,11.000,21.000"), std::string::npos);
}

TEST(Series, MismatchedColumnsAbort) {
  Series series;
  series.y_labels = {"only_one"};
  EXPECT_DEATH(series.add(1, {1.0, 2.0}), "check failed");
}

TEST(Sizes, PowerOfTwoLadder) {
  const auto sizes = power_of_two_sizes(1024);
  ASSERT_EQ(sizes.size(), 11u);
  EXPECT_EQ(sizes.front(), 1u);
  EXPECT_EQ(sizes.back(), 1024u);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, RangesRespected) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolIsBalancedEnough) {
  Rng rng(99);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.next_bool() ? 1 : 0;
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(EnvFlag, EveryFlagKnobFollowsOneRule) {
  // Each on/off knob with its default, read by its consumer where that
  // reads the environment on every call (MADMPI_FT_COLLECTIVES is read
  // once per process, the two tuner knobs inside a run).
  struct Knob {
    const char* name;
    bool fallback;
    std::function<bool()> read;
  };
  const Knob knobs[] = {
      {"MADMPI_COLL_TUNE", false, nullptr},
      {"MADMPI_COLL_TUNE_LOG", false, nullptr},
      {"MADMPI_FT_COLLECTIVES", false, nullptr},
      {"MADMPI_COLL_OFFLOAD", true, [] { return mpi::coll_offload_default(); }},
      {"MADMPI_SLAB_DISABLE", false,
       [] { return SlabPool::Options::from_env().disabled; }},
  };
  struct Row {
    const char* value;  // nullptr: unset
    int expected;       // 0 off, 1 on, -1 the knob's default
  };
  const Row rows[] = {
      {nullptr, -1}, {"", -1},     {"0", 0},     {"off", 0},   {"OFF", 0},
      {"Off", 0},    {"false", 0}, {"FALSE", 0}, {"no", 0},    {"No", 0},
      {"1", 1},      {"on", 1},    {"true", 1},  {"yes", 1},   {"2", 1},
  };
  for (const Knob& knob : knobs) {
    const char* saved = std::getenv(knob.name);
    const std::string restore = saved != nullptr ? saved : "";
    for (const Row& row : rows) {
      if (row.value == nullptr) {
        ::unsetenv(knob.name);
      } else {
        ::setenv(knob.name, row.value, /*overwrite=*/1);
      }
      const bool expected = row.expected < 0 ? knob.fallback : row.expected;
      const char* shown = row.value != nullptr ? row.value : "(unset)";
      EXPECT_EQ(env_flag(knob.name, knob.fallback), expected)
          << knob.name << "=" << shown;
      if (knob.read) {
        EXPECT_EQ(knob.read(), expected) << knob.name << "=" << shown;
      }
    }
    if (saved != nullptr) {
      ::setenv(knob.name, restore.c_str(), 1);
    } else {
      ::unsetenv(knob.name);
    }
  }
}

}  // namespace
}  // namespace madmpi
