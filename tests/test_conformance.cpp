// The schedule-exploration harness itself: decision determinism, replay
// (same seed => byte-identical trace), sweep mechanics, and the end-to-end
// proof that a planted violation is caught, replayed and shrunk.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/session.hpp"
#include "core/watchdog.hpp"
#include "harness.hpp"
#include "sim/sched.hpp"
#include "sim/trace.hpp"

namespace madmpi {
namespace {

using conformance::find_scenario;
using conformance::run_scenario;
using conformance::run_sweep;
using conformance::Scenario;
using conformance::shrink_mask;
using sim::kSchedAllChoices;
using sim::sched_bit;
using sim::SchedChoice;
using sim::ScheduleController;

/// Restore the process-global controller state after each test.
struct SchedGuard {
  ~SchedGuard() { ScheduleController::uninstall(); }
};

TEST(ScheduleController, DecisionsArePureInSeedAndIdentity) {
  ScheduleController a(1234);
  ScheduleController b(1234);
  ScheduleController other(99);
  bool any_differs = false;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const node_id_t node = static_cast<node_id_t>(i % 3);
    EXPECT_DOUBLE_EQ(a.poll_wakeup_jitter_us(node, 1, i),
                     b.poll_wakeup_jitter_us(node, 1, i));
    EXPECT_DOUBLE_EQ(a.poll_frequency_jitter_us(node, 2, 10.0),
                     b.poll_frequency_jitter_us(node, 2, 10.0));
    EXPECT_DOUBLE_EQ(a.delivery_bias_us(0, node, i),
                     b.delivery_bias_us(0, node, i));
    EXPECT_EQ(a.credit_batch_threshold(0, 1, i, 4096),
              b.credit_batch_threshold(0, 1, i, 4096));
    EXPECT_DOUBLE_EQ(a.fault_offset_us(i), b.fault_offset_us(i));
    any_differs |=
        a.delivery_bias_us(0, node, i) != other.delivery_bias_us(0, node, i);
  }
  EXPECT_TRUE(any_differs);  // the seed actually reaches the decisions
}

TEST(ScheduleController, DecisionsStayInsideTheirDocumentedRanges) {
  ScheduleController sched(42);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const usec_t wakeup = sched.poll_wakeup_jitter_us(0, 0, i);
    EXPECT_GE(wakeup, 0.0);
    EXPECT_LT(wakeup, 4.0);
    const usec_t freq = sched.poll_frequency_jitter_us(
        static_cast<node_id_t>(i % 7), static_cast<channel_id_t>(i % 5),
        10.0);
    EXPECT_GE(freq, 0.0);
    EXPECT_LE(freq, 5.0);
    const usec_t bias = sched.delivery_bias_us(1, 0, i);
    EXPECT_GE(bias, 0.0);
    EXPECT_LT(bias, 5.0);
    const std::size_t threshold = sched.credit_batch_threshold(0, 1, i, 4096);
    EXPECT_GE(threshold, 1024u);
    EXPECT_LE(threshold, 3072u);
    const usec_t offset = sched.fault_offset_us(i);
    EXPECT_GE(offset, 0.0);
    EXPECT_LT(offset, 500.0);
  }
}

TEST(ScheduleController, MaskBitsGateEachChoicePoint) {
  ScheduleController only_bias(7, sched_bit(SchedChoice::kDeliveryOrder));
  EXPECT_DOUBLE_EQ(only_bias.poll_wakeup_jitter_us(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(only_bias.poll_frequency_jitter_us(0, 0, 10.0), 0.0);
  EXPECT_EQ(only_bias.credit_batch_threshold(0, 1, 0, 4096), 2048u);
  EXPECT_DOUBLE_EQ(only_bias.fault_offset_us(3), 0.0);
  // The enabled bit still perturbs (for this seed the bias is nonzero).
  EXPECT_GT(only_bias.delivery_bias_us(0, 1, 0), 0.0);
}

TEST(ScheduleController, InstallZeroUninstalls) {
  SchedGuard guard;
  EXPECT_NE(ScheduleController::install(5), nullptr);
  EXPECT_NE(ScheduleController::current(), nullptr);
  EXPECT_EQ(ScheduleController::install(0), nullptr);
  EXPECT_EQ(ScheduleController::current(), nullptr);
}

TEST(Replay, SameSeedProducesByteIdenticalTrace) {
  // The acceptance property of the whole subsystem: two runs of the same
  // scenario under the same seed render the exact same event trace.
  SchedGuard guard;
  const Scenario* scenario = find_scenario("probe");
  ASSERT_NE(scenario, nullptr);

  auto trace_once = [&] {
    sim::Tracer::global().clear();
    sim::Tracer::global().enable();
    const auto result = run_scenario(*scenario, 42, kSchedAllChoices);
    EXPECT_TRUE(result.passed());
    std::string csv = sim::Tracer::global().to_csv();
    sim::Tracer::global().disable();
    sim::Tracer::global().clear();
    return csv;
  };
  const std::string first = trace_once();
  const std::string second = trace_once();
  EXPECT_GT(first.size(), 100u);  // the run actually traced something
  EXPECT_EQ(first, second);
}

TEST(Replay, DifferentSeedsPerturbDifferently) {
  SchedGuard guard;
  // Not a correctness requirement seed-by-seed, but if every seed produced
  // the same schedule the fuzzer would explore nothing. Compare decision
  // streams, which is cheap and deterministic.
  ScheduleController a(1), b(2);
  bool differs = false;
  for (std::uint64_t i = 0; i < 32 && !differs; ++i) {
    differs = a.poll_wakeup_jitter_us(0, 0, i) !=
              b.poll_wakeup_jitter_us(0, 0, i);
  }
  EXPECT_TRUE(differs);
}

TEST(Sweep, ShortSweepOfRealScenariosIsGreen) {
  SchedGuard guard;
  for (const char* name : {"probe", "flowcontrol"}) {
    const Scenario* scenario = find_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    const auto report =
        run_sweep(*scenario, /*seeds=*/3, /*seed_base=*/1, kSchedAllChoices);
    EXPECT_TRUE(report.passed())
        << name << ": " << report.failures.size() << " failing seeds, first "
        << (report.failures.empty() ? 0u : report.failures.front().seed);
  }
}

TEST(Sweep, SeedZeroIsNeverSwept) {
  SchedGuard guard;
  const Scenario* scenario = find_scenario("selftest");
  ASSERT_NE(scenario, nullptr);
  // seed_base 0 would make the first seed 0 ("perturbation off"), which
  // must be remapped — selftest trivially passes unperturbed, so a sweep
  // that silently ran seed 0 would under-count failures.
  const auto report = run_sweep(*scenario, /*seeds=*/2, /*seed_base=*/0,
                                kSchedAllChoices, /*shrink=*/false);
  for (const auto& failure : report.failures) {
    EXPECT_NE(failure.seed, 0u);
  }
}

TEST(Sweep, InjectedViolationIsCaughtReplayedAndShrunk) {
  // End-to-end proof of the kit using the planted selftest scenario (its
  // oracle fails whenever the delivery bias of one fixed message identity
  // exceeds 2.5us — true for roughly half of all seeds).
  SchedGuard guard;
  const Scenario* scenario = find_scenario("selftest");
  ASSERT_NE(scenario, nullptr);

  // 1. The sweep catches it.
  const auto report = run_sweep(*scenario, /*seeds=*/16, /*seed_base=*/1,
                                kSchedAllChoices, /*shrink=*/false);
  ASSERT_FALSE(report.failures.empty())
      << "16 seeds should include at least one with bias > 2.5us";
  const std::uint64_t seed = report.failures.front().seed;

  // 2. The recorded seed replays the violation, bit-identically.
  const auto once = run_scenario(*scenario, seed, kSchedAllChoices);
  const auto twice = run_scenario(*scenario, seed, kSchedAllChoices);
  ASSERT_EQ(once.violations.size(), 1u);
  ASSERT_EQ(twice.violations.size(), 1u);
  EXPECT_EQ(once.violations[0].detail, twice.violations[0].detail);

  // 3. Shrinking isolates exactly the choice point that matters.
  EXPECT_EQ(shrink_mask(*scenario, seed, kSchedAllChoices),
            sched_bit(SchedChoice::kDeliveryOrder));

  // 4. And the scenario passes with that choice point disabled — the
  //    shrunk mask is minimal, not just sufficient.
  EXPECT_TRUE(run_scenario(*scenario, seed,
                           kSchedAllChoices &
                               ~sched_bit(SchedChoice::kDeliveryOrder))
                  .passed());
}

TEST(Sweep, SweepSeedCountReadsTheEnvironment) {
  EXPECT_GT(conformance::sweep_seed_count(), 0);
}

TEST(Sweep, JsonArtifactRecordsFailures) {
  SchedGuard guard;
  const Scenario* scenario = find_scenario("selftest");
  ASSERT_NE(scenario, nullptr);
  auto report = run_sweep(*scenario, /*seeds=*/8, /*seed_base=*/1,
                          kSchedAllChoices);
  ASSERT_FALSE(report.failures.empty());
  const std::string json = conformance::to_json({report});
  EXPECT_NE(json.find("\"scenario\": \"selftest\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": " +
                      std::to_string(report.failures.front().seed)),
            std::string::npos);
  EXPECT_NE(json.find("delivery-order"), std::string::npos);
  EXPECT_NE(json.find("injected violation"), std::string::npos);
}

TEST(Watchdog, FingerprintSkipsSweepsWhileTimeAdvances) {
  // A standalone watchdog whose fingerprint changes every tick: all sweeps
  // except the forced every-kForcedSweepPeriod-th are skipped.
  std::atomic<int> sweeps{0};
  std::atomic<std::uint64_t> print{0};
  marcel::Executor executor;
  core::ProgressWatchdog watchdog(
      executor, [&sweeps] { sweeps.fetch_add(1); },
      std::chrono::milliseconds(1),
      [&print] { return print.fetch_add(1) + 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  watchdog.stop();
  EXPECT_GT(watchdog.sweeps_skipped(), 0u);
  // Forced sweeps keep firing: the skip optimisation must never starve the
  // detector entirely.
  EXPECT_GT(sweeps.load(), 0);
}

TEST(Watchdog, StaticFingerprintNeverSkips) {
  std::atomic<int> sweeps{0};
  marcel::Executor executor;
  core::ProgressWatchdog watchdog(executor,
                                  [&sweeps] { sweeps.fetch_add(1); },
                                  std::chrono::milliseconds(1),
                                  [] { return std::uint64_t{7}; });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  watchdog.stop();
  EXPECT_EQ(watchdog.sweeps_skipped(), 0u);
  EXPECT_GT(sweeps.load(), 0);
}

TEST(Watchdog, SessionFingerprintTracksClockMovement) {
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  core::Session session(std::move(options));
  ASSERT_NE(session.watchdog(), nullptr);  // finalize() stops its loop
  session.run([](mpi::Comm comm) {
    int value = comm.rank();
    int sum = 0;
    comm.allreduce(&value, &sum, 1, mpi::Datatype::int32(), mpi::Op::sum());
  });
  session.finalize();  // quiesce: every lane is now parked
  const std::uint64_t before = session.progress_fingerprint();
  EXPECT_EQ(before, session.progress_fingerprint());  // stable at rest
}

}  // namespace
}  // namespace madmpi
