// Scenario soak: fuzz synthesized scenarios through real scheduler stacks
// and assert the invariants that must hold no matter what the workload
// does — exactly-once dispatch, no stall, conservation (every transaction
// terminates; nothing left queued or pending), and accountant balance.
//
// The matrix crosses every built-in scenario with a seed set (extend it
// with DECLSCHED_SOAK_SEEDS=csv), both scheduler stacks (unsharded, and
// sharded cooperative), and three consistency policies (fixed strict,
// fixed relaxed, adaptive). Overlay trials add mid-run forced protocol
// switches, admission drain windows, and crash+recover points (sharded +
// durable stacks).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "scenario/runner.h"
#include "scenario/scenario_spec.h"
#include "scenario/synthesizer.h"
#include "scheduler/protocol_library.h"
#include "test_util.h"

namespace declsched::scenario {
namespace {

enum class Policy { kFixedStrict, kFixedRelaxed, kAdaptive };

const char* PolicyName(Policy p) {
  switch (p) {
    case Policy::kFixedStrict:
      return "fixed-strict";
    case Policy::kFixedRelaxed:
      return "fixed-relaxed";
    case Policy::kAdaptive:
      return "adaptive";
  }
  return "?";
}

std::vector<uint64_t> SoakSeeds() {
  return testing::SeedsFromEnv("DECLSCHED_SOAK_SEEDS", {1, 101, 202, 303});
}

ScenarioRunnerOptions MakeOptions(bool sharded, Policy policy) {
  ScenarioRunnerOptions options;
  options.sharded = sharded;
  options.num_shards = 3;
  switch (policy) {
    case Policy::kFixedStrict:
      options.protocol = scheduler::Ss2plNative();
      break;
    case Policy::kFixedRelaxed:
      options.protocol = scheduler::ReadCommittedNative();
      break;
    case Policy::kAdaptive: {
      scheduler::AdaptiveConsistencyController::Options adaptive;
      adaptive.strict = scheduler::Ss2plNative();
      adaptive.relaxed = scheduler::ReadCommittedNative();
      adaptive.relax_above = 48;
      adaptive.tighten_below = 12;
      adaptive.min_cycles_between_switches = 8;
      options.adaptive = adaptive;
      break;
    }
  }
  return options;
}

void AssertInvariants(const ScenarioTrace& trace, const ScenarioOutcome& o,
                      const std::string& label) {
  EXPECT_EQ(o.duplicate_dispatches, 0) << label;
  EXPECT_EQ(o.committed + o.aborted, o.txns) << label;
  EXPECT_EQ(o.end_queue, 0) << label;
  EXPECT_EQ(o.end_pending, 0) << label;
  EXPECT_EQ(o.acct_pending, 0) << label;
  EXPECT_EQ(o.acct_inflight, 0) << label;
  EXPECT_LE(o.dispatched_requests, o.submitted_requests) << label;
  EXPECT_EQ(o.txns, static_cast<int64_t>(trace.txns.size())) << label;
  // Soak scenarios are sized so the system makes real progress: a run
  // that aborts everything is a scheduling bug even if it "terminates".
  EXPECT_GT(o.committed, o.txns / 2) << label;
}

int RunTrial(const ScenarioSpec& spec, uint64_t seed, bool sharded,
             Policy policy) {
  ScenarioSynthesizer synth(spec, seed);
  Result<ScenarioTrace> trace = synth.Synthesize();
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  if (!trace.ok()) return 0;
  const std::string label =
      spec.name + " seed=" + std::to_string(seed) +
      (sharded ? " sharded " : " unsharded ") + PolicyName(policy);
  const auto t0 = std::chrono::steady_clock::now();
  Result<ScenarioOutcome> outcome =
      RunScenario(trace.ValueOrDie(), MakeOptions(sharded, policy));
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_TRUE(outcome.ok()) << label << ": " << outcome.status().ToString();
  if (!outcome.ok()) return 0;
  AssertInvariants(trace.ValueOrDie(), outcome.ValueOrDie(), label);
  if (std::getenv("DECLSCHED_SOAK_DEBUG")) {
    const ScenarioOutcome& o = outcome.ValueOrDie();
    fprintf(stderr, "[trial] %s ticks=%lld committed=%lld aborted=%lld ms=%lld\n",
            label.c_str(), static_cast<long long>(o.ticks),
            static_cast<long long>(o.committed),
            static_cast<long long>(o.aborted),
            static_cast<long long>(
                std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0)
                    .count()));
  }
  return 1;
}

TEST(ScenarioSoakTest, FullMatrixHoldsInvariants) {
  const std::vector<ScenarioSpec> specs = BuiltInScenarios();
  const std::vector<uint64_t> seeds = SoakSeeds();
  int trials = 0;
  for (const ScenarioSpec& spec : specs) {
    for (uint64_t seed : seeds) {
      for (bool sharded : {false, true}) {
        for (Policy policy :
             {Policy::kFixedStrict, Policy::kFixedRelaxed, Policy::kAdaptive}) {
          trials += RunTrial(spec, seed, sharded, policy);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  // The acceptance bar: 200+ randomized (scenario x seed) trials.
  EXPECT_GE(trials, 200) << "soak matrix shrank below the acceptance floor";
}

TEST(ScenarioSoakTest, MidRunSwitchAndDrainOverlays) {
  const std::vector<uint64_t> seeds = SoakSeeds();
  for (const char* name : {"uniform-quiet", "hot-write-burst", "deadlock-prone"}) {
    Result<ScenarioSpec> found = FindBuiltInScenario(name);
    ASSERT_TRUE(found.ok());
    ScenarioSpec spec = std::move(found).ValueOrDie();
    // Keep overlay trials small: the drain window piles up a dense conflict
    // set, and quadratic qualification cost on top of a full-size scenario
    // turns a unit test into a minutes-long soak.
    spec.txns = std::min<int64_t>(spec.txns, 96);
    spec.switches.push_back({20, "read-committed-native"});
    spec.switches.push_back({60, "ss2pl-native"});
    spec.switches.push_back({90, "edf-native"});
    spec.drains.push_back({40, 55});
    for (uint64_t seed : seeds) {
      for (bool sharded : {false, true}) {
        RunTrial(spec, seed, sharded, Policy::kFixedStrict);
        RunTrial(spec, seed, sharded, Policy::kAdaptive);
      }
    }
  }
}

TEST(ScenarioSoakTest, CrashOverlayRecoversAndKeepsInvariants) {
  Result<ScenarioSpec> found = FindBuiltInScenario("cross-shard-heavy");
  ASSERT_TRUE(found.ok());
  ScenarioSpec spec = std::move(found).ValueOrDie();
  spec.txns = 80;
  spec.crash_ticks = {6, 14};
  int trial = 0;
  for (uint64_t seed : {9001u, 9002u}) {
    ScenarioSynthesizer synth(spec, seed);
    Result<ScenarioTrace> trace = synth.Synthesize();
    ASSERT_TRUE(trace.ok());
    ScenarioRunnerOptions options = MakeOptions(/*sharded=*/true, Policy::kAdaptive);
    options.durability.enabled = true;
    options.durability.fsync = false;  // page-cache durability is plenty here
    options.durability.dir = ::testing::TempDir() + "/scenario_crash_" +
                             std::to_string(seed) + "_" + std::to_string(trial++);
    Result<ScenarioOutcome> outcome = RunScenario(trace.ValueOrDie(), options);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.ValueOrDie().crashes, 2);
    AssertInvariants(trace.ValueOrDie(), outcome.ValueOrDie(),
                     "crash seed=" + std::to_string(seed));
  }
}

TEST(ScenarioSoakTest, CrashOverlayRequiresDurableShardedStack) {
  Result<ScenarioSpec> found = FindBuiltInScenario("uniform-quiet");
  ASSERT_TRUE(found.ok());
  ScenarioSpec spec = std::move(found).ValueOrDie();
  spec.crash_ticks = {10};
  ScenarioSynthesizer synth(spec, 1);
  Result<ScenarioTrace> trace = synth.Synthesize();
  ASSERT_TRUE(trace.ok());
  ScenarioRunnerOptions unsharded;
  EXPECT_FALSE(RunScenario(trace.ValueOrDie(), unsharded).ok());
  ScenarioRunnerOptions sharded_not_durable;
  sharded_not_durable.sharded = true;
  EXPECT_FALSE(RunScenario(trace.ValueOrDie(), sharded_not_durable).ok());
}

}  // namespace
}  // namespace declsched::scenario
