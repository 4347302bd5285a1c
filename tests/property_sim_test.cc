// Property sweep for the deterministic simulation harness: N seeded random
// 50-event chaos schedules (partitions, crashes, power loss, clock skew,
// delay and io-fault bursts, elastic add-node/start-rebalance growth —
// interleaved with whole-stack workloads), each run on a fresh cluster and
// held to the standard invariant catalogue.
//
// Replay workflow (README "Simulation testing"):
//   LIDI_SIM_SEEDS=5000 ctest -R property_sim_test  # widen the sweep
//   LIDI_SIM_SEED=1234 ctest -R property_sim_test   # replay one failure
//   LIDI_SIM_EVENTS=80 ...                          # longer schedules
//
// A failing seed does not just fail: the test ddmin-shrinks the schedule to
// a minimal reproducer and prints it alongside the run trace, so the bug
// report is `--seed=N` plus a handful of events instead of fifty.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/invariants.h"
#include "sim/schedule.h"
#include "sim/sim_cluster.h"

namespace lidi::sim {
namespace {

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return fallback;
}

std::vector<uint64_t> SweepSeeds() {
  if (const char* env = std::getenv("LIDI_SIM_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  const int count = EnvInt("LIDI_SIM_SEEDS", 1000);
  std::vector<uint64_t> seeds;
  for (int i = 1; i <= count; ++i) seeds.push_back(static_cast<uint64_t>(i));
  return seeds;
}

std::string Describe(uint64_t seed,
                     const std::vector<InvariantViolation>& violations,
                     const Schedule& shrunk, const std::string& trace) {
  std::string out = "seed " + std::to_string(seed) +
                    " violated invariants (replay: LIDI_SIM_SEED=" +
                    std::to_string(seed) + "):\n";
  for (const auto& v : violations) {
    out += "  " + v.invariant + ": " + v.detail + "\n";
  }
  out += "minimal reproducer (ddmin):\n" + FormatSchedule(shrunk);
  out += "--- trace of the full run ---\n" + trace;
  return out;
}

TEST(SimProperty, RandomSchedulesUpholdInvariants) {
  const int num_events = EnvInt("LIDI_SIM_EVENTS", 50);
  for (uint64_t seed : SweepSeeds()) {
    const Schedule schedule = GenerateSchedule(seed, num_events);
    SimOptions options;
    options.seed = seed;
    std::string trace;
    auto violations = RunScheduleOnFreshCluster(options, schedule, &trace);
    if (violations.empty()) continue;
    // Shrink before reporting: re-run candidate subsequences on fresh
    // clusters until the schedule is 1-minimal (within the probe budget).
    const auto fails = [&options](const Schedule& candidate) {
      return !RunScheduleOnFreshCluster(options, candidate).empty();
    };
    const Schedule shrunk = ShrinkSchedule(schedule, fails, /*max_probes=*/48);
    ADD_FAILURE() << Describe(seed, violations, shrunk, trace);
  }
}

// The sweep must actually exercise elasticity: the generator's roll table
// includes kAddNode and kStartRebalance, so ddmin shrinking covers live
// partition-movement schedules too. Pin that — a generator change that
// silently dropped the elastic kinds would hollow out the whole sweep.
TEST(SimProperty, SweepSchedulesIncludeElasticityEvents) {
  const int num_events = EnvInt("LIDI_SIM_EVENTS", 50);
  int add_node = 0;
  int start_rebalance = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    for (const SimEvent& event : GenerateSchedule(seed, num_events).events) {
      if (event.kind == EventKind::kAddNode) ++add_node;
      if (event.kind == EventKind::kStartRebalance) ++start_rebalance;
    }
  }
  EXPECT_GT(add_node, 0);
  EXPECT_GT(start_rebalance, 0);
}

// Acceptance gate for the harness itself: same seed => byte-identical trace,
// across every tier's randomness (network faults, io faults, workload keys,
// producer partitioning). Checked on a sample of the sweep range.
TEST(SimProperty, SweepIsDeterministic) {
  const int num_events = EnvInt("LIDI_SIM_EVENTS", 50);
  for (uint64_t seed : {1ull, 17ull, 33ull, 49ull, 65ull}) {
    const Schedule schedule = GenerateSchedule(seed, num_events);
    SimOptions options;
    options.seed = seed;
    std::string trace_a;
    std::string trace_b;
    RunScheduleOnFreshCluster(options, schedule, &trace_a);
    RunScheduleOnFreshCluster(options, schedule, &trace_b);
    ASSERT_FALSE(trace_a.empty());
    EXPECT_EQ(trace_a, trace_b) << "nondeterministic trace at seed " << seed;
  }
}

}  // namespace
}  // namespace lidi::sim
