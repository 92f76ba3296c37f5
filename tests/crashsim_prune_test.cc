// Persistence-graph pruning: soundness and equal-bug-finding-power gates.
//
// Three pillars (DESIGN.md §12):
//   1. Soundness self-test — verify_classes explores EVERY enumerated state
//      and asserts that all states of an equivalence class produce the same
//      outcome, on all six single-threaded workloads and the multi-threaded
//      one. A single class mismatch falsifies the classifier.
//   2. Equal bug-finding power — with a seeded real bug re-opened (the PR 1
//      torn-append unbound checksum and the PR 5 buddy free-list capture
//      elision, via src/common/bug_hooks.h), pruned exploration must report
//      exactly the same failure set as verify_classes, which recovers every
//      state, while exploring fewer states. Pruning may skip work, never
//      verification coverage.
//   3. Differential state-class gate — across all six workloads, with every
//      crash state enumerated, pruning must collapse enumerated states at
//      least five-fold in aggregate.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/bug_hooks.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/workload_drivers.h"

namespace crashsim {
namespace {

const std::vector<std::string>& SingleThreadedWorkloads() {
  static const std::vector<std::string> kNames = {"list",    "btree",  "art",
                                                  "kvstore", "pmhash", "import"};
  return kNames;
}

HarnessReport RunHarness(const std::string& name, HarnessOptions options,
                  DriverOptions driver_options = {}) {
  auto driver = MakeDriver(name, driver_options);
  EXPECT_NE(driver, nullptr) << name;
  Harness harness(*driver, options);
  auto report = harness.Run();
  EXPECT_TRUE(report.ok()) << name << ": " << report.status().ToString();
  return report.ok() ? *report : HarnessReport{};
}

// The failure set: distinct failing outcomes among explored states. Pruned
// and every-state runs must agree on this set, not on per-state counts (the
// whole point of pruning is exploring fewer states per outcome).
std::set<std::string> FailureSet(const HarnessReport& report) {
  std::set<std::string> failures;
  for (const HarnessReport::StateOutcome& outcome : report.outcomes) {
    if (outcome.explored && !outcome.ok) {
      failures.insert(outcome.outcome);
    }
  }
  return failures;
}

// Clears every bug hook even when a test fails mid-way: a leaked hook would
// silently poison every later test in the binary.
class BugHookGuard {
 public:
  ~BugHookGuard() {
    puddles::bug_hooks::torn_append_unbound_checksum = false;
    puddles::bug_hooks::buddy_skip_protective_capture = false;
  }
};

// ---- Pillar 1: soundness self-test ----

TEST(CrashsimPruneSoundness, EveryClassIsOutcomeUniformOnAllWorkloads) {
  for (const std::string& name : SingleThreadedWorkloads()) {
    HarnessOptions options;
    options.verify_classes = true;
    HarnessReport report = RunHarness(name, options);
    EXPECT_GT(report.states_explored, 0u) << name;
    EXPECT_EQ(report.class_mismatches, 0u) << name;
    EXPECT_EQ(report.recovery_failures, 0u) << name;
    EXPECT_EQ(report.invariant_failures, 0u) << name;
    for (const std::string& failure : report.failures) {
      ADD_FAILURE() << name << ": " << failure;
    }
    // Classification must actually merge states, or the self-test is vacuous.
    EXPECT_LT(report.state_classes, report.states_explored) << name;
  }
}

// ---- Multi-threaded trace, end to end ----

TEST(CrashsimPruneSoundness, MultiThreadedTraceExploresAndVerifiesCleanly) {
  DriverOptions driver_options;
  driver_options.ops = 4;
  HarnessOptions options;
  options.verify_classes = true;
  HarnessReport report = RunHarness("mt", options, driver_options);
  EXPECT_EQ(report.trace_threads, 3u);
  EXPECT_GT(report.thread_mask_states, 0u)
      << "multi-threaded trace produced no per-thread in-flight states";
  EXPECT_GT(report.states_explored, 0u);
  EXPECT_EQ(report.class_mismatches, 0u);
  EXPECT_EQ(report.recovery_failures, 0u);
  EXPECT_EQ(report.invariant_failures, 0u);
  for (const std::string& failure : report.failures) {
    ADD_FAILURE() << "mt: " << failure;
  }
  EXPECT_LT(report.state_classes, report.states_explored);
}

// ---- Pillar 2: equal bug-finding power on seeded real bugs ----

void ExpectPrunedMatchesEveryState(const std::string& workload,
                                   DriverOptions driver_options = {}) {
  HarnessOptions every;
  every.verify_classes = true;
  every.record_outcomes = true;
  HarnessReport every_report = RunHarness(workload, every, driver_options);

  HarnessOptions pruned = every;
  pruned.verify_classes = false;
  HarnessReport pruned_report = RunHarness(workload, pruned, driver_options);

  // The seeded bug must actually fire when every state is recovered, or this
  // test proves nothing about pruning.
  EXPECT_GT(every_report.recovery_failures + every_report.invariant_failures, 0u)
      << workload << ": seeded bug not detected when every state was recovered";
  EXPECT_EQ(every_report.class_mismatches, 0u)
      << workload << ": a class recovered to mixed outcomes";
  EXPECT_EQ(FailureSet(every_report), FailureSet(pruned_report))
      << workload << ": pruned exploration missed or invented failures";
  EXPECT_LT(pruned_report.states_explored, every_report.states_explored)
      << workload << ": pruning explored every state";
}

TEST(CrashsimPruneBugFinding, TornAppendUnboundChecksumCaughtEqually) {
  BugHookGuard guard;
  puddles::bug_hooks::torn_append_unbound_checksum = true;
  ExpectPrunedMatchesEveryState("list");
}

TEST(CrashsimPruneBugFinding, BuddyCaptureElisionCaughtEqually) {
  BugHookGuard guard;
  puddles::bug_hooks::buddy_skip_protective_capture = true;
  // The elision only matters for buddy-path allocations, and only ART's
  // Node48/Node256 exceed the slab cutoff: run the config that crosses the
  // Node48 -> Node256 boundary inside the traced window, so promotions
  // allocate (and crash states roll back) buddy blocks.
  DriverOptions driver_options;
  driver_options.ops = 40;
  driver_options.preload = 44;
  ExpectPrunedMatchesEveryState("art", driver_options);
}

// The PR 5 buddy capture-elision bug, re-opened against the arena refill
// path: slab carves during ArenaRefill allocate whole blocks from the buddy,
// so eliding the protective free-list capture corrupts crash states taken
// mid-refill. Recovering every state must catch it (proving the new path
// still depends on the capture), and pruned exploration must report the
// identical failure set while exploring fewer states.
TEST(CrashsimPruneBugFinding, BuddyCaptureElisionCaughtOnArenaRefill) {
  BugHookGuard guard;
  puddles::bug_hooks::buddy_skip_protective_capture = true;
  DriverOptions driver_options;
  driver_options.ops = 18;
  ExpectPrunedMatchesEveryState("allocgc", driver_options);
}

// ---- Pillar 3: differential state-class gate ----

TEST(CrashsimPruneRatio, AggregateCollapseIsAtLeastFiveFold) {
  uint64_t enumerated = 0;
  uint64_t explored = 0;
  for (const std::string& name : SingleThreadedWorkloads()) {
    HarnessReport report = RunHarness(name, {});
    EXPECT_TRUE(report.ok()) << name << ": " << report.Summary();
    EXPECT_GT(report.states_explored, 0u) << name;
    enumerated += report.states_enumerated;
    explored += report.states_explored;
  }
  ASSERT_GT(explored, 0u);
  EXPECT_GE(enumerated, 5 * explored)
      << "aggregate prune ratio " << (static_cast<double>(enumerated) / explored)
      << "x below the 5x bar (" << enumerated << " enumerated / " << explored
      << " explored)";
}

}  // namespace
}  // namespace crashsim
