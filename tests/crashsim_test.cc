// crashsim: systematic crash-state enumeration and recovery verification.
//
// The acceptance bar for the subsystem: for the btree and kvstore workloads,
// every enumerated crash state (>= 100 per workload) must recover through the
// application-independent replay path with all invariants holding, with both
// fence-boundary and eviction-subset states explored. The workload gates run
// with verify_classes, so every state is recovered and each persistence-graph
// class must recover uniformly. Plus unit coverage for the trace recorder, the
// enumerator's determinism, and ApplyCrashState, the in-place crash images
// the other crash tests recover from.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/crashsim/harness.h"
#include "src/crashsim/state_enumerator.h"
#include "src/crashsim/trace.h"
#include "src/crashsim/workload_drivers.h"
#include "src/pmem/flush.h"

namespace crashsim {
namespace {

// ---- Full-stack recovery verification per workload ----

HarnessReport RunWorkload(const std::string& name, int ops = 24) {
  DriverOptions driver_options;
  driver_options.ops = ops;
  auto driver = MakeDriver(name, driver_options);
  EXPECT_NE(driver, nullptr) << name;
  HarnessOptions options;
  options.verify_classes = true;
  Harness harness(*driver, options);
  auto report = harness.Run();
  EXPECT_TRUE(report.ok()) << name << ": " << report.status().ToString();
  return report.ok() ? *report : HarnessReport{};
}

void ExpectFullRecovery(const HarnessReport& report, uint64_t min_states) {
  EXPECT_GE(report.states_enumerated, min_states);
  EXPECT_GT(report.fence_boundary_states, 0u);
  EXPECT_GT(report.eviction_states, 0u);
  EXPECT_EQ(report.recovery_failures, 0u);
  for (const std::string& failure : report.failures) {
    ADD_FAILURE() << report.workload << ": " << failure;
  }
  EXPECT_EQ(report.invariant_failures, 0u);
  EXPECT_EQ(report.class_mismatches, 0u);
  EXPECT_EQ(report.recoveries_ok, report.states_enumerated);
  // The run must actually traverse distinct committed states, or the
  // membership oracle is vacuous.
  EXPECT_GT(report.distinct_outcomes, 2u);
  EXPECT_GT(report.epochs, 0u);
  EXPECT_GT(report.flush_calls, 0u);
  EXPECT_GT(report.fences, 0u);
}

TEST(CrashsimWorkloads, BtreeRecoversFromEveryEnumeratedState) {
  ExpectFullRecovery(RunWorkload("btree"), 100);
}

TEST(CrashsimWorkloads, KvstoreRecoversFromEveryEnumeratedState) {
  ExpectFullRecovery(RunWorkload("kvstore"), 100);
}

TEST(CrashsimWorkloads, ListRecoversFromEveryEnumeratedState) {
  ExpectFullRecovery(RunWorkload("list"), 100);
}

TEST(CrashsimWorkloads, PmhashRecoversFromEveryEnumeratedState) {
  ExpectFullRecovery(RunWorkload("pmhash", 16), 40);
}

// Epoch-based group commit (docs/epoch.md): the driver pins epoch boundaries
// to Sync points, so the membership oracle proves epoch atomicity — a crash
// inside an epoch must roll back every thread's transactions of that epoch,
// never a prefix (cells from round N with committed markers from N-1 is a
// DATA_LOSS mixture). The acceptance bar for the subsystem is ≥300 explored
// states, zero failures — this is what caught the stale-entry revalidation
// bug that tied the epoch tag into the entry checksum (DESIGN.md §13).
TEST(CrashsimWorkloads, EpochRecoversFromEveryEnumeratedState) {
  ExpectFullRecovery(RunWorkload("epoch", 10), 300);
}

// Adaptive radix tree: the acceptance bar for the index subsystem is ≥300
// explored states with zero recovery failures. The driver preloads to just
// under the Node48 -> Node256 boundary and mixes dense inserts, sparse-stem
// inserts, and erases, so lazy expansion, prefix splits, every promotion and
// demotion, and path collapse all mutate inside the traced window; the
// fingerprint is the ordered scan, so recovery is verified through the
// range-scan path as well as structure membership.
TEST(CrashsimWorkloads, ArtRecoversFromEveryEnumeratedState) {
  DriverOptions driver_options;
  driver_options.ops = 40;
  driver_options.preload = 44;  // 44 dense children: traced ops cross 48.
  auto driver = MakeDriver("art", driver_options);
  ASSERT_NE(driver, nullptr);
  HarnessOptions options;
  options.verify_classes = true;
  Harness harness(*driver, options);
  auto report = harness.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->states_enumerated, 300u);
  EXPECT_GT(report->fence_boundary_states, 0u);
  EXPECT_GT(report->eviction_states, 0u);
  EXPECT_EQ(report->recovery_failures, 0u);
  for (const std::string& failure : report->failures) {
    ADD_FAILURE() << report->workload << ": " << failure;
  }
  EXPECT_EQ(report->invariant_failures, 0u);
  EXPECT_EQ(report->class_mismatches, 0u);
  EXPECT_EQ(report->recoveries_ok, report->states_enumerated);
  EXPECT_GT(report->distinct_outcomes, 2u);
}

// Per-thread arena allocator with GC recovery ("allocgc", DESIGN.md §14):
// batched slab refills, unlogged arena frees, spills and periodic full
// flush-backs, crashed mid-refill, mid-spill and mid-flush-back. The
// acceptance bar for the arena subsystem: ≥300 enumerated crash states,
// every one recovering through undo replay + the arena GC a plain OpenPool
// runs, with zero failures: the reachable signature matches a committed
// prefix in every state (GC never reclaimed a live object) and a second GC
// pass finds no active entry. The driver fails an op after a free burst that
// did not spill (kArenaFlushSlabs unchanged), and marks each spill from its
// staged chain unlinks to the commit that runs the buddy releases at its
// head: crash states must land inside those windows.
TEST(CrashsimWorkloads, AllocGcRecoversFromEveryEnumeratedState) {
  const HarnessReport report = RunWorkload("allocgc", 18);
  ExpectFullRecovery(report, 300);
  EXPECT_GT(report.focus_states, 0u) << "no crash state between a spill's unlink and commit";
}

// The same bar under persistence-graph pruning, crashsim's default: the
// GC-recovery states the pruner keeps must still all pass, with the
// enumerated set at ≥300 so pruning is exercised against the full arena
// window.
TEST(CrashsimWorkloads, AllocGcRecoversUnderGraphPruning) {
  DriverOptions driver_options;
  driver_options.ops = 18;
  auto driver = MakeDriver("allocgc", driver_options);
  ASSERT_NE(driver, nullptr);
  HarnessOptions options;
  Harness harness(*driver, options);
  auto report = harness.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->states_enumerated, 300u);
  EXPECT_GT(report->states_explored, 0u);
  EXPECT_LT(report->states_explored, report->states_enumerated);
  EXPECT_GT(report->focus_explored, 0u) << "pruning dropped every mid-spill state";
  EXPECT_EQ(report->recovery_failures, 0u);
  for (const std::string& failure : report->failures) {
    ADD_FAILURE() << report->workload << ": " << failure;
  }
  EXPECT_EQ(report->invariant_failures, 0u);
}

// Import/relocation path (§4.2, DESIGN.md §7): export → import with base
// conflicts → streaming rewrite under the frontier/flag protocol, recovered
// through the stock rewrite-on-map resume. The acceptance bar for the
// subsystem: ≥300 distinct crash states on this path, all recovering with the
// copy's logical contents intact (the driver's source-mutation tripwire makes
// any stale pointer chased back into source memory a fingerprint mismatch).
TEST(CrashsimWorkloads, ImportRewriteRecoversFromEveryEnumeratedState) {
  DriverOptions driver_options;
  driver_options.ops = 160;               // Exported list nodes.
  driver_options.rewrite_batch_objects = 2;  // Dense frontier persists.
  auto driver = MakeDriver("import", driver_options);
  ASSERT_NE(driver, nullptr);
  HarnessOptions options;
  options.verify_classes = true;
  Harness harness(*driver, options);
  auto report = harness.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->states_enumerated, 300u);
  EXPECT_GT(report->fence_boundary_states, 0u);
  EXPECT_GT(report->eviction_states, 0u);
  EXPECT_EQ(report->recovery_failures, 0u);
  for (const std::string& failure : report->failures) {
    ADD_FAILURE() << report->workload << ": " << failure;
  }
  EXPECT_EQ(report->invariant_failures, 0u);
  EXPECT_EQ(report->class_mismatches, 0u);
  EXPECT_EQ(report->recoveries_ok, report->states_enumerated);
  // The rewrite never changes logical content, so every crash state on this
  // path must recover to the ONE legal fingerprint (unlike the mutation
  // workloads, where each op boundary is distinct).
  EXPECT_EQ(report->distinct_outcomes, 1u);
  EXPECT_GT(report->epochs, 100u) << "batched frontier protocol should persist often";
}

// ---- Trace recorder ----

TEST(CrashsimTrace, RecordsEpochsFlushDeltasAndDirtyLines) {
  alignas(64) static uint8_t region[512];
  std::memset(region, 0, sizeof(region));

  TraceRecorder recorder;
  recorder.Start({TracedRegion{reinterpret_cast<uintptr_t>(region), sizeof(region), "", "r"}});

  region[0] = 1;
  pmem::Flush(&region[0], 1);
  pmem::Fence();  // Epoch 0: one delta, no dirty lines.

  region[64] = 2;
  pmem::Flush(&region[64], 1);  // In-flight flush.
  region[128] = 3;              // Dirty, never flushed.
  pmem::Fence();                // Epoch 1: one delta, one dirty line.

  region[256] = 4;  // Dirty when Stop closes the trailing epoch.
  Trace trace = recorder.Stop();

  ASSERT_EQ(trace.epochs.size(), 3u);
  EXPECT_EQ(trace.fences, 2u);
  EXPECT_EQ(trace.flush_calls, 2u);

  ASSERT_EQ(trace.epochs[0].deltas.size(), 1u);
  EXPECT_EQ(trace.epochs[0].deltas[0].offset, 0u);
  EXPECT_EQ(trace.epochs[0].deltas[0].bytes.size(), 64u);
  EXPECT_EQ(trace.epochs[0].deltas[0].bytes[0], 1);
  EXPECT_TRUE(trace.epochs[0].dirty_at_close.empty());

  ASSERT_EQ(trace.epochs[1].deltas.size(), 1u);
  EXPECT_EQ(trace.epochs[1].deltas[0].offset, 64u);
  ASSERT_EQ(trace.epochs[1].dirty_at_close.size(), 1u);
  EXPECT_EQ(trace.epochs[1].dirty_at_close[0].offset, 128u);
  EXPECT_EQ(trace.epochs[1].dirty_at_close[0].live[0], 3);

  // The trailing epoch sees both still-dirty lines (128 stays unflushed).
  ASSERT_EQ(trace.epochs[2].dirty_at_close.size(), 2u);
  EXPECT_EQ(trace.epochs[2].dirty_at_close[0].offset, 128u);
  EXPECT_EQ(trace.epochs[2].dirty_at_close[1].offset, 256u);
}

TEST(CrashsimTrace, IgnoresFlushesOutsideTracedRegions) {
  alignas(64) static uint8_t traced[128];
  alignas(64) static uint8_t untraced[128];
  std::memset(traced, 0, sizeof(traced));
  std::memset(untraced, 0, sizeof(untraced));

  TraceRecorder recorder;
  recorder.Start({TracedRegion{reinterpret_cast<uintptr_t>(traced), sizeof(traced), "", "t"}});
  untraced[0] = 9;
  pmem::FlushFence(&untraced[0], 1);
  Trace trace = recorder.Stop();
  ASSERT_EQ(trace.epochs.size(), 2u);
  EXPECT_TRUE(trace.epochs[0].deltas.empty());
  EXPECT_TRUE(trace.epochs[0].dirty_at_close.empty());
}

// ---- State enumerator ----

Trace MakeSyntheticTrace(size_t num_epochs) {
  Trace trace;
  trace.regions.push_back(TracedRegion{0, 4096, "", "synthetic"});
  for (size_t e = 0; e < num_epochs; ++e) {
    Epoch epoch;
    FlushDelta delta;
    delta.region = 0;
    delta.offset = (e % 8) * 64;
    delta.bytes.assign(64, static_cast<uint8_t>(e + 1));
    epoch.deltas.push_back(std::move(delta));
    DirtyLine dirty;
    dirty.region = 0;
    dirty.offset = 512 + (e % 4) * 64;
    dirty.live.assign(64, static_cast<uint8_t>(0x80 + e));
    epoch.dirty_at_close.push_back(std::move(dirty));
    trace.epochs.push_back(std::move(epoch));
  }
  trace.fences = num_epochs;
  trace.flush_calls = num_epochs;
  return trace;
}

TEST(CrashsimEnumerator, CoversEveryFenceBoundaryPlusEvictionSubsets) {
  Trace trace = MakeSyntheticTrace(10);
  EnumerationOptions options;
  options.eviction_subsets_per_epoch = 3;
  std::vector<CrashStateSpec> specs = EnumerateCrashStates(trace, options);
  // 10 epochs with in-flight lines: (1 boundary + 3 subsets) each, plus the
  // complete-run state.
  ASSERT_EQ(specs.size(), 10u * 4u + 1u);
  uint64_t boundaries = 0, evictions = 0;
  for (const CrashStateSpec& spec : specs) {
    spec.evict ? ++evictions : ++boundaries;
  }
  EXPECT_EQ(boundaries, 11u);
  EXPECT_EQ(evictions, 30u);
}

TEST(CrashsimEnumerator, MaterializationIsDeterministicAndOrdered) {
  Trace trace = MakeSyntheticTrace(6);
  std::vector<CrashStateSpec> specs = EnumerateCrashStates(trace, {});

  auto materialize = [&](const CrashStateSpec& spec) {
    std::vector<uint8_t> image(4096, 0);
    MaterializeCrashState(trace, spec,
                          [&](uint32_t region, uint64_t offset, const uint8_t* data,
                              size_t size) {
                            ASSERT_EQ(region, 0u);
                            ASSERT_LE(offset + size, image.size());
                            std::memcpy(image.data() + offset, data, size);
                          });
    return image;
  };

  for (const CrashStateSpec& spec : specs) {
    EXPECT_EQ(materialize(spec), materialize(spec)) << spec.ToString();
  }

  // A fence-boundary state at epoch k contains exactly the deltas of epochs
  // < k and nothing from the open epoch.
  CrashStateSpec at3;
  at3.epoch = 3;
  std::vector<uint8_t> image = materialize(at3);
  EXPECT_EQ(image[0 * 64], 1);  // Epoch 0 delta.
  EXPECT_EQ(image[2 * 64], 3);  // Epoch 2 delta.
  EXPECT_EQ(image[3 * 64], 0);  // Epoch 3 delta is in flight: excluded.
  EXPECT_EQ(image[512], 0);     // Dirty lines excluded without eviction.
}

TEST(CrashsimEnumerator, EvictionSubsetsDifferAcrossSeedsAndIncludeDirtyLines) {
  Trace trace = MakeSyntheticTrace(4);
  EnumerationOptions options;
  options.eviction_subsets_per_epoch = 8;
  std::vector<CrashStateSpec> specs = EnumerateCrashStates(trace, options);

  std::map<std::vector<uint8_t>, int> images;
  int dirty_included = 0;
  for (const CrashStateSpec& spec : specs) {
    if (!spec.evict || spec.epoch != 2) {
      continue;
    }
    std::vector<uint8_t> image(4096, 0);
    MaterializeCrashState(trace, spec,
                          [&](uint32_t, uint64_t offset, const uint8_t* data, size_t size) {
                            std::memcpy(image.data() + offset, data, size);
                          });
    if (image[512 + 2 * 64] != 0) {
      ++dirty_included;  // Epoch 2's dirty line made it into this subset.
    }
    images[image]++;
  }
  EXPECT_GT(images.size(), 1u) << "all eviction subsets produced the same image";
  EXPECT_GT(dirty_included, 0) << "dirty lines never included in any subset";
}

// Write-backs of one line reach the media in coherence order. Thread 1 never
// fences, so its write-backs stay in flight; thread 0 fences every epoch.
// Line 0: thread 1's write-back (1) is older than thread 0's (2), so it can
// never land over it. Line 64: thread 1's write-back (4) is the newer one
// and may survive.
TEST(CrashsimEnumerator, InFlightWriteBackNeverLandsOverANewerDurableOne) {
  auto delta = [](uint32_t thread, uint64_t offset, uint8_t fill) {
    FlushDelta d;
    d.offset = offset;
    d.thread = thread;
    d.bytes.assign(64, fill);
    return d;
  };
  Trace trace;
  trace.regions.push_back({.base = 0, .size = 128});
  trace.num_threads = 2;
  trace.epochs.resize(3);
  trace.epochs[0].deltas = {delta(1, 0, 1), delta(0, 64, 3)};
  trace.epochs[1].deltas = {delta(0, 0, 2), delta(1, 64, 4)};
  trace.epochs[2].fencing_thread = Epoch::kNoFence;

  EnumerationOptions options;
  options.eviction_subsets_per_epoch = 16;
  std::set<uint8_t> line64;
  for (const CrashStateSpec& spec : EnumerateCrashStates(trace, options)) {
    if (spec.epoch < 2) {
      continue;  // Thread 0's write-back of line 0 is not yet fenced.
    }
    std::vector<uint8_t> image(128, 0);
    MaterializeCrashState(trace, spec,
                          [&](uint32_t, uint64_t offset, const uint8_t* data, size_t size) {
                            std::memcpy(image.data() + offset, data, size);
                          });
    EXPECT_EQ(image[0], 2) << spec.ToString();
    line64.insert(image[64]);
  }
  EXPECT_EQ(line64, (std::set<uint8_t>{3, 4}));
}

// ---- In-place crash images (ApplyCrashState) ----

TracedRegion Traced(void* base, size_t size) {
  return {.base = reinterpret_cast<uintptr_t>(base), .size = size};
}

// Power fails now: the strict image, or with a seed, the strict image plus
// a seeded subset of the lines in flight.
void CrashNow(TraceRecorder& recorder, std::optional<uint64_t> seed = std::nullopt) {
  const Trace trace = recorder.Stop();
  ApplyCrashState(trace, {.epoch = trace.epochs.size() - 1,
                          .evict = seed.has_value(),
                          .eviction_seed = seed.value_or(0)});
}

TEST(CrashsimApplyCrashState, UnflushedStoreIsLost) {
  alignas(64) static uint8_t region[4096];
  std::memset(region, 0xaa, sizeof(region));
  TraceRecorder recorder;
  recorder.Start({Traced(region, sizeof(region))});
  region[100] = 0xbb;
  CrashNow(recorder);
  EXPECT_EQ(region[100], 0xaa);
}

TEST(CrashsimApplyCrashState, FlushedAndFencedStoreSurvives) {
  alignas(64) static uint8_t region[4096];
  std::memset(region, 0, sizeof(region));
  TraceRecorder recorder;
  recorder.Start({Traced(region, sizeof(region))});
  region[200] = 0x42;
  pmem::Flush(&region[200], 1);
  pmem::Fence();
  CrashNow(recorder);
  EXPECT_EQ(region[200], 0x42);
}

// A write-back is guaranteed only once its thread fences: a model that made
// the line durable at Flush cannot see a missing fence.
TEST(CrashsimApplyCrashState, FlushedButUnfencedLineIsLostInTheStrictImage) {
  alignas(64) static uint8_t region[4096];
  std::memset(region, 0, sizeof(region));
  TraceRecorder recorder;
  recorder.Start({Traced(region, sizeof(region))});
  region[300] = 0x42;
  pmem::Flush(&region[300], 1);
  CrashNow(recorder);
  EXPECT_EQ(region[300], 0);
}

TEST(CrashsimApplyCrashState, LinesAreRelativeToTheRegionBase) {
  alignas(64) static uint8_t storage[4096 + 64];
  std::memset(storage, 0, sizeof(storage));
  uint8_t* region = storage + 16;  // Region line 0 straddles two absolute lines.
  TraceRecorder recorder;
  recorder.Start({Traced(region, 4096)});
  region[0] = 1;
  region[63] = 2;
  region[64] = 3;
  pmem::FlushFence(&region[0], 1);
  CrashNow(recorder);
  EXPECT_EQ(region[0], 1);
  EXPECT_EQ(region[63], 2) << "same region line as the flushed byte";
  EXPECT_EQ(region[64], 0) << "next region line, never flushed";
}

TEST(CrashsimApplyCrashState, EvictionSubsetDrawsOnlyFromInFlightLines) {
  alignas(64) static uint8_t region[64 * 100];
  std::memset(region, 0, sizeof(region));
  TraceRecorder recorder;
  recorder.Start({Traced(region, sizeof(region))});
  region[0] = 0xfe;
  pmem::FlushFence(&region[0], 1);  // Fenced: durable in every subset.
  // 50 lines in flight: odd lines stored, every other one flushed unfenced.
  for (size_t line = 1; line < 100; line += 2) {
    region[line * 64] = 0xcc;
    if (line % 4 == 1) {
      pmem::Flush(&region[line * 64], 1);
    }
  }
  CrashNow(recorder, 12345);
  EXPECT_EQ(region[0], 0xfe);
  int survived = 0;
  for (size_t line = 1; line < 100; ++line) {
    if (line % 2 == 0) {
      EXPECT_EQ(region[line * 64], 0) << "untouched line " << line;
    } else {
      survived += region[line * 64] == 0xcc;
    }
  }
  EXPECT_GT(survived, 10);
  EXPECT_LT(survived, 40);
}

TEST(CrashsimApplyCrashState, TwoRegionsCrashTogether) {
  alignas(64) static uint8_t a[4096];
  alignas(64) static uint8_t b[4096];
  std::memset(a, 0, sizeof(a));
  std::memset(b, 0, sizeof(b));
  TraceRecorder recorder;
  recorder.Start({Traced(a, sizeof(a)), Traced(b, sizeof(b))});
  a[0] = 1;
  pmem::FlushFence(&a[0], 1);
  b[0] = 2;
  b[64] = 3;
  pmem::FlushFence(&b[64], 1);
  CrashNow(recorder);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(b[0], 0);
  EXPECT_EQ(b[64], 3);
}

// crashsim replayability: one seed, one image.
TEST(CrashsimApplyCrashState, SeededEvictionYieldsByteIdenticalImages) {
  auto run = [](uint64_t seed) {
    alignas(64) static uint8_t region[64 * 64];
    for (size_t i = 0; i < sizeof(region); ++i) {
      region[i] = static_cast<uint8_t>(i * 7);
    }
    TraceRecorder recorder;
    recorder.Start({Traced(region, sizeof(region))});
    // Dirty a spread of lines with varied content, flush a few.
    for (int line = 0; line < 64; line += 2) {
      region[static_cast<size_t>(line) * 64 + 3] = static_cast<uint8_t>(0xc0 + line);
    }
    for (int line = 0; line < 64; line += 8) {
      pmem::Flush(&region[static_cast<size_t>(line) * 64], 1);
    }
    pmem::Fence();
    CrashNow(recorder, seed);
    return std::vector<uint8_t>(region, region + sizeof(region));
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_EQ(run(1234), run(1234));
  EXPECT_NE(run(7), run(8));
}

}  // namespace
}  // namespace crashsim
