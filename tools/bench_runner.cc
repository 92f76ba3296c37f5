// bench_runner — machine-readable perf trajectory for the commit path, and
// the one recorder of the paper's Table 3 and Fig. 9.
//
// Runs the Table-3 transaction/allocation primitives and the Fig-9 linked
// list on the real Puddles stack (embedded daemon + typed Tx API), runs the
// same primitives and list beside them on the PMDK-like fat-pointer pool and
// the list on Romulus, and emits one JSON document, BENCH_commit.json,
// checked in at the repo root so the perf trajectory of the
// batched-persistence protocol (DESIGN.md §10) and the paper's comparisons
// are recorded per PR. Every row names its `library` ("puddles", "pmdk" or
// "romulus") and carries two measurements, each from its own passes:
//   * ns_per_op   — the op alone, timed in kTimedPasses passes of a fifth of
//     the iteration count each (at least one op): the median pass's
//     wall-clock mean, so one preempted pass cannot move the row, and
//   * fences_per_op — ordering points per operation, counted by a
//     pmem::PersistObserver on the real persistence instruction stream (the
//     protocol's primary figure of merit: O(N) → O(1) per transaction).
//
// Each row also carries p50/p99 latency percentiles, measured by one more
// pass over the same op (per-op rdtsc reads into a stats::Histogram) so the
// timed passes above stay uncontaminated by clock reads.
//
// One more Puddles row, tx_log_16384_fields, records Fig. 14's sensor update
// (bench/e2e ship-list's set-up): one transaction that undo-logs the `value`
// field of 16,384 list nodes. Its op is one logged field, and it also carries
// retained_heap_bytes, the heap in use (mallinfo2) that the thread's first
// such transaction leaves behind.
//
// After each section it prints one ratio line: Puddles over PMDK-like
// (PMDK-like ns / Puddles ns) for every row both libraries ran, next to the
// paper's figure.
//
// It also emits a second document, BENCH_crashsim.json: the crash-state
// exploration trajectory (states enumerated/explored, persistence-graph
// prune ratio, wall time) for the linked-list workload with every state
// recovered (verify-classes) and pruned — the per-PR record of what the §12
// pruner buys.
//
// With --daemon-bench it additionally runs the socket-level daemon YCSB
// bench (bench/bench_daemon_ycsb) as a subprocess, producing the third
// artifact, BENCH_daemon.json — one entry point regenerates the full perf
// record for a PR.
//
// With --epoch-bench it runs the scaling bench (bench/bench_fig12_scaling)
// as a subprocess, producing BENCH_epoch.json: immediate-vs-epoch durability
// ns/op and fences/op per thread count — the record behind the fences/op < 1
// group-commit CI gate (docs/epoch.md).
//
// With --alloc-bench it runs the allocator scaling bench
// (bench/bench_alloc_scaling) as a subprocess, producing BENCH_alloc.json:
// per-thread-arena malloc/free ns and fences per pair at 1-16 threads — the
// record behind the fences-per-pair < 0.1 at 8 threads CI gate
// (docs/alloc.md).
//
// Usage: bench_runner [--out=BENCH_commit.json]
//                     [--crashsim-out=BENCH_crashsim.json] [--iters=N]
//                     [--daemon-bench=PATH] [--daemon-out=BENCH_daemon.json]
//                     [--epoch-bench=PATH] [--epoch-out=BENCH_epoch.json]
//                     [--alloc-bench=PATH] [--alloc-out=BENCH_alloc.json]
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_env.h"
#include "bench/bench_provenance.h"
#include "bench/bench_util.h"
#include "src/common/align.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/workload_drivers.h"
#include "src/pmem/flush.h"
#include "src/stats/stats.h"
#include "src/workloads/list.h"

namespace {

enum class Library { kPuddles, kPmdk, kRomulus };

const char* LibraryName(Library library) {
  switch (library) {
    case Library::kPuddles:
      return "puddles";
    case Library::kPmdk:
      return "pmdk";
    case Library::kRomulus:
      return "romulus";
  }
  return "unknown";
}

struct Row {
  std::string section;
  Library library = Library::kPuddles;
  std::string name;
  double ns_per_op = 0;
  double fences_per_op = 0;
  uint64_t iterations = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  // Fence attribution (telemetry counters): fences spent on allocator slow
  // paths — an op that carved, adopted, spilled or retired a slab (arena
  // refill and spill, or a global slab carve/retire) — rather than on the
  // op's own commit protocol. Nonzero only for rows given an expected
  // steady-state fence count.
  bool has_steady = false;
  uint64_t stray_fences = 0;
  double fences_per_op_steady = 0;
  // Heap in use left behind by the op's first run; -1 when not measured.
  int64_t retained_heap_bytes = -1;
};

// Counts fences on the real persistence instruction stream — deliberately
// the same observer mechanism crashsim traces with, so the benched number is
// the one the crash-state enumerator sees (ReadPersistStats would agree, but
// the observer is the load-bearing contract under batching; see flush.h).
class FenceCountingObserver : public pmem::PersistObserver {
 public:
  void OnFlushRange(const void*, size_t) override {}
  void OnFence() override { ++fences_; }
  uint64_t fences() const { return fences_; }

 private:
  uint64_t fences_ = 0;
};

// Allocator slow-path events on this thread: slabs carved, adopted, spilled
// or retired. Fences an op spends beyond its steady state come from these.
uint64_t AllocatorSlowPathEvents() {
  using puddles::stats::Counter;
  const auto& counters = puddles::stats::LocalSlot().counters;
  uint64_t sum = 0;
  for (Counter c : {Counter::kSlabCarve, Counter::kSlabRetire, Counter::kArenaRefillSlabs,
                    Counter::kArenaFlushSlabs}) {
    sum += counters[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }
  return sum;
}

class Runner {
 public:
  // Timed passes per row; ns_per_op is the median one.
  static constexpr size_t kTimedPasses = 5;

  explicit Runner(uint64_t iters) : iters_(iters) {}

  // `expected_steady_fences >= 0` turns on exact fence accounting for the
  // row: every op that runs no allocator slow path must cost exactly
  // expected_steady_fences, and the slow-path ops' excess is reported as
  // strays.
  //
  // `units_per_call > 1` makes each call of `op` that many ops: ns, latency
  // and fences are reported per unit.
  template <typename Op>
  void Measure(const std::string& section, Library library, const std::string& name,
               uint64_t iterations, Op&& op, int expected_steady_fences = -1,
               uint64_t units_per_call = 1) {
    if (iterations == 0) {
      iterations = 1;  // Tiny --iters values must not divide by zero (inf/nan JSON).
    }
    // Warm-up pass keeps one-time costs (puddle growth, log formatting, page
    // faults) out of the steady-state numbers.
    op();

    // Timed passes: the op alone, reported as the median pass. The fence
    // observer below costs a locked increment and a virtual call per flush
    // and fence, which would tax the fence-heavy baselines most and skew
    // every Puddles-over-PMDK ratio.
    const uint64_t pass_ops = std::max<uint64_t>(1, iterations / kTimedPasses);
    double pass_ns[kTimedPasses];
    for (double& ns : pass_ns) {
      bench::Timer timer;
      for (uint64_t i = 0; i < pass_ops; ++i) {
        op();
      }
      ns = timer.Nanos() / static_cast<double>(pass_ops);
    }
    std::sort(std::begin(pass_ns), std::end(pass_ns));

    // Fence pass: the same op under the observer, with per-op attribution
    // reading this thread's own counter slot.
    FenceCountingObserver observer;
    const bool attribute = expected_steady_fences >= 0;
    uint64_t stray = 0;
    uint64_t broken_ops = 0;
    uint64_t broken_spent = 0;
    pmem::SetPersistObserver(&observer);
    for (uint64_t i = 0; i < iterations; ++i) {
      if (!attribute) {
        op();
        continue;
      }
      const uint64_t fences_before = observer.fences();
      const uint64_t slow_before = AllocatorSlowPathEvents();
      op();
      const uint64_t spent = observer.fences() - fences_before;
      if (AllocatorSlowPathEvents() != slow_before) {
        stray += spent - std::min<uint64_t>(spent, expected_steady_fences);
      } else if (spent != static_cast<uint64_t>(expected_steady_fences)) {
        ++broken_ops;
        broken_spent = spent;
      }
    }
    pmem::SetPersistObserver(nullptr);
    Row row;
    row.section = section;
    row.library = library;
    row.name = name;
    row.iterations = iterations;
    row.ns_per_op = pass_ns[kTimedPasses / 2];
    row.fences_per_op =
        static_cast<double>(observer.fences()) / static_cast<double>(iterations);

    if (attribute) {
      // Every op that ran no allocator slow path must cost exactly the
      // documented steady-state fences; the slow-path ops' excess is
      // reported as strays.
      row.has_steady = true;
      row.stray_fences = stray;
      row.fences_per_op_steady =
          static_cast<double>(observer.fences() - stray) / static_cast<double>(iterations);
      if (broken_ops != 0) {
        std::fprintf(stderr,
                     "%s: fence accounting broken: %" PRIu64 " of %" PRIu64
                     " ops without allocator slow-path work did not cost exactly %d "
                     "fences (one cost %" PRIu64 ")\n",
                     name.c_str(), broken_ops, iterations, expected_steady_fences,
                     broken_spent);
        std::abort();
      }
    }

    // Percentile pass: same op, re-run with per-op timestamps into a
    // log-bucket histogram. Kept out of the timed passes so ns_per_op never
    // includes the rdtsc reads.
    puddles::stats::Histogram latency;
    for (uint64_t i = 0; i < iterations; ++i) {
      const uint64_t t0 = puddles::stats::NowTicks();
      op();
      latency.Record(puddles::stats::NowTicks() - t0);
    }
    row.p50_ns = puddles::stats::TicksToNanos(latency.p50());
    row.p99_ns = puddles::stats::TicksToNanos(latency.p99());
    row.iterations *= units_per_call;
    row.ns_per_op /= static_cast<double>(units_per_call);
    row.fences_per_op /= static_cast<double>(units_per_call);
    row.p50_ns /= units_per_call;
    row.p99_ns /= units_per_call;

    rows_.push_back(row);
    std::printf("  %-8s %-22s %10.0f ns/op   p50 %8" PRIu64 "  p99 %8" PRIu64
                "   %6.2f fences/op   (%" PRIu64 " iters)\n",
                LibraryName(library), name.c_str(), row.ns_per_op, row.p50_ns, row.p99_ns,
                row.fences_per_op, row.iterations);
  }

  void SetRetainedHeap(int64_t bytes) {
    rows_.back().retained_heap_bytes = bytes;
    std::printf("  %-8s %-22s %10" PRId64 " heap bytes retained by its first run\n",
                LibraryName(rows_.back().library), rows_.back().name.c_str(), bytes);
  }

  // The section's ratio line: Puddles over PMDK-like (PMDK-like ns over
  // Puddles ns) for every row name both libraries ran.
  void PrintSpeedups(const std::string& section, const char* paper) const {
    std::printf("  Puddles over PMDK-like:");
    for (const Row& puddles_row : rows_) {
      if (puddles_row.section != section || puddles_row.library != Library::kPuddles) {
        continue;
      }
      for (const Row& pmdk_row : rows_) {
        if (pmdk_row.section == section && pmdk_row.library == Library::kPmdk &&
            pmdk_row.name == puddles_row.name) {
          std::printf(" %s %.2fx", puddles_row.name.c_str(),
                      pmdk_row.ns_per_op / puddles_row.ns_per_op);
        }
      }
    }
    std::printf("   (paper: %s)\n", paper);
  }

  const std::vector<Row>& rows() const { return rows_; }
  uint64_t iters() const { return iters_; }

 private:
  uint64_t iters_;
  std::vector<Row> rows_;
};

// Paper Table 3 on Puddles' typed Tx API and on the PMDK-like fat-pointer
// pool. The paper's malloc rows are `tx_alloc_only_*` (alloc inside a
// transaction, never freed) and its malloc+free rows `tx_malloc_*`.
void RunTable3(Runner& runner, puddles::Pool& pool, fatptr::FatPool& fat) {
  std::printf("table3 primitives (Puddles typed Tx API; PMDK-like fat-pointer pool):\n");
  uint8_t* small = nullptr;
  uint8_t* big = nullptr;
  puddles::Status allocated = pool.Run([&](puddles::Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(void* small_alloc, tx.AllocBytes(8, puddles::kRawBytesTypeId));
    ASSIGN_OR_RETURN(void* big_alloc, tx.AllocBytes(4096, puddles::kRawBytesTypeId));
    small = static_cast<uint8_t*>(small_alloc);
    big = static_cast<uint8_t*>(big_alloc);
    return puddles::OkStatus();
  });
  if (!allocated.ok()) {
    std::fprintf(stderr, "scratch allocation failed: %s\n", allocated.ToString().c_str());
    std::abort();
  }
  const uint64_t iters = runner.iters();
  auto puddles_row = [&](const char* name, uint64_t iterations, auto&& op) {
    runner.Measure("table3", Library::kPuddles, name, iterations, op);
  };

  puddles_row("tx_nop", iters, [&] {
    (void)pool.Run([](puddles::Tx&) { return puddles::OkStatus(); });
  });
  puddles_row("tx_add_8B", iters, [&] {
    (void)pool.Run([&](puddles::Tx& tx) {
      RETURN_IF_ERROR(tx.LogRange(small, 8));
      small[0]++;
      return puddles::OkStatus();
    });
  });
  puddles_row("tx_add_4KiB", iters / 4, [&] {
    (void)pool.Run([&](puddles::Tx& tx) {
      RETURN_IF_ERROR(tx.LogRange(big, 4096));
      big[0]++;
      return puddles::OkStatus();
    });
  });
  puddles_row("tx_set_8B_redo", iters, [&] {
    (void)pool.Run([&](puddles::Tx& tx) { return tx.Set(small, uint8_t{1}); });
  });
  // The acceptance shape: one transaction logging 32 ranges of an object it
  // allocated — batched persistence commits it in a constant fence count.
  puddles_row("tx_alloc_log32_ranges", iters / 8, [&] {
    (void)pool.Run([&](puddles::Tx& tx) {
      ASSIGN_OR_RETURN(void* raw, tx.AllocBytes(32 * 64, puddles::kRawBytesTypeId));
      uint8_t* arena = static_cast<uint8_t*>(raw);
      for (int i = 0; i < 32; ++i) {
        RETURN_IF_ERROR(tx.LogRange(arena + i * 64, 64));
        arena[i * 64] = static_cast<uint8_t>(i);
      }
      return tx.FreeBytes(arena);
    });
  });
  puddles_row("tx_malloc_8B", iters / 8, [&] {
    (void)pool.Run([&](puddles::Tx& tx) {
      ASSIGN_OR_RETURN(void* p, tx.AllocBytes(8, puddles::kRawBytesTypeId));
      return tx.FreeBytes(p);
    });
  });
  puddles_row("tx_malloc_4KiB", iters / 8, [&] {
    (void)pool.Run([&](puddles::Tx& tx) {
      ASSIGN_OR_RETURN(void* p, tx.AllocBytes(4096, puddles::kRawBytesTypeId));
      return tx.FreeBytes(p);
    });
  });
  // Last: these rows leave every object they allocate behind.
  puddles_row("tx_alloc_only_8B", iters / 8, [&] {
    (void)pool.Run([](puddles::Tx& tx) {
      return tx.AllocBytes(8, puddles::kRawBytesTypeId).status();
    });
  });
  puddles_row("tx_alloc_only_4KiB", iters / 8, [&] {
    (void)pool.Run([](puddles::Tx& tx) {
      return tx.AllocBytes(4096, puddles::kRawBytesTypeId).status();
    });
  });

  // PMDK-like: an explicit TxBegin/TxCommit pair around each primitive, on
  // a fresh pool. Its TX_ADD rows log DRAM scratch; the undo append and its
  // flushes do not depend on where the logged bytes live. The alloc-only
  // rows run before malloc+free: on a heap that is still one free block,
  // each malloc+free pair would split and re-merge the whole buddy tree
  // (about 100 fences a pair instead of 10 to 20).
  alignas(64) static uint8_t fat_small[8];
  alignas(64) static uint8_t fat_big[4096];
  auto pmdk_row = [&](const char* name, uint64_t iterations, auto&& body) {
    runner.Measure("table3", Library::kPmdk, name, iterations, [&] {
      (void)fat.TxBegin();
      body();
      (void)fat.TxCommit();
    });
  };
  pmdk_row("tx_nop", iters, [] {});
  pmdk_row("tx_add_8B", iters, [&] { (void)fat.TxAddRange(fat_small, sizeof(fat_small)); });
  pmdk_row("tx_add_4KiB", iters / 4, [&] { (void)fat.TxAddRange(fat_big, sizeof(fat_big)); });
  pmdk_row("tx_alloc_only_8B", iters / 8,
           [&] { (void)fat.AllocBytes(8, puddles::kRawBytesTypeId); });
  pmdk_row("tx_alloc_only_4KiB", iters / 8,
           [&] { (void)fat.AllocBytes(4096, puddles::kRawBytesTypeId); });
  pmdk_row("tx_malloc_8B", iters / 8, [&] {
    auto p = fat.AllocBytes(8, puddles::kRawBytesTypeId);
    if (p.ok()) {
      (void)fat.FreeBytes(*p);
    }
  });
  pmdk_row("tx_malloc_4KiB", iters / 8, [&] {
    auto p = fat.AllocBytes(4096, puddles::kRawBytesTypeId);
    if (p.ok()) {
      (void)fat.FreeBytes(*p);
    }
  });
  runner.PrintSpeedups("table3", "TX NOP 142 ns over 11 ns, 12.9x");
}

int64_t HeapInUseBytes() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

// Fig. 14's sensor update: one transaction undo-logs the `value` field of
// every node of a 16,384-node list and adds to it. The first run is the
// thread's first transaction of that size, so the heap it leaves behind is
// what a transaction keeps per logged field.
void RunSensorUpdate(Runner& runner, puddles::Pool& pool) {
  std::printf("fig14 sensor update:\n");
  constexpr uint64_t kFields = 16384;
  struct SensorNode {
    SensorNode* next;
    uint64_t value;
  };
  SensorNode* head = nullptr;
  puddles::Status built = pool.Run([&](puddles::Tx& tx) -> puddles::Status {
    SensorNode* tail = nullptr;
    for (uint64_t i = 0; i < kFields; ++i) {
      ASSIGN_OR_RETURN(void* raw, tx.AllocBytes(sizeof(SensorNode), puddles::kRawBytesTypeId));
      auto* node = static_cast<SensorNode*>(raw);  // Fresh: plain stores.
      node->next = nullptr;
      node->value = i;
      (tail == nullptr ? head : tail->next) = node;
      tail = node;
    }
    return puddles::OkStatus();
  });
  if (!built.ok()) {
    std::fprintf(stderr, "sensor list allocation failed: %s\n", built.ToString().c_str());
    std::abort();
  }
  auto update = [&] {
    (void)pool.Run([&](puddles::Tx& tx) -> puddles::Status {
      for (SensorNode* node = head; node != nullptr; node = node->next) {
        RETURN_IF_ERROR(tx.LogField(node, &SensorNode::value));
        node->value += 1;
      }
      return puddles::OkStatus();
    });
  };
  const int64_t heap_before = HeapInUseBytes();
  update();
  const int64_t retained = HeapInUseBytes() - heap_before;
  runner.Measure("fig14_sensor", Library::kPuddles, "tx_log_16384_fields",
                 std::max<uint64_t>(4, runner.iters() / 1000), update, -1, kFields);
  runner.SetRetainedHeap(retained);
}

// The traversal list's length: bench::Scaled(200000) nodes, and never fewer
// than the 4096 the short traversal sums.
uint64_t Fig9Nodes() { return std::max<uint64_t>(bench::Scaled(200000), 4096); }

// A baseline heap for RunFig9's longest list (the traversal's, or the
// iters/4 nodes of insert_tail): each node takes a 32-byte slab slot, and
// the heap holds twice that, rounded up to a power of two.
size_t Fig9HeapBytes(uint64_t iters) {
  return puddles::NextPowerOfTwo(2 * 32 * std::max(Fig9Nodes(), iters / 4));
}

// Paper Fig. 9 over one library's list adapter: insert at the tail, delete
// at the head, sum a 4096-node list, then sum a list grown to Fig9Nodes()
// nodes — beyond the caches, where native pointers beat fat ones by the
// paper's 13.4x — for 10 M node visits' worth of sweeps.
template <typename Adapter>
void RunFig9(Runner& runner, Library library, Adapter adapter) {
  using List = workloads::PersistentList<Adapter>;
  List::RegisterTypes();
  List list(adapter);
  if (!list.Init().ok()) {
    std::fprintf(stderr, "%s list init failed\n", LibraryName(library));
    std::abort();
  }
  const uint64_t iters = runner.iters() / 4;
  uint64_t next_value = 0;
  // Puddles' documented steady-state cost is 4 fences per insert and 3 per
  // delete: 32-byte list nodes come from the thread's arena, whose alloc and
  // free log nothing. An op that refills (4 slabs of 126 nodes, about every
  // 500th insert) or spills pays the allocator's few extra fences; those are
  // reported as strays, and every other op is asserted inside Measure to
  // cost exactly its steady count. The baselines are held to no count.
  const bool exact = library == Library::kPuddles;
  runner.Measure("fig9_list", library, "insert_tail", iters,
                 [&] { (void)list.InsertTail(next_value++); }, exact ? 4 : -1);
  runner.Measure("fig9_list", library, "delete_head", iters, [&] { (void)list.DeleteHead(); },
                 exact ? 3 : -1);
  // Rebuild a fixed-size list for the traversal measurement.
  while (list.count() > 0) {
    (void)list.DeleteHead();
  }
  for (uint64_t i = 0; i < 4096; ++i) {
    (void)list.InsertTail(i);
  }
  runner.Measure("fig9_list", library, "sum_4096_nodes", 256,
                 [&] { bench::DoNotOptimize(list.Sum()); });
  const uint64_t nodes = Fig9Nodes();
  for (uint64_t i = list.count(); i < nodes; ++i) {
    (void)list.InsertTail(i);
  }
  runner.Measure("fig9_list", library, "sum_" + std::to_string(nodes) + "_nodes",
                 10000000 / nodes, [&] { bench::DoNotOptimize(list.Sum()); });
}

// ---- Crashsim trajectory: every state recovered vs persistence-graph pruning ----

struct CrashsimRow {
  std::string mode;
  crashsim::HarnessReport report;
  double wall_ms = 0;
};

// Small fixed workload: the point is the trajectory of the pruning machinery
// (ratio and wall time per PR), not exhaustive coverage — the test suite owns
// that. Run before PuddlesEnv exists: the harness drivers own their whole
// daemon/runtime lifecycle.
std::vector<CrashsimRow> RunCrashsimTrajectory() {
  std::printf("crashsim trajectory (list workload, verify-classes vs graph-pruned):\n");
  std::vector<CrashsimRow> rows;
  for (const char* mode : {"verify-classes", "graph"}) {
    crashsim::DriverOptions driver_options;
    driver_options.ops = 10;
    auto driver = crashsim::MakeDriver("list", driver_options);
    if (driver == nullptr) {
      std::fprintf(stderr, "crashsim list driver unavailable\n");
      std::abort();
    }
    crashsim::HarnessOptions options;
    options.verify_classes = std::strcmp(mode, "verify-classes") == 0;
    crashsim::Harness harness(*driver, options);
    bench::Timer timer;
    auto report = harness.Run();
    const double wall_ms = timer.Nanos() / 1e6;
    if (!report.ok() || !report->ok()) {
      std::fprintf(stderr, "crashsim trajectory run failed (%s): %s\n", mode,
                   report.ok() ? report->Summary().c_str() : report.status().ToString().c_str());
      std::abort();
    }
    std::printf("  %-14s %6" PRIu64 " enumerated  %6" PRIu64 " explored  %6" PRIu64
                " classes   %8.1f ms\n",
                mode, report->states_enumerated, report->states_explored,
                report->state_classes, wall_ms);
    rows.push_back({mode, *report, wall_ms});
  }
  return rows;
}

bool WriteCrashsimJson(const std::vector<CrashsimRow>& rows, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"crashsim persistence-graph pruning\",\n");
  std::fprintf(out, "  \"generated_by\": \"tools/bench_runner.cc\",\n");
  std::fprintf(out, "  \"protocol\": \"DESIGN.md section 12 (crash-state equivalence classes)\",\n");
  std::fputs(bench::ProvenanceJsonLine(/*with_hostname=*/false).c_str(), out);
  std::fprintf(out, "  \"workload\": \"list\",\n");
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const crashsim::HarnessReport& r = rows[i].report;
    const double ratio = r.states_explored != 0
                             ? static_cast<double>(r.states_enumerated) /
                                   static_cast<double>(r.states_explored)
                             : 0.0;
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"states_enumerated\": %" PRIu64
                 ", \"states_explored\": %" PRIu64 ", \"state_classes\": %" PRIu64
                 ", \"prune_ratio\": %.2f, \"wall_ms\": %.1f}%s\n",
                 rows[i].mode.c_str(), r.states_enumerated, r.states_explored,
                 r.state_classes, ratio, rows[i].wall_ms, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  return bench::CloseJson(out, path);
}

bool WriteJson(const Runner& runner, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"commit-path batched persistence\",\n");
  std::fprintf(out, "  \"generated_by\": \"tools/bench_runner.cc\",\n");
  std::fprintf(out, "  \"protocol\": \"DESIGN.md section 10 (fence coalescing)\",\n");
  std::fputs(bench::ProvenanceJsonLine().c_str(), out);
  std::fprintf(out, "  \"flush_instruction\": \"%s\",\n",
               pmem::FlushInstructionName(pmem::ActiveFlushInstruction()));
  std::fprintf(out, "  \"scale\": %.2f,\n", bench::ScaleFactor());
  std::fprintf(out, "  \"rows\": [\n");
  const auto& rows = runner.rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"section\": \"%s\", \"library\": \"%s\", \"name\": \"%s\", "
                 "\"ns_per_op\": %.1f, \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
                 ", \"fences_per_op\": %.3f",
                 rows[i].section.c_str(), LibraryName(rows[i].library), rows[i].name.c_str(),
                 rows[i].ns_per_op, rows[i].p50_ns, rows[i].p99_ns, rows[i].fences_per_op);
    if (rows[i].has_steady) {
      std::fprintf(out,
                   ", \"fences_per_op_steady\": %.3f, \"stray_slab_fences\": %" PRIu64,
                   rows[i].fences_per_op_steady, rows[i].stray_fences);
    }
    if (rows[i].retained_heap_bytes >= 0) {
      std::fprintf(out, ", \"retained_heap_bytes\": %" PRId64, rows[i].retained_heap_bytes);
    }
    std::fprintf(out, ", \"iterations\": %" PRIu64 "}%s\n", rows[i].iterations,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  return bench::CloseJson(out, path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_commit.json";
  std::string crashsim_out_path = "BENCH_crashsim.json";
  std::string daemon_bench;  // Path to bench_daemon_ycsb; empty = skip.
  std::string daemon_out_path = "BENCH_daemon.json";
  std::string epoch_bench;  // Path to bench_fig12_scaling; empty = skip.
  std::string epoch_out_path = "BENCH_epoch.json";
  std::string alloc_bench;  // Path to bench_alloc_scaling; empty = skip.
  std::string alloc_out_path = "BENCH_alloc.json";
  uint64_t iters = bench::Scaled(20000);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--crashsim-out=", 0) == 0) {
      crashsim_out_path = arg.substr(15);
    } else if (arg.rfind("--daemon-bench=", 0) == 0) {
      daemon_bench = arg.substr(15);
    } else if (arg.rfind("--daemon-out=", 0) == 0) {
      daemon_out_path = arg.substr(13);
    } else if (arg.rfind("--epoch-bench=", 0) == 0) {
      epoch_bench = arg.substr(14);
    } else if (arg.rfind("--epoch-out=", 0) == 0) {
      epoch_out_path = arg.substr(12);
    } else if (arg.rfind("--alloc-bench=", 0) == 0) {
      alloc_bench = arg.substr(14);
    } else if (arg.rfind("--alloc-out=", 0) == 0) {
      alloc_out_path = arg.substr(12);
    } else if (arg.rfind("--iters=", 0) == 0) {
      iters = std::strtoull(arg.c_str() + 8, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_runner [--out=FILE] [--crashsim-out=FILE] [--iters=N]\n"
                   "                    [--daemon-bench=PATH] [--daemon-out=FILE]\n"
                   "                    [--epoch-bench=PATH] [--epoch-out=FILE]\n"
                   "                    [--alloc-bench=PATH] [--alloc-out=FILE]\n");
      return 2;
    }
  }
  // Crashsim first: its drivers build and tear down their own daemon/runtime,
  // which must not interleave with the live PuddlesEnv below.
  if (!WriteCrashsimJson(RunCrashsimTrajectory(), crashsim_out_path)) {
    return 1;
  }
  const auto scratch = bench::ScratchDir("bench_runner");
  Runner runner(iters);
  {
    // One Puddles pool serves both sections; each baseline bench gets a
    // fresh pool of its own.
    bench::PuddlesEnv puddles_env(scratch);
    {
      bench::BaselineEnv<fatptr::FatPool> pmdk_env(scratch, "pmdk_table3");
      RunTable3(runner, *puddles_env.pool, *pmdk_env.pool);
    }
    std::printf("fig9 linked list:\n");
    RunFig9(runner, Library::kPuddles, puddles_env.adapter());
    {
      bench::BaselineEnv<fatptr::FatPool> pmdk_env(scratch, "pmdk_fig9");
      RunFig9(runner, Library::kPmdk, workloads::FatPtrAdapter(pmdk_env.pool.get()));
    }
    {
      bench::BaselineEnv<romulus::RomulusPool> romulus_env(scratch, "romulus_fig9",
                                                           Fig9HeapBytes(runner.iters()));
      RunFig9(runner, Library::kRomulus, workloads::RomulusAdapter(romulus_env.pool.get()));
    }
    runner.PrintSpeedups("fig9_list", "traversal 13.4x");
    RunSensorUpdate(runner, *puddles_env.pool);
  }
  const bool wrote = WriteJson(runner, out_path);
  std::filesystem::remove_all(scratch);
  if (!wrote) {
    return 1;
  }
  if (!daemon_bench.empty()) {
    // The daemon YCSB bench forks client processes, so it runs as its own
    // subprocess rather than in this (already puddle-mapped) one.
    const std::string command = "'" + daemon_bench + "' --out='" + daemon_out_path + "'";
    const int rc = std::system(command.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "daemon bench failed (%d): %s\n", rc, command.c_str());
      return 1;
    }
  }
  if (!epoch_bench.empty()) {
    // The scaling bench maps its own pool and spins up the epoch advancer, so
    // it too runs as a subprocess.
    const std::string command = "'" + epoch_bench + "' --out='" + epoch_out_path + "'";
    const int rc = std::system(command.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "epoch bench failed (%d): %s\n", rc, command.c_str());
      return 1;
    }
  }
  if (!alloc_bench.empty()) {
    // The allocator bench maps its own pool and owns its arena lifecycle, so
    // it runs as a subprocess as well.
    const std::string command = "'" + alloc_bench + "' --out='" + alloc_out_path + "'";
    const int rc = std::system(command.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "alloc bench failed (%d): %s\n", rc, command.c_str());
      return 1;
    }
  }
  return 0;
}
