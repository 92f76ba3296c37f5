// The measured window and what every workload reports from it.
//
// A window is split into kSlices equal slices; throughput is the median
// slice's rate, so a transient noisy neighbour moves one slice, not the
// result. Latency percentiles are taken over the whole window.
#ifndef BENCH_E2E_WINDOW_H_
#define BENCH_E2E_WINDOW_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/clock.h"
#include "bench/e2e/histogram.h"
#include "bench/e2e/report.h"
#include "bench/e2e/stack.h"
#include "bench/e2e/trace.h"
#include "src/libpuddles/runtime.h"
#include "src/pmem/flush.h"
#include "src/stats/stats.h"

namespace e2e {

inline constexpr int kSlices = 5;
// Set-ups per run: setup_s is their median, so one set-up slowed by the host
// does not move it. The window runs on the last one.
inline constexpr int kSetupReps = 3;

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

inline int SliceOf(uint64_t elapsed, uint64_t window) {
  return static_cast<int>(std::min<uint64_t>(kSlices - 1, elapsed * kSlices / window));
}

// Median over slices of ops / slice length. Slices are window/kSlices long,
// except the last, which runs to `total` (it absorbs the final operations
// and, under epoch durability, the closing Sync).
inline double MedianSliceRate(const std::array<uint64_t, kSlices>& ops, uint64_t window,
                              uint64_t total) {
  std::vector<double> rates;
  for (int s = 0; s < kSlices; ++s) {
    const uint64_t begin = window * static_cast<uint64_t>(s) / kSlices;
    const uint64_t end = s == kSlices - 1 ? total : window * static_cast<uint64_t>(s + 1) / kSlices;
    rates.push_back(static_cast<double>(ops[static_cast<size_t>(s)]) /
                    TickClock::Get().ToSeconds(std::max<uint64_t>(1, end - begin)));
  }
  return Median(rates);
}

inline double Us(double ticks) { return ticks * TickClock::Get().NanosPerTick() / 1e3; }

// Latency histograms of one window, in ticks.
struct Latencies {
  Histogram op, read, write;

  void Merge(const Latencies& other) {
    op.Merge(other.op);
    read.Merge(other.read);
    write.Merge(other.write);
  }
};

// Library-side counters around a window: deltas of the telemetry snapshot,
// the persistence counters and the runtime's relocation counters.
struct Counters {
  puddles::stats::Snapshot stats;
  pmem::PersistStats persist;
  puddles::Runtime::Stats runtime;

  static Counters Read(puddles::Runtime& rt) {
    return {puddles::stats::Aggregate(), pmem::ReadPersistStats(), rt.stats()};
  }

  static Counters Delta(const Counters& after, const Counters& before) {
    Counters d;
    d.stats = puddles::stats::Delta(after.stats, before.stats);
    d.persist.flushed_lines = after.persist.flushed_lines - before.persist.flushed_lines;
    d.persist.flush_calls = after.persist.flush_calls - before.persist.flush_calls;
    d.persist.fences = after.persist.fences - before.persist.fences;
    d.runtime.puddles_registered =
        after.runtime.puddles_registered - before.runtime.puddles_registered;
    d.runtime.puddles_mapped = after.runtime.puddles_mapped - before.runtime.puddles_mapped;
    d.runtime.rewrites = after.runtime.rewrites - before.runtime.rewrites;
    d.runtime.pointers_rewritten =
        after.runtime.pointers_rewritten - before.runtime.pointers_rewritten;
    return d;
  }

  // Adds another delta (windows that span several runtimes sum per runtime).
  void Add(const Counters& other) {
    for (size_t i = 0; i < puddles::stats::kNumCounters; ++i) {
      stats.counters[i] += other.stats.counters[i];
    }
    for (size_t i = 0; i < puddles::stats::kMaxDaemonOps; ++i) {
      stats.daemon_ops[i] += other.stats.daemon_ops[i];
    }
    for (size_t i = 0; i < puddles::stats::kNumHists; ++i) {
      stats.hists[i].Merge(other.stats.hists[i]);
    }
    persist.flushed_lines += other.persist.flushed_lines;
    persist.flush_calls += other.persist.flush_calls;
    persist.fences += other.persist.fences;
    runtime.puddles_registered += other.runtime.puddles_registered;
    runtime.puddles_mapped += other.runtime.puddles_mapped;
    runtime.rewrites += other.runtime.rewrites;
    runtime.pointers_rewritten += other.runtime.pointers_rewritten;
  }

  uint64_t Count(puddles::stats::Counter c) const { return stats.counter(c); }
};

// What one measured window produced.
struct Window {
  uint64_t start_ticks = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t writes = 0;
  double throughput = 0;
  double sync_ms = 0;  // The Pool::Sync that closed it (epoch durability).
  double dram_mib = 0;    // At the space sample.
  double pm_bytes = 0;    // At the space sample.
  double user_bytes = 0;  // Live user key+value bytes (ship: shipped value bytes).
  std::unique_ptr<Latencies> latency = std::make_unique<Latencies>();
  Counters counters;
  std::vector<std::unique_ptr<Tracer>> tracers;  // Traced windows only.
};

// The end-to-end metrics of the untraced window (bench/e2e/README.md).
inline void AddEndToEnd(WorkloadReport& report, const std::vector<double>& setup_s,
                        const Window& w) {
  const Latencies& l = *w.latency;
  report.Add("setup_s", Median(setup_s), "s", Kind::kE2e);
  report.Add("throughput_ops_s", w.throughput, "ops/s", Kind::kE2e);
  report.Add("op_p50_us", Us(l.op.Percentile(50)), "us", Kind::kE2e);
  report.Add("op_p99_us", Us(l.op.Percentile(99)), "us", Kind::kE2e);
  report.Add("read_p50_us", Us(l.read.Percentile(50)), "us", Kind::kE2e);
  report.Add("read_p99_us", Us(l.read.Percentile(99)), "us", Kind::kE2e);
  report.Add("write_p50_us", Us(l.write.Percentile(50)), "us", Kind::kE2e);
  report.Add("write_p99_us", Us(l.write.Percentile(99)), "us", Kind::kE2e);
  report.Add("failed_ratio",
             report.attempted == 0 ? 0.0
                                   : static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted),
             "ratio", Kind::kE2e);
  report.Add("pm_bytes_per_user_byte", w.user_bytes == 0 ? 0.0 : w.pm_bytes / w.user_bytes,
             "ratio", Kind::kE2e);
  report.Add("dram_mib", w.dram_mib, "MiB", Kind::kE2e);
}

// Counters the workload table predicts are zero on the workloads that bypass
// a layer: allocations on kv-a, epoch activity outside kv-a-epoch, daemon
// requests in KV windows. Printed for every run so a bypass that stops
// bypassing is visible.
inline void AddBypassCounters(WorkloadReport& report, const Counters& d) {
  using C = puddles::stats::Counter;
  report.Add("bypass.allocs_in_window",
             static_cast<double>(d.Count(C::kSlabAlloc) + d.Count(C::kBuddyAlloc) +
                                 d.Count(C::kArenaAlloc)),
             "count", Kind::kInfo);
  report.Add("bypass.epoch_txs_in_window", static_cast<double>(d.Count(C::kEpochTxs)), "count",
             Kind::kInfo);
  report.Add("bypass.daemon_requests_in_window", static_cast<double>(d.Count(C::kDaemonRequest)),
             "count", Kind::kInfo);
}

// Every per-layer metric of the traced window, on every workload: a layer a
// workload bypasses reports 0, which is the prediction the workload table
// makes for it.
inline void AddLayerMetrics(WorkloadReport& report, const Window& untraced, const Window& traced,
                            const LayerTotals& t) {
  using C = puddles::stats::Counter;
  using H = puddles::stats::Hist;
  const Counters& d = traced.counters;
  auto per = [](double n, double base) { return base == 0 ? 0.0 : n / base; };
  auto count = [&](C c) { return static_cast<double>(d.Count(c)); };
  const double writes = static_cast<double>(traced.writes);
  const double kops = static_cast<double>(traced.attempted) / 1000.0;
  const double txs = static_cast<double>(t.calls[static_cast<size_t>(Layer::kTxBegin)]);
  auto self_per_tx = [&](Layer layer) {
    return per(t.SelfNsPerOp(layer) * static_cast<double>(t.ops), txs);
  };
  auto mean_ms = [&](Layer layer) {
    return TickClock::Get().ToNanos(
               static_cast<uint64_t>(t.durations[static_cast<size_t>(layer)].mean())) /
           1e6;
  };

  // tx
  report.Add("tx.begin_ns", self_per_tx(Layer::kTxBegin), "ns", Kind::kLayer);
  report.Add("tx.log_ns", self_per_tx(Layer::kTxLog), "ns", Kind::kLayer);
  report.Add("tx.commit_ns", self_per_tx(Layer::kTxCommit), "ns", Kind::kLayer);
  report.Add("tx.commit_p99_ns", t.DurationPercentileNs(Layer::kTxCommit, 99), "ns",
             Kind::kLayer);
  report.Add("tx.body_self_ns", self_per_tx(Layer::kTxBody), "ns", Kind::kLayer);
  report.Add("tx.undo_appends_per_write", per(count(C::kUndoAppend), writes), "count",
             Kind::kLayer);
  report.Add("tx.undo_elided_per_write", per(count(C::kUndoElided), writes), "count",
             Kind::kLayer);
  report.Add("tx.log_bytes_per_write", per(count(C::kLogBytes), writes), "B", Kind::kLayer);
  report.Add("tx.aborts_per_kop", per(count(C::kTxAbort), kops), "count", Kind::kLayer);

  // pmem
  report.Add("pmem.fences_per_write", per(static_cast<double>(d.persist.fences), writes), "count",
             Kind::kLayer);
  report.Add("pmem.lines_flushed_per_write",
             per(static_cast<double>(d.persist.flushed_lines), writes), "count", Kind::kLayer);
  report.Add("pmem.flush_calls_per_write", per(static_cast<double>(d.persist.flush_calls), writes),
             "count", Kind::kLayer);
  report.Add("pmem.dedup_ratio", per(count(C::kFlushLinesStaged), count(C::kFlushLinesPublished)),
             "ratio", Kind::kLayer);

  // alloc
  report.Add("alloc.malloc_ns", t.SelfNsPerCall(Layer::kAlloc), "ns", Kind::kLayer);
  report.Add("alloc.malloc_p99_ns", t.DurationPercentileNs(Layer::kAlloc, 99), "ns",
             Kind::kLayer);
  report.Add("alloc.free_ns", t.SelfNsPerCall(Layer::kFree), "ns", Kind::kLayer);
  report.Add("alloc.slab_carves_per_kop", per(count(C::kSlabCarve), kops), "count",
             Kind::kLayer);
  report.Add("alloc.slab_retires_per_kop", per(count(C::kSlabRetire), kops), "count",
             Kind::kLayer);
  report.Add("alloc.buddy_allocs_per_kop", per(count(C::kBuddyAlloc), kops), "count",
             Kind::kLayer);
  report.Add("alloc.arena_refills_per_kop", per(count(C::kArenaRefillSlabs), kops), "count",
             Kind::kLayer);
  report.Add("alloc.pool_grows", count(C::kPoolGrow), "count", Kind::kLayer);

  // epoch
  report.Add("epoch.sync_ms", traced.sync_ms, "ms", Kind::kLayer);
  report.Add("epoch.txs_per_epoch", per(count(C::kEpochTxs), count(C::kEpochAdvanced)), "count",
             Kind::kLayer);
  report.Add("epoch.publish_waits_per_write", per(count(C::kEpochPublishWaits), writes), "count",
             Kind::kLayer);
  report.Add("epoch.publish_cycles_per_kop", per(count(C::kEpochPublishCycles), kops), "count",
             Kind::kLayer);
  report.Add("epoch.sync_wait_p99_us",
             static_cast<double>(puddles::stats::TicksToNanos(
                 d.stats.hist(H::kEpochSyncWaitTicks).p99())) /
                 1e3,
             "us", Kind::kLayer);

  // daemon + ipc
  report.Add("daemon.import_ms", mean_ms(Layer::kImport), "ms", Kind::kLayer);
  report.Add("daemon.import_p99_ms", t.DurationPercentileNs(Layer::kImport, 99) / 1e6, "ms",
             Kind::kLayer);
  report.Add("daemon.open_ms", mean_ms(Layer::kOpen), "ms", Kind::kLayer);
  const double copies = static_cast<double>(t.calls[static_cast<size_t>(Layer::kImport)]);
  report.Add("daemon.requests_per_copy", per(count(C::kDaemonRequest), copies), "count",
             Kind::kLayer);
  report.Add("daemon.service_p50_us",
             static_cast<double>(puddles::stats::TicksToNanos(
                 d.stats.hist(H::kDaemonServiceTicks).p50())) /
                 1e3,
             "us", Kind::kLayer);

  // relocation + faults
  const double first_ms = mean_ms(Layer::kWalk);
  const double rewalk_ms = mean_ms(Layer::kRewalk);
  const double pointers = per(static_cast<double>(d.runtime.pointers_rewritten), copies);
  report.Add("reloc.first_walk_ms", first_ms, "ms", Kind::kLayer);
  report.Add("reloc.rewalk_ms", rewalk_ms, "ms", Kind::kLayer);
  report.Add("reloc.ns_per_pointer", per((first_ms - rewalk_ms) * 1e6, pointers), "ns",
             Kind::kLayer);
  report.Add("reloc.pointers_per_copy", pointers, "count", Kind::kLayer);
  report.Add("reloc.puddles_mapped_per_copy",
             per(static_cast<double>(d.runtime.puddles_mapped), copies), "count", Kind::kLayer);

  // bench (client side)
  // Mean op latency, every op of each window, sampled or not. The mean, not
  // the p50: on a 50/50 read/write mix the p50 falls in the gap between the
  // read and the write mode and jumps.
  const double untraced_mean = untraced.latency->op.mean();
  report.Add("bench.trace_overhead_pct",
             per(traced.latency->op.mean() - untraced_mean, untraced_mean) * 100, "%", Kind::kLayer);

  // Accounting: the layers' self times must cover the traced operation.
  // What they leave out is the root span's own self time (key hashing, call
  // overhead); more than 10% of the op means a layer is missing a span.
  const double op_mean_ns = TickClock::Get().ToNanos(
      static_cast<uint64_t>(t.durations[static_cast<size_t>(Layer::kOp)].mean()));
  const double accounted_pct = per(op_mean_ns - t.SelfNsPerOp(Layer::kOp), op_mean_ns) * 100;
  report.Add("bench.traced_op_mean_ns", op_mean_ns, "ns", Kind::kInfo);
  report.Add("bench.accounted_pct", accounted_pct, "%", Kind::kInfo);
  if (t.ops > 0 && accounted_pct < 90) {
    std::fprintf(stderr, "bench_e2e: %s: layer self times cover only %.1f%% of the traced op\n",
                 report.workload.c_str(), accounted_pct);
  }
}

// Reports the traced window: per-layer metrics, plus DIR/<workload>.trace.json
// (Chrome trace events) and DIR/<workload>.layers.json (self times).
inline void ReportTraced(WorkloadReport& report, const Window& untraced, const Window& traced,
                         const std::string& trace_dir) {
  auto totals = std::make_unique<LayerTotals>();
  std::vector<const Tracer*> tracers;
  for (const auto& tracer : traced.tracers) {
    totals->Add(*tracer);
    tracers.push_back(tracer.get());
  }
  AddLayerMetrics(report, untraced, traced, *totals);
  const std::string base = trace_dir + "/" + report.workload;
  if (!WriteChromeTrace(base + ".trace.json", tracers, traced.start_ticks) ||
      !WriteLayerSummary(base + ".layers.json", *totals)) {
    Fail("cannot write the trace under " + trace_dir);
  }
}

}  // namespace e2e

#endif  // BENCH_E2E_WINDOW_H_
