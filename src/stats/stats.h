// Runtime telemetry: per-thread lock-free counters and one process-wide set
// of latency histograms, aggregated on demand into a process-wide snapshot.
// Every timing is a histogram here, read through stats::Aggregate(), the
// daemon STATS opcode and puddlestat.
//
// Design rules (DESIGN.md §11):
//   * Stats writes are VOLATILE-ONLY. Nothing in this subsystem may flush,
//     fence, or touch persistent memory — instrumentation must be invisible
//     to the persistence ordering the rest of the tree is verified against
//     (enforced by tools/check_discipline.py).
//   * The counter fast path is wait-free and allocation-free: a TLS pointer
//     load, a branch, and a relaxed load+store bump on a cacheline owned by
//     the calling thread. Slots hold counters only, register once per thread
//     (the only lock), live until thread exit, and retire their totals into a
//     global accumulator so Aggregate() is exact over dead threads too.
//   * Counters are exact: every operation bumps them. Timers read the clock
//     only inside a sampled operation (SampledOp), so a histogram's count is
//     the number of sampled operations that reached its scope, and the layers
//     of one sampled operation are timed together.
//   * Histograms are process-wide, allocated once with the registry: a
//     thread pays nothing for them. Only sampled operations write them, with
//     relaxed read-modify-writes, and every timer records after its scope's
//     fence, so no locked instruction lands between a clwb and its sfence.
//
// Timers record raw TSC ticks and convert to nanoseconds at report time via
// TicksToNanos(). A tick read (rdtsc) measured 16–30 ns on a 4-vCPU
// virtualized x86 guest, depending on load, not the few ns of bare metal:
// timing every commit cost a fifth to a third of a small transaction there.
#ifndef SRC_STATS_STATS_H_
#define SRC_STATS_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/stats/histogram.h"

namespace puddles {
namespace stats {

// ---- Counter catalog ----
// One entry per always-on volatile counter. CounterName() must stay in sync
// (stats.cc has a static_assert on the name table length).
enum class Counter : uint32_t {
  // Transactions (src/tx).
  kTxBegin = 0,       // Transactions begun.
  kTxCommit,          // Transactions committed.
  kTxAbort,           // Transactions aborted/rolled back.
  kUndoAppend,        // Undo log entries appended.
  kUndoElided,        // Undo captures skipped by coverage elision.
  kRedoAppend,        // Redo log entries appended.
  kVolatileAppend,    // Volatile (DRAM) undo entries appended.
  kLogBytes,          // Log bytes staged (entry header + payload, aligned).
  kLogChain,          // Continuation log puddles chained (Fig. 5 growth).
  // Persistence primitives (src/pmem). The first three back
  // pmem::ReadPersistStats().
  kFences,            // sfence ordering points issued.
  kFlushCalls,        // pmem::Flush invocations (post-dedup runs).
  kFlushLinesPublished,  // Cache lines actually written back.
  kFlushLinesStaged,  // Cache lines staged into FlushBatches (pre-dedup).
  kFlushBatchPublish, // FlushBatch::FlushPending passes that flushed work.
  // Allocators (src/alloc).
  kBuddyAlloc,        // Buddy blocks allocated.
  kBuddyFree,         // Buddy blocks freed.
  kSlabAlloc,         // Slab slots allocated.
  kSlabFree,          // Slab slots freed.
  kSlabCarve,         // Slab refills: 4 KiB blocks carved from the buddy.
  kSlabRetire,        // Emptied slabs returned to the buddy.
  kAllocBytes,        // Payload bytes handed out by ObjectHeap::Allocate.
  kFreeBytes,         // Payload bytes released by ObjectHeap::Free.
  // Pool / runtime (src/libpuddles).
  kPoolGrow,          // Data puddles added to pools.
  // Epoch-based group commit (src/epoch; docs/epoch.md).
  kEpochAdvanced,        // Epochs closed and persistently retired.
  kEpochTxs,             // Transactions that joined an epoch (txs/epoch = this / advanced).
  kEpochStagedBytes,     // Deferred bytes drained at epoch close (pre-dedup).
  kEpochPublishCycles,   // Advancer flush+fence cycles serving delegated publications.
  kEpochPublishWaits,    // Blocking delegated publications (threads that waited).
  kEpochSyncWaits,       // Explicit Sync()/retirement waits (incl. JoinTx rearm waits).
  // Daemon (src/daemon) — totals; the per-opcode breakdown is separate.
  kDaemonRequest,     // Requests dispatched (socket protocol path).
  kDaemonConnAccepted,  // Client connections admitted by the socket server.
  kDaemonConnClosed,    // Client connections torn down (any reason).
  kDaemonAcceptRetry,   // Transient accept failures survived (EMFILE etc.).
  // Per-thread slab arenas (src/alloc/arena; docs/alloc.md).
  kArenaAlloc,          // Slots handed out by the lock-free arena fast path.
  kArenaFree,           // Slots returned to a local arena free list.
  kArenaRefillSlabs,    // Slabs acquired from the shared heap by refills.
  kArenaFlushSlabs,     // Slabs flushed back to the shared heap (spill/flush).
  kArenaRemoteFree,     // Cross-thread frees absorbed by the owning arena.
  kArenaOrphanAdopt,    // Dead threads' arenas adopted by a live thread.
  kArenaGcSlabs,        // Arena slabs scanned by post-crash GC recovery.
  kArenaGcReclaimed,    // Leaked in-flight slots reclaimed by GC.
  kNumCounters,       // Sentinel; keep last.
};

inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kNumCounters);

// Stable short name for dashboards, the STATS wire payload, and puddlestat.
const char* CounterName(Counter counter);

// ---- Histogram catalog ----
enum class Hist : uint32_t {
  kTxCommitTicks = 0,   // Pool::Run / Transaction commit latency.
  kFlushPublishTicks,   // FlushBatch publication (flush pass + fence).
  kDaemonServiceTicks,  // Daemon request service time (DispatchRequest).
  kEpochSyncWaitTicks,  // Time blocked waiting on the epoch advancer.
  kNumHists,            // Sentinel; keep last.
};

inline constexpr size_t kNumHists = static_cast<size_t>(Hist::kNumHists);

const char* HistName(Hist hist);

// Daemon per-opcode request counters: indexed by the raw wire opcode,
// clamped into the overflow slot when out of range (forward compatibility
// with unknown ops).
inline constexpr size_t kMaxDaemonOps = 32;

// ---- Process-wide snapshot ----
struct Snapshot {
  uint64_t counters[kNumCounters] = {};
  uint64_t daemon_ops[kMaxDaemonOps] = {};
  Histogram hists[kNumHists];
  uint64_t live_threads = 0;     // Slots still owned by running threads.
  uint64_t retired_threads = 0;  // Threads whose totals were folded in.

  uint64_t counter(Counter c) const { return counters[static_cast<size_t>(c)]; }
  const Histogram& hist(Hist h) const { return hists[static_cast<size_t>(h)]; }
};

// Sums every live per-thread slot plus the retired accumulator, and copies
// the process-wide histograms. Exact once writer threads have quiesced
// (joined); during concurrent updates it is a monotonic, slightly-trailing
// monitoring view.
Snapshot Aggregate();

// Sets out[i] to the total of counters[i] over every live slot plus the
// retired accumulator, read under the registry lock: Aggregate() for a few
// counters, without copying every histogram. Same exactness as Aggregate().
void SumCounters(std::span<const Counter> counters, std::span<uint64_t> out);

// Subtracts counters/ops bucket-wise (for before/after deltas in benches and
// tests). Histograms are subtracted bucket-wise too; callers should only
// diff quiesced snapshots.
Snapshot Delta(const Snapshot& after, const Snapshot& before);

// Test hook: zeroes every live slot, the retired accumulator and the
// histograms. Not safe to run concurrently with writers mid-bump; tests
// quiesce first.
void ResetForTesting();

// ---- Clocks ----
// Raw timestamp in TSC ticks (nanoseconds on non-x86 fallbacks).
uint64_t NowTicks();
// Converts a tick delta to nanoseconds using a ratio calibrated against
// CLOCK_MONOTONIC since process start (self-correcting as uptime grows).
uint64_t TicksToNanos(uint64_t ticks);

// ---- Fast-path implementation ----
// Cacheline-padded per-thread counter slot. Writers: owning thread only,
// relaxed load+store (no lock-prefixed RMW). Readers: Aggregate(), relaxed
// loads.
struct alignas(64) ThreadSlot {
  std::atomic<uint64_t> counters[kNumCounters] = {};
  std::atomic<uint64_t> daemon_ops[kMaxDaemonOps] = {};

  void Bump(Counter c, uint64_t n) {
    std::atomic<uint64_t>& slot = counters[static_cast<size_t>(c)];
    slot.store(slot.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  void BumpDaemonOp(uint32_t op) {
    const size_t i = op < kMaxDaemonOps ? op : kMaxDaemonOps - 1;
    daemon_ops[i].store(daemon_ops[i].load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  }
};

// One in kSamplePeriod top-level operations on a thread is timed. 64 puts a
// timed scope's two clock reads below 1 ns per operation on average (the
// measured rounds are in DESIGN.md §11).
inline constexpr uint32_t kSamplePeriod = 64;

namespace internal {
// Registers (first call on a thread) and returns this thread's slot. The
// slow path takes the registry lock exactly once per thread lifetime.
ThreadSlot& Slot();
extern constinit thread_local ThreadSlot* tls_slot;

// The process-wide histograms, indexed by Hist (kNumHists of them).
AtomicHistogram* Histograms();

// This thread's operation sampler (SampledOp).
struct OpSampler {
  uint32_t depth = 0;      // Open SampledOps; nested ones join the outermost.
  uint32_t countdown = 0;  // Top-level operations up to the next sampled one; 0 = unseeded.
  bool sampled = false;    // The open outermost operation is timed.
};
extern constinit thread_local OpSampler tls_sampler;

// A thread's first countdown, in [1, kSamplePeriod]: successive threads start
// at phases spread over the period, so no position in a thread's life is
// favoured and short-lived threads are sampled in proportion.
uint32_t FirstCountdown();
}  // namespace internal

inline ThreadSlot& LocalSlot() {
  ThreadSlot* slot = internal::tls_slot;
  return slot != nullptr ? *slot : internal::Slot();
}

inline void Add(Counter c, uint64_t n) { LocalSlot().Bump(c, n); }
inline void AddDaemonOp(uint32_t op) { LocalSlot().BumpDaemonOp(op); }
// Not sampled: records every call, with locked read-modify-writes on the
// process-wide histogram.
inline void Record(Hist h, uint64_t ticks) {
  internal::Histograms()[static_cast<size_t>(h)].Record(ticks);
}

// Marks a top-level operation (a pool.Run, a daemon request, a Pool::Sync) for
// the lifetime of the scope. The outermost one on a thread takes the
// countdown's decision; one opened inside it belongs to it.
class SampledOp {
 public:
  // The thread-local is named at each use, never bound to a reference: GCC's
  // UBSan reports a reference to it as null.
  SampledOp() {
    using internal::tls_sampler;
    if (tls_sampler.depth++ == 0) {
      if (tls_sampler.countdown == 0) {
        tls_sampler.countdown = internal::FirstCountdown();
      }
      tls_sampler.sampled = --tls_sampler.countdown == 0;
      if (tls_sampler.sampled) {
        tls_sampler.countdown = kSamplePeriod;
      }
    }
  }
  ~SampledOp() {
    using internal::tls_sampler;
    if (--tls_sampler.depth == 0) {
      tls_sampler.sampled = false;
    }
  }
  SampledOp(const SampledOp&) = delete;
  SampledOp& operator=(const SampledOp&) = delete;
};

// RAII tick timer recording into a histogram on scope exit, inside a sampled
// operation only. Its record is a locked instruction: a timer wraps a whole
// scope, so it lands after the scope's fence, never between a flush and it.
class ScopedTimer {
 public:
  explicit ScopedTimer(Hist hist)
      : hist_(hist), timed_(internal::tls_sampler.sampled), start_(timed_ ? NowTicks() : 0) {}
  ~ScopedTimer() {
    if (timed_) {
      Record(hist_, NowTicks() - start_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Hist hist_;
  bool timed_;
  uint64_t start_;
};

}  // namespace stats
}  // namespace puddles

// ---- Instrumentation macros ----
// Call-site shorthands; tools/check_discipline.py looks for these names where
// telemetry is forbidden.
#define PUDDLES_CONCAT2(a, b) a##b
#define PUDDLES_CONCAT(a, b) PUDDLES_CONCAT2(a, b)

// Bump a counter by 1 / by n.
#define PUDDLES_COUNT(counter) ::puddles::stats::Add(::puddles::stats::Counter::counter, 1)
#define PUDDLES_COUNT_N(counter, n) \
  ::puddles::stats::Add(::puddles::stats::Counter::counter, (n))
// Per-opcode daemon request accounting.
#define PUDDLES_COUNT_DAEMON_OP(op) ::puddles::stats::AddDaemonOp((op))
// Time the rest of the enclosing scope into a histogram when the enclosing
// operation is sampled.
#define PUDDLES_SCOPED_TIMER(hist)                                            \
  ::puddles::stats::ScopedTimer PUDDLES_CONCAT(puddles_stats_timer_, __LINE__)( \
      ::puddles::stats::Hist::hist)

#endif  // SRC_STATS_STATS_H_
