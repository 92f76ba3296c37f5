// Persistence primitives over emulated persistent memory.
//
// The paper runs on Optane DC-PMM where durability is: store, clwb (or
// clflushopt), sfence. We emulate PM with mmap'd files (DESIGN.md §1), so the
// primitives below (a) execute the real x86 flush instructions when available,
// preserving the instruction-level cost structure, (b) maintain counters so
// tests can assert ordering discipline, and (c) report every flush and fence
// to the one PersistObserver, crashsim's trace recorder, from whose trace
// every post-crash durable image is built (DESIGN.md §1, §5).
#ifndef SRC_PMEM_FLUSH_H_
#define SRC_PMEM_FLUSH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pmem {

// Which flush instruction the host supports (best one is selected at startup).
enum class FlushInstruction { kClwb, kClflushOpt, kClflush, kNoop };

FlushInstruction ActiveFlushInstruction();
const char* FlushInstructionName(FlushInstruction instruction);

// Write-back every cache line overlapping [addr, addr+size). Does not order
// subsequent stores; pair with Fence().
void Flush(const void* addr, size_t size);

// Store fence (sfence). Orders all preceding flushes/non-temporal stores.
void Fence();

// Flush + Fence, the common "persist this range now" idiom.
void FlushFence(const void* addr, size_t size);

// Store `value` to `*dst` and persist it: store, flush line, fence. The
// canonical primitive for publishing a commit marker.
void PersistStore64(uint64_t* dst, uint64_t value);

// Persistence traffic counters. Tests use them to assert that code paths
// emit the expected flush/fence pattern; benches report them as derived
// metrics. Flush and Fence count in the calling thread's
// stats::ThreadSlot with a plain load+store, never a process-wide atomic: a
// lock-prefixed instruction orders earlier clwbs as an sfence does, so one
// between a Flush and its Fence would wait for the write-back that Flush
// leaves unordered, and every persisting thread would share its line.
struct PersistStats {
  uint64_t flushed_lines = 0;
  uint64_t flush_calls = 0;
  uint64_t fences = 0;
};

// Totals over every thread, live or exited (stats::SumCounters). Exact once
// the persisting threads are idle; take before/after deltas.
PersistStats ReadPersistStats();

// Observer of the persistence instruction stream. The crashsim trace recorder
// implements this to build epoch-delimited persist traces.
//
// Callback-ordering contract (crashsim depends on it; see DESIGN.md §10):
//   * Callbacks run on the persisting thread, after the flush/fence has taken
//     effect.
//   * Every cache line written back through this module is reported by exactly
//     one OnFlushRange before the OnFence that orders it — including lines
//     flushed through a FlushBatch, whose deduplicated runs are reported as
//     ordinary OnFlushRange calls at publication time. Batching coalesces
//     flushes; it never bypasses or reorders them past their closing fence.
//   * OnFence is invoked once per Fence(), after the sfence retires, so the
//     interval between two OnFence callbacks is exactly one persist epoch.
class PersistObserver {
 public:
  virtual ~PersistObserver() = default;
  virtual void OnFlushRange(const void* addr, size_t size) = 0;
  virtual void OnFence() = 0;
};

// Installs the process-wide observer (nullptr to clear). At most one observer
// may be active; the caller must keep it alive until cleared.
void SetPersistObserver(PersistObserver* observer);

// Accumulates to-be-persisted ranges and writes them back in one batch with
// cacheline deduplication — the building block of the transaction runtime's
// group-persistence protocol (DESIGN.md §10). A range Add()ed here is NOT
// durable (and not even write-back-scheduled) until FlushPending() runs, and
// not ordered until the caller fences; the intended idiom is
//
//   batch.Add(a, la); batch.Add(b, lb); ...   // stage
//   batch.FlushPending();                     // one write-back pass, deduped
//   pmem::Fence();                            // one ordering point
//
// Lines staged twice are flushed once (with their latest content, since Flush
// writes back whatever the line holds at flush time). Not thread-safe: each
// transaction/thread owns its batch. Flushes are issued through pmem::Flush,
// so the counters and the PersistObserver see them normally.
class FlushBatch {
 public:
  // Stages every cache line overlapping [addr, addr+size). O(1): the range
  // is recorded whole (line-aligned), not expanded per line, so staging a
  // multi-megabyte fresh range costs one entry, and a range that overlaps or
  // abuts the previously staged one extends it instead of adding another.
  void Add(const void* addr, size_t size);

  // Write-back pass: flushes each staged line exactly once — overlapping and
  // adjacent ranges are merged into maximal runs, one Flush() call per run —
  // then clears the batch. Does not fence.
  void FlushPending();

  // Moves every staged range out of `from` and appends it here, leaving
  // `from` empty. The cross-thread handoff primitive of epoch-based group
  // commit: a committing thread splices its batch into the advancer's
  // accumulation batch under the epoch lock, and the advancer later flushes
  // the union in one deduplicated pass. Neither batch is thread-safe on its
  // own — the caller serializes the handoff.
  void Splice(FlushBatch* from);

  void Clear() {
    ranges_.clear();
    staged_bytes_ = 0;
  }
  bool empty() const { return ranges_.empty(); }

  // Distinct staged lines (after dedup/merge). For tests/benches.
  size_t pending_lines();

  // Upper bound on staged bytes: the sum of line-aligned range sizes as
  // staged, without dedup (duplicate lines double-count). Cheap enough for
  // the epoch advancer's close-threshold accounting, where an overestimate
  // only closes an epoch a little early.
  size_t staged_bytes() const { return staged_bytes_; }

 private:
  void MergeRanges();
  // Line-aligned [start, end) ranges; sorted and overlap-merged lazily.
  std::vector<std::pair<uintptr_t, uintptr_t>> ranges_;
  size_t staged_bytes_ = 0;
};

}  // namespace pmem

#endif  // SRC_PMEM_FLUSH_H_
