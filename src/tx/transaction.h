// Failure-atomic transactions over Puddles logs (paper §4.1, Figs. 7 & 8).
//
// One transaction per thread at a time; a BeginWith while it is open is refused
// (transactions do not nest). The runtime writes undo entries (AddUndo)
// before locations are modified and redo entries (RedoWrite) holding
// deferred new values; commit walks the three hybrid stages of Fig. 7,
// driving the log's sequence range through (0,2) → (2,4) → (4,4):
//   Stage 1  flush every undo-logged location            [crash ⇒ roll back]
//   Stage 2  apply + flush every redo entry              [crash ⇒ roll forward]
//   Stage 3  invalidate and reset the log                [crash ⇒ nothing to do]
//
// Persistence is batched (DESIGN.md §10): appends stage their cache lines
// into a per-transaction FlushBatch and publication points — one
// deduplicated write-back pass plus ONE fence — are placed only where
// ordering is actually required: before an undo-logged live range can be
// stored to, and once per commit stage. Redo, volatile, fresh-object, and
// already-covered appends ride along to the next publication for free, so a
// transaction's fence count is bounded by its ordering structure, not by its
// logged-range count. A constant number of fences per transaction is not the
// floor, though: in epoch mode (DESIGN.md §13, docs/epoch.md) publication is
// delegated through TxTarget::epoch to a background advancer whose single
// fence retires every concurrently publishing thread's lines at once, and the
// per-transaction commit tail (stage 1 write-back + log retirement) is
// deferred to the epoch boundary — amortizing fences *across* threads to well
// under one per transaction.
//
// "Puddles' transactions are thread-local ... they support writing to any
// arbitrary PM data and are not limited to a single pool" — the transaction
// only knows its log; targets may live in any mapped puddle.
#ifndef SRC_TX_TRANSACTION_H_
#define SRC_TX_TRANSACTION_H_

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/pmem/flush.h"
#include "src/tx/log_format.h"

namespace puddles {

class EpochPort;

// Everything a transaction needs from its environment. Pools build one of
// these from the thread's cached log puddle (§4.1: "every thread caches the
// log puddle used on the first transaction of that thread").
struct TxTarget {
  // Head log region; must be formatted and empty with range (0,2).
  LogRegion* log = nullptr;
  // Grows the log with a continuation region when full (Fig. 5). Returns the
  // new region plus its puddle UUID (persisted into the chain link). May be
  // null, in which case a full log aborts the transaction.
  std::function<puddles::Result<std::pair<LogRegion*, Uuid>>()> grow;
  // Returns a grown region after commit/abort (reuse/cleanup). May be null.
  std::function<void(LogRegion*)> release;
  // Non-null selects epoch mode (docs/epoch.md): publication is delegated to
  // the epoch advancer, the log accumulates entries across the epoch's
  // transactions (so it need not be empty at BeginWith, only armed at (0,2)),
  // and the commit tail is deferred to the epoch boundary.
  EpochPort* epoch = nullptr;
};

// Thrown by stage hooks in crash-injection tests; never thrown in production.
struct SimulatedCrash {
  const char* stage;
};

class Transaction {
 public:
  // True while the calling thread has a transaction open. The only view of
  // the thread's transaction outside this class: callers receive the
  // transaction itself from BeginWith (`pool.Run` wraps it in a typed Tx).
  static bool ActiveOnThisThread();

  // Starts the thread's transaction; FailedPrecondition while one is open.
  // The target is borrowed and must outlive the transaction (Pool::Run
  // passes the thread's cached target).
  static puddles::Result<Transaction*> BeginWith(const TxTarget* target);

  // Undo-logs [addr, addr+size): the current contents are captured and the
  // caller may modify the range immediately after return. Under the
  // batched protocol (DESIGN.md §10) this stages the entry and then publishes
  // every pending staged append with ONE fence before returning — the
  // pre-mutation ordering point. The append (and its fence) is elided
  // entirely when the range is already covered: inside a fresh allocation of
  // this transaction (rollback deallocates it; old bytes are meaningless) or
  // inside one of its last kRecentCaptures undo-logged ranges (reverse replay
  // restores the earlier, pre-transaction capture last). A re-log of an older
  // capture appends a redundant entry, which is still correct.
  puddles::Status AddUndo(void* addr, size_t size);

  // Deferred-publication variant for runtime-controlled callers (the
  // allocator LogSink): stages the entry without fencing. The caller MUST
  // invoke PublishStaged() before its first store to any range declared this
  // way — declare every range of the mutation group, publish once, then
  // mutate. Misordering is a crash-consistency bug, not a crash.
  puddles::Status AddUndoDeferred(void* addr, size_t size);

  // Publishes all staged-but-unpublished log appends: one deduplicated
  // write-back pass over the touched cache lines plus one fence. No-op when
  // nothing is pending.
  void PublishStaged();

  // Undo-logs a volatile (DRAM) range: restored on abort, ignored by
  // post-crash recovery.
  puddles::Status AddVolatileUndo(void* addr, size_t size);

  // Redo-logs a deferred write: `*dst` keeps its old value until commit
  // stage 2 copies the new bytes in. Staged without any fence:
  // a redo entry needs no ordering until commit, because its target is not
  // touched before stage 2 and an unpublished entry is invalid at replay
  // (out of sequence range, or torn and discarded by checksum).
  puddles::Status RedoWrite(void* dst, const void* src, uint32_t size);

  template <typename T>
  puddles::Status RedoSet(T* dst, const T& value) {
    return RedoWrite(dst, &value, sizeof(T));
  }

  // Queues an operation (typically an allocator free) to run at the head of
  // commit, while undo logging is still active. Deferring frees to commit
  // keeps freed blocks out of reuse within the transaction, so rollback can
  // never resurrect an object whose bytes were recycled (DESIGN.md §3).
  void DeferFree(std::function<puddles::Status()> op);

  // Registers a volatile side-effect to run once the commit has fully
  // succeeded (after the log is retired / handed to the epoch
  // advancer). Used by the arena allocator to publish unlogged frees: the
  // slot may only re-enter a free list when the freeing transaction can no
  // longer roll back. Dropped if the commit fails (the subsequent Abort runs
  // the on-abort hooks instead). The hook must not throw.
  void DeferPostCommit(std::function<void()> fn);

  // Registers a volatile side-effect to run after a successful Abort() has
  // rolled back all persistent state — the hook restores volatile bookkeeping
  // (arena shadow bitmaps, free lists) to match. The hook must not throw.
  void DeferOnAbort(std::function<void()> fn);

  // Registers a freshly allocated payload range. Fresh objects need no undo
  // data (abort rolls the allocation itself back via the allocator-metadata
  // undo entries), but their contents are plain stores that nothing else
  // flushes — commit stage 1 must persist them, or a committed transaction's
  // new objects hold garbage after a crash (found by crashsim fence-boundary
  // exploration; PMDK's tx_alloc tracks new objects the same way).
  void NoteFreshRange(void* addr, size_t size);

  // Records a payload freed (deferred) in this transaction, so the typed Tx
  // can reject later logging of the dead object (use-after-free inside one
  // transaction). Cleared with the rest of the state at commit/abort.
  void NoteFreedRange(const void* addr, size_t size);
  bool IntersectsFreedRange(const void* addr, size_t size) const;

  // Commits through the Fig. 7 stages (or hands the tail to the epoch).
  puddles::Status Commit();

  // Rolls back everything via the undo entries, newest first, including
  // volatile entries.
  puddles::Status Abort();

  bool active() const { return active_; }

  // Monotonic count of Begins served by this thread's transaction object. A
  // typed `Tx` handle captures the epoch at Run-entry so a handle that
  // outlives its transaction is detected (FailedPrecondition) instead of
  // silently joining a later transaction that reuses this object.
  uint64_t epoch() const { return epoch_; }

  // Test-only: invoked at named commit points ("s1_flushed", "s2_applied",
  // "s3_marked", "reset_done"); may throw SimulatedCrash.
  static void SetStageHook(void (*hook)(const char* stage));

  // Drops all in-flight transaction state without touching PM — what process
  // death does. Crash-injection tests call this after writing the crash image
  // (crashsim::ApplyCrashState); real recovery then happens through
  // ReplayLogChain, not through this object.
  static void AbandonCurrentForTesting();

 private:
  // Undo captures the earlier-capture elision rule checks: the most recent
  // ones only, so a transaction keeps no DRAM per capture.
  static constexpr size_t kRecentCaptures = 64;

  Transaction() = default;

  puddles::Status AppendEntry(uint64_t addr, const void* data, uint32_t size, uint32_t seq,
                              ReplayOrder order, uint8_t flags);
  puddles::Status AddUndoInternal(void* addr, size_t size, bool publish);
  bool CapturedRecently(uintptr_t lo, uintptr_t hi) const;
  // Calls `fn(const LogEntryHeader&)` on this transaction's entries (only
  // its redo entries, for ForEachOwnRedoEntry), oldest first, in place in
  // the log chain, until `fn` returns false.
  template <typename Fn>
  void ForEachOwnEntry(Fn&& fn) const;
  template <typename Fn>
  void ForEachOwnRedoEntry(Fn&& fn) const;
  puddles::Status CommitEpochMode();
  puddles::Status AbortImmediateMode();
  puddles::Status AbortEpochMode();
  // Applies this transaction's undo entries newest first and stages their
  // non-volatile targets into batch_.
  void RollBack();
  void RunPostCommitHooks();
  void PublishStagedEpoch();
  void RetireLog(LogRegion* head);
  void ResetState();
  static void StageHook(const char* stage);

  const TxTarget* target_ = nullptr;  // Active target (borrowed).
  std::vector<LogRegion*> chain_;  // chain_[0] == target_->log.
  // The log is the entry list: this transaction's entries start at
  // chain_[first_region_] + first_offset_ and run, in append order, to the
  // chain's tail. In epoch mode earlier transactions of the open epoch own
  // what lies before that point.
  size_t first_region_ = 0;
  uint64_t first_offset_ = 0;
  uint64_t redo_entries_ = 0;
  // Staged-but-unpublished log lines (entries + headers); per-thread because
  // the transaction itself is. Drained by PublishStaged() / commit stage 1.
  pmem::FlushBatch batch_;
  // Commit stage 1's write-back set, built as the transaction logs: every
  // non-volatile undo capture's target and every fresh range. Adjacent
  // ranges extend one run, so a sequential walk stays a few runs long.
  pmem::FlushBatch writeback_;
  // Fresh allocations, for coverage elision; adjacent slots share one range.
  std::vector<std::pair<uintptr_t, uintptr_t>> fresh_ranges_;
  // The last kRecentCaptures non-volatile undo captures as [lo, hi), a ring
  // indexed by captures_ (the transaction's capture count), and the span of
  // every capture so far.
  std::array<std::pair<uintptr_t, uintptr_t>, kRecentCaptures> recent_captures_{};
  uint64_t captures_ = 0;
  uintptr_t logged_lo_ = UINTPTR_MAX;
  uintptr_t logged_hi_ = 0;
  std::vector<std::pair<const void*, size_t>> freed_ranges_;  // Rejected from logging.
  std::vector<std::function<puddles::Status()>> deferred_frees_;
  std::vector<std::function<void()>> post_commit_;  // Run after commit success.
  std::vector<std::function<void()>> on_abort_;     // Run after rollback.
  bool active_ = false;
  uint64_t epoch_ = 0;
  // True while this transaction runs under an EpochPort (the
  // persistence-epoch sense of "epoch"; unrelated to the handle-staleness
  // counter above).
  bool epoch_mode_ = false;
};

}  // namespace puddles

#endif  // SRC_TX_TRANSACTION_H_
