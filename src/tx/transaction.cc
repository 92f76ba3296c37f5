#include "src/tx/transaction.h"

#include <algorithm>
#include <cstring>

#include "src/pmem/flush.h"
#include "src/tx/epoch_port.h"
#include "src/stats/stats.h"

namespace puddles {
namespace {

constinit thread_local Transaction* tls_transaction = nullptr;

// Frees the thread's Transaction at thread exit. A separate owner object so
// the fast-path pointer above stays a trivial (wrapper-free) thread_local; if
// a later-destroyed TLS object begins a new transaction after this runs,
// BeginWith simply re-allocates.
struct TransactionOwner {
  ~TransactionOwner() {
    delete tls_transaction;
    tls_transaction = nullptr;
  }
};
thread_local TransactionOwner tls_transaction_owner;

void (*g_stage_hook)(const char* stage) = nullptr;

// True iff [lo, hi) lies entirely inside one of the transaction's fresh
// ranges. A linear scan, like IntersectsFreedRange below: NoteFreshRange
// merges adjacent slots, so a transaction that allocates a run of objects
// keeps a short list. Earlier undo captures are not scanned here: the
// capture rule checks only the fixed ring of recent captures
// (CapturedRecently), so it costs no DRAM per capture.
bool RangeCovered(const std::vector<std::pair<uintptr_t, uintptr_t>>& ranges, uintptr_t lo,
                  uintptr_t hi) {
  for (const auto& [range_lo, range_hi] : ranges) {
    if (lo >= range_lo && hi <= range_hi) {
      return true;
    }
  }
  return false;
}

void ApplyEntry(const LogEntryHeader& entry) {
  std::memcpy(reinterpret_cast<void*>(entry.addr), &entry + 1, entry.size);
}

}  // namespace

void Transaction::SetStageHook(void (*hook)(const char* stage)) { g_stage_hook = hook; }

void Transaction::StageHook(const char* stage) {
  if (g_stage_hook != nullptr) {
    g_stage_hook(stage);
  }
}

bool Transaction::ActiveOnThisThread() {
  return tls_transaction != nullptr && tls_transaction->active();
}

void Transaction::AbandonCurrentForTesting() {
  if (tls_transaction != nullptr) {
    tls_transaction->ResetState();
  }
}

puddles::Result<Transaction*> Transaction::BeginWith(const TxTarget* target) {
  if (ActiveOnThisThread()) {
    return FailedPreconditionError("transactions do not nest: one is already open on this thread");
  }
  if (tls_transaction == nullptr) {
    (void)tls_transaction_owner;  // Register the thread-exit deleter.
    tls_transaction = new Transaction();  // Thread-lifetime singleton.
  }
  Transaction* tx = tls_transaction;
  if (target == nullptr || target->log == nullptr) {
    return InvalidArgumentError("transaction needs a log");
  }
  auto [lo, hi] = target->log->seq_range();
  if (lo != 0 || hi != 2) {
    return FailedPreconditionError("transaction log not empty/armed");
  }
  tx->chain_.clear();
  tx->chain_.push_back(target->log);
  if (target->epoch != nullptr) {
    // Epoch mode: the log legitimately holds entries from earlier
    // transactions of the open epoch (retirement is deferred to the epoch
    // boundary), so only the armed range is required. JoinTx waits out an
    // unretired previous epoch, rearms if needed, and re-adopts any
    // continuation regions grown earlier in this epoch.
    puddles::Status joined = target->epoch->JoinTx(target->log, &tx->chain_);
    if (!joined.ok()) {
      tx->chain_.clear();
      return joined;
    }
    tx->epoch_mode_ = true;
  } else {
    if (!target->log->empty()) {
      tx->chain_.clear();
      return FailedPreconditionError("transaction log not empty/armed");
    }
    tx->epoch_mode_ = false;
  }
  tx->first_region_ = tx->chain_.size() - 1;
  tx->first_offset_ = tx->chain_.back()->next_free();
  tx->target_ = target;
  tx->active_ = true;
  ++tx->epoch_;  // New transaction: invalidate stale Tx handles.
  PUDDLES_COUNT(kTxBegin);
  return tx;
}

template <typename Fn>
void Transaction::ForEachOwnEntry(Fn&& fn) const {
  uint64_t offset = first_offset_;
  // Indexes, and next_free re-read per entry: epoch commit appends pre-image
  // captures (and may grow the chain) while it walks.
  for (size_t r = first_region_; r < chain_.size(); ++r, offset = sizeof(LogHeader)) {
    const auto* base = static_cast<const uint8_t*>(chain_[r]->base());
    while (offset < chain_[r]->next_free()) {
      const auto& entry = *reinterpret_cast<const LogEntryHeader*>(base + offset);
      if (!fn(entry)) {
        return;
      }
      offset += LogRegion::EntrySpan(entry.size);
    }
  }
}

// Stops at the last redo entry, so epoch commit's pre-image captures, which
// it appends while walking, are never visited.
template <typename Fn>
void Transaction::ForEachOwnRedoEntry(Fn&& fn) const {
  uint64_t seen = 0;
  if (redo_entries_ == 0) {
    return;
  }
  ForEachOwnEntry([&](const LogEntryHeader& entry) {
    return entry.seq != kRedoSeq || (fn(entry) && ++seen < redo_entries_);
  });
}

puddles::Status Transaction::AppendEntry(uint64_t addr, const void* data, uint32_t size,
                                         uint32_t seq, ReplayOrder order, uint8_t flags) {
  if (!active()) {
    return FailedPreconditionError("no active transaction");
  }
  LogRegion* region = chain_.back();
  puddles::Status status = region->AppendStaged(addr, data, size, seq, order, flags, &batch_);
  if (status.code() == StatusCode::kOutOfMemory) {
    if (!target_->grow) {
      return status;
    }
    // Chain a continuation log puddle (Fig. 5). The link persists before any
    // entry lands in the new region, so recovery can always follow it.
    PUDDLES_COUNT(kLogChain);
    ASSIGN_OR_RETURN(auto grown, target_->grow());
    auto [new_region, uuid] = grown;
    region->SetNextLog(uuid);
    chain_.push_back(new_region);
    region = new_region;
    status = region->AppendStaged(addr, data, size, seq, order, flags, &batch_);
  }
  RETURN_IF_ERROR(status);
  PUDDLES_COUNT_N(kLogBytes, LogRegion::EntrySpan(size));
  return OkStatus();
}

bool Transaction::CapturedRecently(uintptr_t lo, uintptr_t hi) const {
  const size_t held = std::min<uint64_t>(captures_, kRecentCaptures);
  for (size_t i = 0; i < held; ++i) {
    const auto& [capture_lo, capture_hi] = recent_captures_[i];
    if (lo >= capture_lo && hi <= capture_hi) {
      return true;
    }
  }
  return false;
}

puddles::Status Transaction::AddUndoInternal(void* addr, size_t size, bool publish) {
  // Entry sizes are 32-bit on media; a silent truncation here would return
  // OK while logging a fraction (or none) of the range.
  if (size > UINT32_MAX) {
    return InvalidArgumentError("undo range exceeds the 4 GiB log-entry limit");
  }
  if (!active()) {
    return FailedPreconditionError("no active transaction");
  }
  // Coverage elision: no entry (and no fence) when rollback of this range is
  // already guaranteed. A range inside a fresh allocation needs no old-value
  // capture — abort/recovery rolls the allocation itself back and the bytes
  // become unreachable. A range inside an earlier undo capture is restored by
  // that entry; reverse replay applies the earliest (pre-transaction) capture
  // last, so a later overlapping snapshot adds nothing. Only the last
  // kRecentCaptures captures are checked: a re-log of an older one appends
  // a redundant entry, which replays before the earliest capture and so is
  // still correct. The span check skips the ring scan for a range reaching
  // outside every capture so far, so a sequential walk never scans.
  const uintptr_t lo = reinterpret_cast<uintptr_t>(addr);
  const uintptr_t hi = lo + size;
  if (RangeCovered(fresh_ranges_, lo, hi) ||
      (lo >= logged_lo_ && hi <= logged_hi_ && CapturedRecently(lo, hi))) {
    PUDDLES_COUNT(kUndoElided);
    return OkStatus();
  }
  RETURN_IF_ERROR(AppendEntry(reinterpret_cast<uint64_t>(addr), addr,
                              static_cast<uint32_t>(size), kUndoSeq, ReplayOrder::kReverse, 0));
  PUDDLES_COUNT(kUndoAppend);
  recent_captures_[captures_++ % kRecentCaptures] = {lo, hi};
  logged_lo_ = std::min(logged_lo_, lo);
  logged_hi_ = std::max(logged_hi_, hi);
  // Stage 1 persists the range's new value at commit.
  writeback_.Add(addr, size);
  if (publish) {
    // Pre-mutation ordering point: the entry (and everything else pending)
    // must be durable before the caller's first store to the range.
    PublishStaged();
  }
  return OkStatus();
}

puddles::Status Transaction::AddUndo(void* addr, size_t size) {
  return AddUndoInternal(addr, size, /*publish=*/true);
}

puddles::Status Transaction::AddUndoDeferred(void* addr, size_t size) {
  return AddUndoInternal(addr, size, /*publish=*/false);
}

void Transaction::PublishStaged() {
  if (batch_.empty()) {
    return;
  }
  if (epoch_mode_) {
    PublishStagedEpoch();
    return;
  }
  PUDDLES_SCOPED_TIMER(kFlushPublishTicks);
  batch_.FlushPending();
  pmem::Fence();
}

// Epoch-mode publication: the staged lines are spliced to the advancer, whose
// flush + single fence retires every waiting thread's publication at once.
// This function (and the whole epoch commit/abort path) must stay free of
// pmem::Flush/Fence calls — CI checks it (tools/check_discipline.py).
void Transaction::PublishStagedEpoch() { target_->epoch->Publish(&batch_); }

puddles::Status Transaction::AddVolatileUndo(void* addr, size_t size) {
  if (size > UINT32_MAX) {
    return InvalidArgumentError("undo range exceeds the 4 GiB log-entry limit");
  }
  RETURN_IF_ERROR(AppendEntry(reinterpret_cast<uint64_t>(addr), addr,
                              static_cast<uint32_t>(size), kUndoSeq, ReplayOrder::kReverse,
                              kLogEntryVolatile));
  PUDDLES_COUNT(kVolatileAppend);
  return OkStatus();
}

puddles::Status Transaction::RedoWrite(void* dst, const void* src, uint32_t size) {
  RETURN_IF_ERROR(AppendEntry(reinterpret_cast<uint64_t>(dst), src, size, kRedoSeq,
                              ReplayOrder::kForward, 0));
  ++redo_entries_;
  PUDDLES_COUNT(kRedoAppend);
  return OkStatus();
}

void Transaction::DeferFree(std::function<puddles::Status()> op) {
  deferred_frees_.push_back(std::move(op));
}

void Transaction::DeferPostCommit(std::function<void()> fn) {
  post_commit_.push_back(std::move(fn));
}

void Transaction::DeferOnAbort(std::function<void()> fn) {
  on_abort_.push_back(std::move(fn));
}

void Transaction::NoteFreshRange(void* addr, size_t size) {
  writeback_.Add(addr, size);
  const uintptr_t lo = reinterpret_cast<uintptr_t>(addr);
  const uintptr_t hi = lo + size;
  if (!fresh_ranges_.empty()) {
    auto& [last_lo, last_hi] = fresh_ranges_.back();
    if (lo == last_hi) {
      last_hi = hi;
      return;
    }
    if (hi == last_lo) {
      last_lo = lo;
      return;
    }
  }
  fresh_ranges_.emplace_back(lo, hi);
}

void Transaction::NoteFreedRange(const void* addr, size_t size) {
  freed_ranges_.emplace_back(addr, size);
}

bool Transaction::IntersectsFreedRange(const void* addr, size_t size) const {
  const uintptr_t lo = reinterpret_cast<uintptr_t>(addr);
  const uintptr_t hi = lo + size;
  for (const auto& [dead, dead_size] : freed_ranges_) {
    const uintptr_t dead_lo = reinterpret_cast<uintptr_t>(dead);
    if (lo < dead_lo + dead_size && dead_lo < hi) {
      return true;
    }
  }
  return false;
}

// Post-commit hooks run only once the commit has fully succeeded:
// they publish volatile effects (arena free-list pushes) that must not happen
// while the transaction can still roll back. Captured at the success exits —
// after the deferred frees have run, so hooks they register are included —
// and dropped on failure (the caller's Abort() runs the on-abort hooks
// instead). The state is reset before the hooks run, so a hook may begin a
// transaction of its own (Pool::PublishArenaFree does).
void Transaction::RunPostCommitHooks() {
  std::vector<std::function<void()>> post_commit = std::move(post_commit_);
  post_commit_.clear();
  ResetState();
  for (auto& fn : post_commit) {
    fn();
  }
}

puddles::Status Transaction::Commit() {
  if (!active()) {
    return FailedPreconditionError("no active transaction");
  }
  PUDDLES_SCOPED_TIMER(kTxCommitTicks);
  PUDDLES_COUNT(kTxCommit);
  // Deferred frees run first, while undo logging is live: their metadata
  // mutations become part of this transaction.
  for (auto& op : deferred_frees_) {
    RETURN_IF_ERROR(op());
  }

  if (epoch_mode_) {
    return CommitEpochMode();
  }

  LogRegion* head = chain_.front();

  // ---- Stage 1: one fence makes the pre-commit image durable (Fig. 7a). ----
  // Three kinds of lines share it: staged-but-unpublished appends (redo,
  // volatile, and elided-coverage entries plus their headers — still in
  // batch_), every undo-logged location (whose new value must be on PM before
  // redo application starts; their entries were published pre-mutation), and
  // fresh-allocation contents (no undo entries, but nothing else flushes
  // them). The last two are writeback_, built as the transaction logged.
  // Publishing redo entries here is safe: until the (2,4) flip below they
  // are out of sequence range at replay.
  batch_.Splice(&writeback_);
  {
    PUDDLES_SCOPED_TIMER(kFlushPublishTicks);
    batch_.FlushPending();
    pmem::Fence();
  }
  StageHook("s1_flushed");

  // Undo-only fast path: with no redo entries, stages 2/3 degenerate — the
  // commit point is the log retirement itself (a crash before it rolls back
  // via the still-valid undo entries, which is correct for an uncommitted
  // tx, and a crash after it finds the new values persisted by stage 1).
  if (redo_entries_ == 0) {
    RetireLog(head);
    StageHook("reset_done");
    for (size_t i = 1; i < chain_.size(); ++i) {
      if (target_->release) {
        target_->release(chain_[i]);
      }
    }
    RunPostCommitHooks();
    return OkStatus();
  }

  head->SetSeqRange(2, 4);  // Undo replay off, redo replay on.
  StageHook("range_24");

  // ---- Stage 2: apply the redo log (Fig. 7b), one fence. ----
  // Redo entries are never volatile (RedoWrite appends them), so every
  // target is flushed.
  ForEachOwnRedoEntry([&](const LogEntryHeader& entry) {
    ApplyEntry(entry);
    batch_.Add(reinterpret_cast<void*>(entry.addr), entry.size);
    StageHook("redo_applied_one");
    return true;
  });
  {
    PUDDLES_SCOPED_TIMER(kFlushPublishTicks);
    batch_.FlushPending();
    pmem::Fence();
  }
  StageHook("s2_applied");

  // ---- Stage 3: mark committed and drop the log. ----
  // Common case: the (4,4) flip, clear, and generation bump merge into one
  // header write + fence; reopening the range is the second and final fence.
  // A chained log keeps the general, conservatively-ordered path.
  if (chain_.size() == 1 && head->RetireCommitted()) {
    StageHook("s3_marked");
    head->SetSeqRange(0, 2);
    StageHook("reset_done");
  } else {
    head->SetSeqRange(4, 4);  // Nothing replays: the transaction is committed.
    StageHook("s3_marked");
    head->Reset(0, 2);
    StageHook("reset_done");
  }

  for (size_t i = 1; i < chain_.size(); ++i) {
    if (target_->release) {
      target_->release(chain_[i]);
    }
  }
  RunPostCommitHooks();
  return OkStatus();
}

// Epoch-mode commit (docs/epoch.md): the log is NOT retired — its undo
// entries stay live so a crash before the epoch's retirement record rolls
// back every transaction of the epoch, never a prefix. The commit tail
// (target write-back, log reset, sequence-range flips) is deferred to the
// epoch boundary; this function issues zero flush/fence instructions itself
// (CI-checked by tools/check_discipline.py).
puddles::Status Transaction::CommitEpochMode() {
  // Redo entries become in-place mutations below, with the log still armed
  // for undo replay — so each redo target needs a pre-image capture first,
  // or a crash inside the epoch could not roll the mutation back. (Immediate
  // mode avoids the capture by flipping the range to redo replay; epoch mode
  // keeps (0,2) so the dead redo entries are simply out of range at replay.)
  puddles::Status captured = OkStatus();
  ForEachOwnRedoEntry([&](const LogEntryHeader& entry) {
    captured = AddUndoInternal(reinterpret_cast<void*>(entry.addr), entry.size,
                               /*publish=*/false);
    return captured.ok();
  });
  RETURN_IF_ERROR(captured);

  // One blocking delegated publication covers every staged-but-unpublished
  // append: redo entries, the pre-image captures above, and volatile entries.
  // Publishing even the replay-dead entries matters — an unpublished entry
  // torn by eviction would truncate the recovery walk at its corrupt size
  // field and hide later transactions' undo entries in the same epoch log.
  PublishStaged();

  // Apply the redo log in place; pre-images are durable, so this is
  // crash-safe from here on. Targets only need durability by epoch close.
  ForEachOwnRedoEntry([&](const LogEntryHeader& entry) {
    ApplyEntry(entry);
    batch_.Add(reinterpret_cast<void*>(entry.addr), entry.size);
    return true;
  });

  // The immediate-mode stage-1 write-back set (new values of undo-logged
  // ranges, the pre-image captures above included, and fresh-object
  // contents) plus the applied redo targets are handed to the advancer
  // without blocking: the epoch-close drain flushes them, fences once, and
  // only then writes the retirement record.
  batch_.Splice(&writeback_);
  target_->epoch->StageDeferred(&batch_);
  target_->epoch->LeaveTx(chain_);
  RunPostCommitHooks();
  return OkStatus();
}

puddles::Status Transaction::Abort() {
  if (!active()) {
    return FailedPreconditionError("no active transaction");
  }
  PUDDLES_COUNT(kTxAbort);
  // On-abort hooks run after the persistent rollback, so they can bring
  // volatile bookkeeping (arena shadow state) back in line with the restored
  // PM image.
  std::vector<std::function<void()>> on_abort = std::move(on_abort_);
  on_abort_.clear();
  puddles::Status status = epoch_mode_ ? AbortEpochMode() : AbortImmediateMode();
  if (status.ok()) {
    for (auto& fn : on_abort) {
      fn();
    }
  }
  return status;
}

// Applies the transaction's undo entries newest-first; volatile entries are
// included so DRAM state tracks the PM rollback (§4.1). Staged entries not yet
// published are applied too — they live in the mapped log bytes. Redo entries
// were never applied, so there is nothing to undo for them. The entries are
// gathered in a local list, freed on return, because the log links them
// oldest-first only.
void Transaction::RollBack() {
  std::vector<const LogEntryHeader*> undo;
  ForEachOwnEntry([&](const LogEntryHeader& entry) {
    if (entry.seq == kUndoSeq) {
      undo.push_back(&entry);
    }
    return true;
  });
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    const LogEntryHeader& entry = **it;
    ApplyEntry(entry);
    if ((entry.flags & kLogEntryVolatile) == 0) {
      batch_.Add(reinterpret_cast<void*>(entry.addr), entry.size);
    }
  }
}

puddles::Status Transaction::AbortImmediateMode() {
  // The restored targets are batched under the single fence below.
  RollBack();
  batch_.FlushPending();
  pmem::Fence();

  RetireLog(chain_.front());
  for (size_t i = 1; i < chain_.size(); ++i) {
    if (target_->release) {
      target_->release(chain_[i]);
    }
  }
  ResetState();
  return OkStatus();
}

// Epoch-mode abort: in-memory rollback only, no flush/fence (CI-gated). The
// log keeps this transaction's (published) undo entries — retiring them here
// would need fences, and replaying them after a crash just re-applies the
// same pre-images restored below, which is idempotent. The restored target
// lines ride to durability with the epoch-close drain; until the epoch
// retires, recovery rolls the whole epoch back anyway.
puddles::Status Transaction::AbortEpochMode() {
  // Unpublished staged appends (redo/volatile entries) are published first
  // for the same torn-walk reason as in CommitEpochMode: a torn entry in the
  // middle of the epoch's log would truncate replay and hide later
  // transactions' undo entries.
  PublishStaged();
  RollBack();
  target_->epoch->StageDeferred(&batch_);
  target_->epoch->LeaveTx(chain_);
  ResetState();
  return OkStatus();
}

// Empties and re-arms the head log after an undo-only commit or an abort
// (range still (0,2)): the one-fence Rearm when the log is unchained, the
// general Reset otherwise.
void Transaction::RetireLog(LogRegion* head) {
  if (chain_.size() == 1 && head->Rearm()) {
    return;
  }
  head->Reset(0, 2);
}

void Transaction::ResetState() {
  // Drop, never flush, still-staged lines: they may point into a log that is
  // about to be unmapped (an abandoned test transaction), and nothing that
  // was not published may linger into the next transaction's batch.
  batch_.Clear();
  writeback_.Clear();
  first_region_ = 0;
  first_offset_ = 0;
  redo_entries_ = 0;
  fresh_ranges_.clear();
  captures_ = 0;
  logged_lo_ = UINTPTR_MAX;
  logged_hi_ = 0;
  freed_ranges_.clear();
  deferred_frees_.clear();
  post_commit_.clear();
  on_abort_.clear();
  chain_.clear();
  target_ = nullptr;
  active_ = false;
  epoch_mode_ = false;
}

}  // namespace puddles
