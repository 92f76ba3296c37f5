// Transaction runtime tests, including the paper's §5.1 correctness check:
// "we inject crashes into Puddles' runtime and run system-supported recovery
// ... for undo and redo logging and find that Puddles recover application
// data to a consistent and correct state every time."
#include "src/tx/transaction.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crashsim/state_enumerator.h"
#include "src/crashsim/trace.h"
#include "src/tx/epoch_port.h"
#include "src/tx/replay.h"

namespace puddles {
namespace {

// Buffer-backed transaction environment standing in for a Pool.
class TxEnv {
 public:
  explicit TxEnv(size_t log_capacity = 64 * 1024) : log_buffer_(log_capacity) {
    EXPECT_TRUE(LogRegion::Format(log_buffer_.data(), log_buffer_.size()).ok());
    auto log = LogRegion::Attach(log_buffer_.data(), log_buffer_.size());
    EXPECT_TRUE(log.ok());
    log_ = *log;
    target_.log = &log_;
    target_.grow = [this]() -> puddles::Result<std::pair<LogRegion*, Uuid>> {
      grown_buffers_.push_back(std::make_unique<std::vector<uint8_t>>(log_buffer_.size()));
      auto& buf = *grown_buffers_.back();
      RETURN_IF_ERROR(LogRegion::Format(buf.data(), buf.size()));
      auto region = LogRegion::Attach(buf.data(), buf.size());
      RETURN_IF_ERROR(region.status());
      grown_regions_.push_back(std::make_unique<LogRegion>(*region));
      return std::make_pair(grown_regions_.back().get(), Uuid::Generate());
    };
    target_.release = [this](LogRegion*) { ++released_; };
  }
  // The target captures `this` and transactions borrow it: pinned in place.
  TxEnv(const TxEnv&) = delete;
  TxEnv& operator=(const TxEnv&) = delete;

  puddles::Result<Transaction*> BeginTx() { return Transaction::BeginWith(&target_); }
  void set_epoch(EpochPort* port) { target_.epoch = port; }

  LogRegion& log() { return log_; }
  std::vector<LogRegion> Chain() {
    std::vector<LogRegion> chain{log_};
    for (auto& region : grown_regions_) {
      chain.push_back(*region);
    }
    return chain;
  }
  int released() const { return released_; }

 private:
  std::vector<uint8_t> log_buffer_;
  LogRegion log_;
  TxTarget target_;
  std::vector<std::unique_ptr<std::vector<uint8_t>>> grown_buffers_;
  std::vector<std::unique_ptr<LogRegion>> grown_regions_;
  int released_ = 0;
};

class IdentityResolver : public AddressResolver {
 public:
  void* Resolve(uint64_t addr, uint32_t /*size*/) override {
    return reinterpret_cast<void*>(addr);
  }
};

class TransactionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Transaction::SetStageHook(nullptr);
    pmem::SetPersistObserver(nullptr);
    // Drop any transaction a failed test left open. The TxEnv (and its log
    // buffer) is already gone, so state is abandoned, not aborted.
    Transaction::AbandonCurrentForTesting();
  }
};

// Counts ordering points (fences) on the persistence instruction stream —
// the observable the batched-persistence protocol (DESIGN.md §10) minimizes.
class FenceCounter : public pmem::PersistObserver {
 public:
  void OnFlushRange(const void*, size_t) override { ++flush_ranges_; }
  void OnFence() override { ++fences_; }
  int fences() const { return fences_; }
  int flush_ranges() const { return flush_ranges_; }

 private:
  int fences_ = 0;
  int flush_ranges_ = 0;
};

TEST_F(TransactionTest, CommitMakesUndoChangesStick) {
  TxEnv env;
  alignas(64) uint64_t slot = 1;

  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->AddUndo(&slot, sizeof(slot)).ok());
  slot = 2;
  ASSERT_TRUE((*tx)->Commit().ok());

  EXPECT_EQ(slot, 2u);
  EXPECT_TRUE(env.log().empty()) << "log must be reset after commit";
  EXPECT_EQ(env.log().seq_range(), (std::pair<uint32_t, uint32_t>{0, 2}));
}

TEST_F(TransactionTest, AbortRollsBackUndoChanges) {
  TxEnv env;
  alignas(64) uint64_t slot = 1;

  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->AddUndo(&slot, sizeof(slot)).ok());
  slot = 2;
  ASSERT_TRUE((*tx)->Abort().ok());
  EXPECT_EQ(slot, 1u);
  EXPECT_FALSE((*tx)->active());
}

TEST_F(TransactionTest, RedoDefersUntilCommit) {
  TxEnv env;
  alignas(64) uint64_t slot = 1;

  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->RedoSet(&slot, uint64_t{99}).ok());
  EXPECT_EQ(slot, 1u) << "redo writes must not be visible before commit";
  ASSERT_TRUE((*tx)->Commit().ok());
  EXPECT_EQ(slot, 99u);
}

TEST_F(TransactionTest, RedoDiscardedOnAbort) {
  TxEnv env;
  alignas(64) uint64_t slot = 1;
  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->RedoSet(&slot, uint64_t{99}).ok());
  ASSERT_TRUE((*tx)->Abort().ok());
  EXPECT_EQ(slot, 1u);
}

TEST_F(TransactionTest, HybridUndoThenRedoOnSameTx) {
  TxEnv env;
  alignas(64) uint64_t a = 1, b = 2;
  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->AddUndo(&a, sizeof(a)).ok());
  a = 10;
  ASSERT_TRUE((*tx)->RedoSet(&b, uint64_t{20}).ok());
  ASSERT_TRUE((*tx)->Commit().ok());
  EXPECT_EQ(a, 10u);
  EXPECT_EQ(b, 20u);
}

TEST_F(TransactionTest, VolatileUndoRestoredOnAbort) {
  TxEnv env;
  uint64_t dram = 5;  // Conceptually volatile state.
  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->AddVolatileUndo(&dram, sizeof(dram)).ok());
  dram = 6;
  ASSERT_TRUE((*tx)->Abort().ok());
  EXPECT_EQ(dram, 5u);
}

// Transactions do not nest: a Begin while the thread's transaction is open
// is refused and leaves that transaction open and intact.
TEST_F(TransactionTest, NestedBeginRefused) {
  TxEnv env;
  alignas(64) uint64_t slot = 1;
  auto outer = env.BeginTx();
  ASSERT_TRUE(outer.ok());
  ASSERT_TRUE((*outer)->AddUndo(&slot, sizeof(slot)).ok());
  slot = 3;
  EXPECT_TRUE(Transaction::ActiveOnThisThread());
  EXPECT_EQ(env.BeginTx().status().code(), StatusCode::kFailedPrecondition);
  TxTarget other;
  EXPECT_EQ(Transaction::BeginWith(&other).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE((*outer)->active()) << "the refusal must leave the outer transaction open";
  ASSERT_TRUE((*outer)->Abort().ok());
  EXPECT_EQ(slot, 1u) << "the outer undo entry survives the refused Begin";
  EXPECT_FALSE(Transaction::ActiveOnThisThread());
}

TEST_F(TransactionTest, DeferredFreeRunsAtCommitOnly) {
  TxEnv env;
  int ran = 0;
  {
    auto tx = env.BeginTx();
    ASSERT_TRUE(tx.ok());
    (*tx)->DeferFree([&]() {
      ++ran;
      return OkStatus();
    });
    EXPECT_EQ(ran, 0);
    ASSERT_TRUE((*tx)->Commit().ok());
    EXPECT_EQ(ran, 1);
  }
  {
    auto tx = env.BeginTx();
    ASSERT_TRUE(tx.ok());
    (*tx)->DeferFree([&]() {
      ++ran;
      return OkStatus();
    });
    ASSERT_TRUE((*tx)->Abort().ok());
    EXPECT_EQ(ran, 1) << "aborted transaction must drop deferred frees";
  }
}

TEST_F(TransactionTest, LogGrowsIntoChain) {
  TxEnv env(4096);  // Tiny head log.
  std::vector<uint8_t> blob(1024, 0x5c);
  alignas(64) uint8_t targets[8][1024] = {};

  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  for (int i = 0; i < 8; ++i) {
    std::memcpy(targets[i], blob.data(), blob.size());
    ASSERT_TRUE((*tx)->AddUndo(targets[i], 1024).ok()) << "append " << i;
  }
  EXPECT_FALSE(env.log().next_log().is_nil()) << "head must link a continuation";
  ASSERT_TRUE((*tx)->Commit().ok());
  EXPECT_GT(env.released(), 0) << "grown regions returned after commit";
}

// A commit that fails at its head (here a deferred free returning an error)
// reports that status, and the caller's Abort rolls back through the undo
// log — the contract pool.Run builds on.
TEST_F(TransactionTest, FailedCommitRollsBackAndReturnsStatus) {
  TxEnv env;
  alignas(64) uint64_t slot = 1;
  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  (*tx)->DeferFree([] { return InternalError("deferred free exploded"); });
  ASSERT_TRUE((*tx)->AddUndo(&slot, sizeof(slot)).ok());
  slot = 2;
  EXPECT_EQ((*tx)->Commit().code(), StatusCode::kInternal);
  ASSERT_TRUE((*tx)->Abort().ok());
  EXPECT_EQ(slot, 1u) << "failed commit must roll back via the undo log";
  EXPECT_FALSE((*tx)->active());
}

// ---- Fence accounting under batched group persistence (DESIGN.md §10). ----

// Acceptance gate: a transaction that undo-logs N=32 ranges inside a fresh
// allocation commits with a CONSTANT number of fences (≤3) — the appends are
// coverage-elided, the targets persist under the single stage-1 fence, and
// the undo-only commit point is the one-line log rearm.
TEST_F(TransactionTest, FreshRangeUndoTransactionCommitsInConstantFences) {
  TxEnv env;
  alignas(64) static uint8_t arena[32 * 64];
  std::memset(arena, 0, sizeof(arena));

  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  (*tx)->NoteFreshRange(arena, sizeof(arena));  // As Tx::Alloc would.

  FenceCounter counter;
  pmem::SetPersistObserver(&counter);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE((*tx)->AddUndo(&arena[i * 64], 64).ok());
    arena[i * 64] = static_cast<uint8_t>(i + 1);
  }
  EXPECT_EQ(counter.fences(), 0) << "fresh-covered undo logging must not fence";
  ASSERT_TRUE((*tx)->Commit().ok());
  pmem::SetPersistObserver(nullptr);

  EXPECT_LE(counter.fences(), 3) << "N=32 logged ranges must commit in O(1) fences";
  EXPECT_EQ(counter.fences(), 2) << "stage-1 group fence + one-line log rearm";
}

// Redo-heavy transactions: staged appends cost zero fences during the body;
// the hybrid commit pays the same five ordering points whether it carries 4
// or 32 entries.
TEST_F(TransactionTest, RedoTransactionFenceCountIndependentOfEntryCount) {
  alignas(64) static uint64_t slots[32];
  auto run = [&](int n) {
    TxEnv env;
    std::memset(slots, 0, sizeof(slots));
    auto tx = env.BeginTx();
    EXPECT_TRUE(tx.ok());
    FenceCounter counter;
    pmem::SetPersistObserver(&counter);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE((*tx)->RedoSet(&slots[i], uint64_t{1000} + i).ok());
    }
    const int body_fences = counter.fences();
    EXPECT_TRUE((*tx)->Commit().ok());
    pmem::SetPersistObserver(nullptr);
    EXPECT_EQ(body_fences, 0) << "redo staging must not fence";
    return counter.fences();
  };
  const int small = run(4);
  const int large = run(32);
  EXPECT_EQ(small, large) << "commit fences must not scale with redo entry count";
  EXPECT_EQ(large, 5) << "stage1 + (2,4) flip + stage2 + retire + reopen";
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(slots[i], 1000u + i);
  }
}

// The pre-mutation publication coalesces: everything staged since the last
// ordering point (redo entries here) rides the undo append's single fence.
TEST_F(TransactionTest, UndoPublicationCoalescesPendingStagedAppends) {
  TxEnv env;
  alignas(64) static uint64_t redo_a, redo_b, undo_target;
  redo_a = redo_b = 0;
  undo_target = 7;

  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  FenceCounter counter;
  pmem::SetPersistObserver(&counter);
  ASSERT_TRUE((*tx)->RedoSet(&redo_a, uint64_t{1}).ok());
  ASSERT_TRUE((*tx)->RedoSet(&redo_b, uint64_t{2}).ok());
  EXPECT_EQ(counter.fences(), 0);
  // Live-target undo logging must fence before returning (the caller stores
  // immediately) — and that one fence publishes the pending redo batch too.
  ASSERT_TRUE((*tx)->AddUndo(&undo_target, sizeof(undo_target)).ok());
  EXPECT_EQ(counter.fences(), 1);
  undo_target = 8;
  // A second log of the same range is coverage-elided: zero further fences.
  ASSERT_TRUE((*tx)->AddUndo(&undo_target, sizeof(undo_target)).ok());
  EXPECT_EQ(counter.fences(), 1);
  pmem::SetPersistObserver(nullptr);
  ASSERT_TRUE((*tx)->Commit().ok());
  EXPECT_EQ(undo_target, 8u);
  EXPECT_EQ(redo_a, 1u);
  EXPECT_EQ(redo_b, 2u);
}

// The rollback paths must see staged-but-unpublished entries: an abort right
// after staging still restores every logged range.
TEST_F(TransactionTest, AbortAppliesStagedUnpublishedEntries) {
  TxEnv env;
  alignas(64) uint64_t fresh_backed = 5;
  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  (*tx)->NoteFreshRange(&fresh_backed, sizeof(fresh_backed));
  ASSERT_TRUE((*tx)->RedoSet(&fresh_backed, uint64_t{9}).ok());  // Staged only.
  ASSERT_TRUE((*tx)->Abort().ok());
  EXPECT_EQ(fresh_backed, 5u) << "unapplied redo must vanish on abort";
  EXPECT_TRUE(env.log().empty());
}

TEST_F(TransactionTest, BeginRequiresArmedLog) {
  TxEnv env;
  env.log().SetSeqRange(2, 4);
  auto tx = env.BeginTx();
  EXPECT_FALSE(tx.ok());
}

TEST_F(TransactionTest, DoubleCommitRejected) {
  TxEnv env;
  alignas(64) uint64_t slot = 1;
  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->AddUndo(&slot, sizeof(slot)).ok());
  slot = 2;
  ASSERT_TRUE((*tx)->Commit().ok());
  EXPECT_EQ((*tx)->Commit().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*tx)->Abort().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(slot, 2u);
}

// ---- What a transaction keeps in DRAM: its entries live only in the log. ----

// Heap bytes in use, as mallinfo2 reports them.
int64_t HeapInUse() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

// False where mallinfo2 does not see the allocator (ASan and TSan replace it).
bool MallinfoSeesHeap() {
  const int64_t before = HeapInUse();
  void* volatile probe = std::malloc(1 << 16);
  const bool seen = HeapInUse() - before >= (1 << 16);
  std::free(probe);
  return seen;
}

// Fig. 14's sensor update: one transaction undo-logs the value field of
// 16,384 list nodes. Committed, and then run again and aborted, it leaves no
// heap behind that grows with the fields it logged.
TEST_F(TransactionTest, SixteenThousandFieldTransactionKeepsNoHeap) {
  if (!MallinfoSeesHeap()) {
    GTEST_SKIP() << "mallinfo2 does not see this allocator";
  }
  struct Node {
    Node* next;
    uint64_t value;
    uint64_t pad[2];  // A 32-byte list node.
  };
  constexpr size_t kFields = 16384;
  std::vector<Node> nodes(kFields);
  for (size_t i = 0; i < kFields; ++i) {
    nodes[i].value = i;
  }
  TxEnv env(1 << 20);  // Holds every entry: no chained region is allocated.
  for (const bool commit : {true, false}) {
    const int64_t before = HeapInUse();
    auto tx = env.BeginTx();
    ASSERT_TRUE(tx.ok());
    for (Node& node : nodes) {
      ASSERT_TRUE((*tx)->AddUndo(&node.value, sizeof(node.value)).ok());
      node.value += 1;
    }
    ASSERT_TRUE(commit ? (*tx)->Commit().ok() : (*tx)->Abort().ok());
    EXPECT_LT(HeapInUse() - before, 64 * 1024)
        << (commit ? "commit" : "abort") << " kept heap per logged field";
  }
  for (size_t i = 0; i < kFields; ++i) {
    ASSERT_EQ(nodes[i].value, i + 1) << "node " << i;
  }
}

// Abort walks the transaction's entries through every region of a chained
// log, newest first.
TEST_F(TransactionTest, AbortRestoresEntriesAcrossThreeLogRegions) {
  TxEnv env(256 * 1024);
  std::vector<uint64_t> fields(20000);
  for (size_t i = 0; i < fields.size(); ++i) {
    fields[i] = i;
  }
  auto tx = env.BeginTx();
  ASSERT_TRUE(tx.ok());
  for (size_t i = 0; i < fields.size(); ++i) {
    ASSERT_TRUE((*tx)->AddUndo(&fields[i], sizeof(fields[i])).ok());
    fields[i] = ~i;
  }
  ASSERT_EQ(env.Chain().size(), 3u) << "the entries must span three 256 KiB regions";
  ASSERT_TRUE((*tx)->Abort().ok());
  size_t wrong = 0;
  for (size_t i = 0; i < fields.size(); ++i) {
    wrong += fields[i] != i;
  }
  EXPECT_EQ(wrong, 0u) << "fields not restored";
  EXPECT_EQ(env.released(), 2);
}

// A stand-in for the epoch advancer: a publication flushes and fences at
// once, and the log keeps every transaction's entries, as in an open epoch.
class InlineEpochPort : public EpochPort {
 public:
  puddles::Status JoinTx(LogRegion*, std::vector<LogRegion*>* chain) override {
    chain->insert(chain->end(), tail_.begin(), tail_.end());
    return OkStatus();
  }
  void Publish(pmem::FlushBatch* batch) override {
    batch->FlushPending();
    pmem::Fence();
  }
  void StageDeferred(pmem::FlushBatch* batch) override { batch->FlushPending(); }
  void LeaveTx(const std::vector<LogRegion*>& chain) override {
    tail_.assign(chain.begin() + 1, chain.end());
  }
  puddles::Status Quiesce(LogRegion*) override { return OkStatus(); }

 private:
  std::vector<LogRegion*> tail_;
};

// In an open epoch the log still holds the entries of the epoch's earlier
// transactions. A later transaction's abort, and its Set, must apply only
// its own entries.
TEST_F(TransactionTest, EpochTransactionsTouchOnlyTheirOwnEntries) {
  TxEnv env;
  InlineEpochPort port;
  env.set_epoch(&port);
  alignas(64) static uint64_t a, b, x, c;
  a = 1;
  b = 2;
  x = 0;
  c = 3;

  auto tx = env.BeginTx();  // Commits: an undo entry for a, a redo for x.
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->AddUndo(&a, sizeof(a)).ok());
  a = 10;
  ASSERT_TRUE((*tx)->RedoSet(&x, uint64_t{5}).ok());
  ASSERT_TRUE((*tx)->Commit().ok());
  ASSERT_EQ(x, 5u);

  tx = env.BeginTx();  // Aborts: only b rolls back.
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->AddUndo(&b, sizeof(b)).ok());
  b = 20;
  ASSERT_TRUE((*tx)->AddUndo(&x, sizeof(x)).ok());
  x = 6;
  ASSERT_TRUE((*tx)->Abort().ok());
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(x, 5u);
  EXPECT_EQ(a, 10u) << "abort applied an earlier transaction's undo entry";

  tx = env.BeginTx();  // Commits after changing x in place.
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->AddUndo(&x, sizeof(x)).ok());
  x = 7;
  ASSERT_TRUE((*tx)->Commit().ok());

  tx = env.BeginTx();  // Uses Set: only its own redo entry applies.
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->RedoSet(&c, uint64_t{30}).ok());
  ASSERT_TRUE((*tx)->Commit().ok());
  EXPECT_EQ(c, 30u);
  EXPECT_EQ(x, 7u) << "commit re-applied an earlier transaction's redo entry";
  EXPECT_EQ(a, 10u);
  EXPECT_EQ(b, 2u);

  tx = env.BeginTx();  // Uses Set, then aborts: nothing changes.
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->RedoSet(&c, uint64_t{40}).ok());
  ASSERT_TRUE((*tx)->Abort().ok());
  EXPECT_EQ(c, 30u);
  EXPECT_EQ(x, 7u);
  EXPECT_EQ(a, 10u);
}

// ---- Crash injection over every crash state of a commit (paper §5.1). ----
//
// The scenario mirrors Fig. 7: location A is undo-logged and modified in
// place; location B is redo-logged. crashsim records one run and the sweep
// recovers from every state power could fail in: each fence boundary, plus
// 16 seeded subsets of the lines in flight at it (with a stage-1 fence
// dropped, 16 tear 4 states and the default 5 only 1). Atomicity demands
// (A=old, B=old) or (A=new, B=new) after recovery, and the complete run must
// be new.

// The log puddle and the data as one recorder sees them.
std::vector<crashsim::TracedRegion> TxRegions(const std::vector<uint8_t>& log_buffer,
                                              const void* data, size_t size) {
  return {{.base = reinterpret_cast<uintptr_t>(log_buffer.data()), .size = log_buffer.size()},
          {.base = reinterpret_cast<uintptr_t>(data), .size = size}};
}

// System-supported recovery, exactly what Puddled does on reboot.
void RecoverLog(std::vector<uint8_t>& log_buffer) {
  auto recovered = LogRegion::Attach(log_buffer.data(), log_buffer.size());
  ASSERT_TRUE(recovered.ok()) << "log header must survive any crash";
  IdentityResolver resolver;
  auto stats = ReplayLogChain({*recovered}, resolver);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  recovered->Reset(0, 2);
}

// Fences issued when each commit stage hook ran: a crash at that stage
// leaves exactly the fence-boundary image of that epoch.
std::map<std::string, uint64_t> g_stage_epochs;
uint64_t g_fences_at_start = 0;

void RecordStageEpoch(const char* stage) {
  g_stage_epochs.emplace(stage, pmem::ReadPersistStats().fences - g_fences_at_start);
}

using CommitCrashTest = TransactionTest;

TEST_F(CommitCrashTest, RecoveryRestoresAtomicityInEveryCrashState) {
  std::vector<uint8_t> log_buffer(32 * 1024, 0);
  alignas(64) uint64_t data[8] = {};
  data[0] = 100;  // A: undo-logged.
  data[1] = 200;  // B: redo-logged.
  ASSERT_TRUE(LogRegion::Format(log_buffer.data(), log_buffer.size()).ok());
  auto log = LogRegion::Attach(log_buffer.data(), log_buffer.size());
  ASSERT_TRUE(log.ok());

  crashsim::TraceRecorder recorder;
  recorder.Start(TxRegions(log_buffer, data, sizeof(data)));
  g_stage_epochs.clear();
  g_fences_at_start = pmem::ReadPersistStats().fences;
  Transaction::SetStageHook(&RecordStageEpoch);
  TxTarget target;
  target.log = &*log;
  auto tx = Transaction::BeginWith(&target);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->AddUndo(&data[0], 8).ok());
  data[0] = 101;
  ASSERT_TRUE((*tx)->RedoSet(&data[1], uint64_t{201}).ok());
  ASSERT_TRUE((*tx)->Commit().ok());
  Transaction::SetStageHook(nullptr);
  const crashsim::Trace trace = recorder.Stop();

  crashsim::EnumerationOptions options;
  options.eviction_subsets_per_epoch = 16;
  std::map<uint64_t, bool> boundary_committed;  // Fence-boundary epoch -> new state.
  for (const crashsim::CrashStateSpec& spec : crashsim::EnumerateCrashStates(trace, options)) {
    crashsim::ApplyCrashState(trace, spec);
    RecoverLog(log_buffer);
    const bool old_state = data[0] == 100 && data[1] == 200;
    const bool new_state = data[0] == 101 && data[1] == 201;
    EXPECT_TRUE(old_state || new_state)
        << "atomicity violated at " << spec.ToString() << ": A=" << data[0] << " B=" << data[1];
    if (!spec.evict && spec.thread_mask == 0) {
      boundary_committed[spec.epoch] = new_state;
    }
  }
  EXPECT_TRUE(boundary_committed[trace.epochs.size()])
      << "committed transaction must survive the crash";
  // The six commit stage hooks are fence-boundary states of the sweep: only
  // stage 1 precedes the commit point.
  ASSERT_EQ(g_stage_epochs.size(), 6u);
  for (const auto& [stage, epoch] : g_stage_epochs) {
    ASSERT_TRUE(boundary_committed.count(epoch)) << stage;
    EXPECT_EQ(boundary_committed[epoch], stage != "s1_flushed") << "crash at " << stage;
  }
}

// Randomized multi-transaction crash torture with adversarial cache eviction:
// a linked-list-like structure of counters must stay consistent (sum
// invariant) across random crash points.
class CrashTortureTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void TearDown() override {
    Transaction::SetStageHook(nullptr);
    Transaction::AbandonCurrentForTesting();
  }
};

int g_fence_crash_countdown = -1;

void CountdownHook(const char* stage) {
  if (g_fence_crash_countdown >= 0 && g_fence_crash_countdown-- == 0) {
    throw SimulatedCrash{stage};
  }
}

TEST_P(CrashTortureTest, TransferInvariantHolds) {
  // Two accounts; every transaction moves a random amount between them with
  // undo logging (and occasionally redo for the second account). Total must
  // stay constant no matter where the crash lands.
  constexpr uint64_t kTotal = 1000;
  std::vector<uint8_t> log_buffer(32 * 1024, 0);
  alignas(64) uint64_t accounts[2] = {kTotal, 0};

  ASSERT_TRUE(LogRegion::Format(log_buffer.data(), log_buffer.size()).ok());

  Xoshiro256 rng(GetParam());
  Transaction::SetStageHook(&CountdownHook);

  for (int round = 0; round < 40; ++round) {
    auto log = LogRegion::Attach(log_buffer.data(), log_buffer.size());
    ASSERT_TRUE(log.ok());
    crashsim::TraceRecorder recorder;
    recorder.Start(TxRegions(log_buffer, accounts, sizeof(accounts)));

    g_fence_crash_countdown = static_cast<int>(rng.Below(8));  // Crash point.
    TxTarget target;
    target.log = &*log;
    auto tx = Transaction::BeginWith(&target);
    ASSERT_TRUE(tx.ok());
    try {
      uint64_t amount = rng.Below(accounts[0] + 1);
      ASSERT_TRUE((*tx)->AddUndo(&accounts[0], 8).ok());
      accounts[0] -= amount;
      if (rng.Below(2) == 0) {
        ASSERT_TRUE((*tx)->AddUndo(&accounts[1], 8).ok());
        accounts[1] += amount;
      } else {
        ASSERT_TRUE((*tx)->RedoSet(&accounts[1], accounts[1] + amount).ok());
      }
      ASSERT_TRUE((*tx)->Commit().ok());
    } catch (const SimulatedCrash&) {
      // Power fails now: the image as of each line's last fence, plus a
      // seeded subset of the lines in flight. Then recover.
      const crashsim::Trace trace = recorder.Stop();
      crashsim::ApplyCrashState(
          trace, {.epoch = trace.epochs.size() - 1, .evict = true, .eviction_seed = rng()});
      RecoverLog(log_buffer);
      // Abandon the in-flight transaction state (the process "died").
      Transaction::AbandonCurrentForTesting();
    }
    // The invariant must hold after every round, crashed or not.
    ASSERT_EQ(accounts[0] + accounts[1], kTotal)
        << "round " << round << ": " << accounts[0] << " + " << accounts[1];
    g_fence_crash_countdown = -1;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashTortureTest,
                         ::testing::Values(1, 7, 42, 1337, 9999));

}  // namespace
}  // namespace puddles
