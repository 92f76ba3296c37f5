// Pools: named collections of puddles with a designated root object (paper
// §3.1, §4.4) and the typed transaction entry point `Pool::Run` (DESIGN.md
// §9), the only way to allocate and free.
//
// "Pools in the Puddle system are named collections of persistent memory and
// act as the programmer's interface to allocate and deallocate objects on PM
// ... Pools automatically acquire new memory for object allocation and
// logging and free any unused memory to the system."
#ifndef SRC_LIBPUDDLES_POOL_H_
#define SRC_LIBPUDDLES_POOL_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "src/alloc/arena.h"
#include "src/common/status.h"
#include "src/common/type_name.h"
#include "src/daemon/types.h"
#include "src/epoch/epoch_sys.h"
#include "src/libpuddles/relocation.h"
#include "src/puddles/pool_meta.h"
#include "src/stats/stats.h"
#include "src/tx/transaction.h"

namespace puddles {

class Runtime;
class Tx;

// When a committed transaction's effects become durable (docs/epoch.md).
enum class Durability {
  // Every commit is durable before Run returns: stage-1 write-back + fence
  // on the committing thread, log retired per transaction. The default.
  kImmediate,
  // Commits are buffered into the open epoch; the background advancer makes
  // whole epochs durable with one fence, amortized across threads. A commit
  // is durable once its epoch retires — within EpochOptions::max_epoch_age_us,
  // or on Pool::Sync(). Recovery is all-or-nothing per epoch: a crash
  // mid-epoch rolls back every transaction in it.
  kEpoch,
};

class Pool {
 public:
  const std::string& name() const { return name_; }
  const puddled::PoolInfo& info() const { return info_; }
  bool writable() const { return writable_; }
  const Translator& translator() const { return translator_; }

  // ---- Root object ----
  puddles::Result<void*> RootBytes();
  puddles::Status SetRootBytes(void* payload);

  template <typename T>
  puddles::Result<T*> Root() {
    ASSIGN_OR_RETURN(void* raw, RootBytes());
    return static_cast<T*>(raw);
  }
  template <typename T>
  puddles::Status SetRoot(T* payload) {
    return SetRootBytes(payload);
  }

  // ---- Transactions ----
  //
  // Runs `fn` failure-atomically with an explicit typed context:
  //
  //   puddles::Status s = pool.Run([&](puddles::Tx& tx) -> puddles::Status {
  //     RETURN_IF_ERROR(tx.Log(head));
  //     head->count++;
  //     return puddles::OkStatus();
  //   });
  //
  // Commit/abort is decided by the callback's return value: OK commits
  // (Fig. 7 hybrid stages), non-OK aborts via the undo log and that status is
  // returned. An exception escaping `fn` aborts and rethrows. Run does not
  // nest — a Run already open on this thread returns FailedPrecondition,
  // keeping every ordering point visible at exactly one level (cf. MOD's
  // explicit ordering points).
  template <typename Fn>
  puddles::Status Run(Fn&& fn);

  // ---- Durability mode (docs/epoch.md) ----
  //
  // Switches how this pool's transactions become durable. kEpoch starts the
  // runtime's epoch system on first use (the first caller's options win
  // process-wide). Not thread-safe against concurrent Runs on this pool —
  // switch during quiescent setup/teardown; transactions begun after the
  // switch see the new mode, and the first immediate-mode transaction on a
  // thread with buffered epoch state waits that state out (quiesce).
  puddles::Status SetDurability(Durability mode, const EpochOptions& options = {});
  Durability durability() const { return durability_; }

  // Blocks until every epoch-mode transaction committed before this call is
  // persistently durable. No-op in immediate mode.
  void Sync();

  // ---- Per-thread slab arenas (docs/alloc.md, DESIGN.md §14) ----
  //
  // Every transactional allocation of at most kMaxSlabSlot bytes (header
  // included) is served by the calling thread's arena. Runtime teardown and
  // Runtime::ExportPool flush the calling thread's arenas and those of
  // exited threads; Runtime::OpenPool runs RecoverArenas when the pool was
  // left with active arenas.

  // Flushes every arena owned by the calling thread back to the shared heap
  // in bounded transactions (kSlabsPerReleaseTx slabs each): persistent
  // occupancy written from the shadow bitmaps, directory entries released.
  // Under epoch durability it Syncs first so every pending free has matured.
  // Must be called outside any open transaction.
  puddles::Status FlushThreadArena();

  // Adopts all orphaned arenas (exited threads) into the caller, then
  // flushes. The clean-shutdown companion of RecoverArenas.
  puddles::Status FlushAllArenas();

  struct ArenaRecoveryReport {
    size_t arenas_recovered = 0;  // Directory entries released.
    size_t slabs_scanned = 0;
    size_t slots_reclaimed = 0;   // Leaked in-flight blocks GC'd.
    size_t objects_live = 0;      // Reachable set size.
  };

  // Arena GC: computes the reachable object set from the pool root through
  // the pool's pointer maps, then rebuilds every active directory
  // entry's slabs from it — live slots keep their objects, leaked in-flight
  // slots are reclaimed — and returns the slabs to the global allocator.
  // Runs in the same bounded transactions as a flush, so it is idempotent
  // across a crash during recovery itself. Fails with FailedPrecondition,
  // reclaiming nothing, if any thread of this process still holds live
  // arena state (recovery is offline-only), or if a reachable object's type
  // has no pointer map or a reachable pointer leads into no registered
  // puddle (reachability would be incomplete).
  puddles::Result<ArenaRecoveryReport> RecoverArenas();

  // Payload addresses of every object reachable from the pool root via the
  // pool's pointer maps, sorted. The GC's view of liveness, exposed for tests
  // and the crashsim differential oracle.
  puddles::Result<std::vector<const void*>> ReachableObjects();

  // The pointer map relocation and reachability use for `type_id` (DESIGN.md
  // §7): the pool's record, else the process registry's (the "register and
  // reopen" remedy); nullptr when neither has one. Lock-free.
  const PtrMapRecord* LookupPtrMap(TypeId type_id) const;

  // Number of member data puddles (diagnostics / tests). Takes alloc_mu_:
  // the member table's segment list grows under it.
  uint32_t member_count() {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    return meta_.num_members();
  }

 private:
  friend class Runtime;
  friend class Tx;

  Pool(Runtime* runtime, puddled::PoolInfo info, bool writable)
      : runtime_(runtime), info_(info), name_(info.name), writable_(writable) {}

  // Grows the pool by one data puddle, first chaining a pool meta segment
  // when the member table's tail is full (alloc_mu_ held).
  puddles::Status AddDataPuddle();
  // Chains a pool meta segment of twice the tail's heap (alloc_mu_ held).
  puddles::Status AppendMetaSegment();
  // Records the process registry's map of `type_id` in the pool meta and in
  // maps_, unless the type is unregistered or already recorded. The record
  // is durable when this returns, before any object of the type can be.
  puddles::Status RecordPtrMap(TypeId type_id);

  // Starts the calling thread's transaction on its cached log puddle, with
  // this pool's durability mode; FailedPrecondition while one is open.
  puddles::Result<Transaction*> BeginTx();

  // ---- Allocation (§4.5), reached only through Tx ----
  //
  // "pool's malloc() API takes as input the object's type in addition to its
  // size. Allocations using this API can be serviced from any puddle in the
  // pool with enough free space." The first allocation of a registered type
  // records its pointer map (RecordPtrMap).
  //
  // `tx` is the transaction the allocation joins: fresh contents are flushed
  // at its commit stage 1; small objects come from the thread's arena with
  // no logging, larger ones from the global heap with undo-logged metadata.
  // A free is deferred to commit (no reuse within the transaction, so
  // rollback can never resurrect recycled bytes). Allocator metadata thus
  // reaches PM only through a transaction's undo log and commit.
  puddles::Result<void*> MallocBytes(size_t size, TypeId type_id, Transaction& tx);
  puddles::Status Free(void* payload, Transaction& tx);

  // ---- Arena plumbing (pool.cc; see docs/alloc.md for the contracts) ----
  // Fast path: serves a small transactional allocation from the thread's
  // arena. Returns kUnavailable when the arena cannot serve even after a
  // refill (caller falls back to the global path).
  puddles::Result<void*> ArenaMalloc(size_t size, TypeId type_id, Transaction& tx);
  // Slow path: acquires slabs for `class_index` under alloc_mu_, fully
  // logged into `tx`, after draining remote/pending/orphan housekeeping.
  puddles::Status ArenaRefill(int class_index, Transaction& tx);
  puddles::Result<int> AcquireIntoPuddle(ThreadArena* ta, const Uuid& uuid,
                                         int class_index, Transaction& tx);
  // Returns whole-empty slabs beyond the retention floor to the shared heap.
  puddles::Status SpillExcess(Transaction& tx);
  // Publishes a free of an arena-owned object once its transaction can no
  // longer roll back (a post-commit hook).
  void PublishArenaFree(void* payload);
  puddles::Status DrainArenaQueuesLocked(ThreadArena* ta, Transaction& tx);
  // Space in `uuid` was just freed: let allocation resume from it.
  void RewindCursorLocked(const Uuid& uuid);
  // Returns one directory entry's slabs to the global heap, occupancy from
  // the thread's shadow state.
  puddles::Status FlushPuddleArena(ThreadArena* ta, PuddleArena* pa);
  // Computes a chained slab's true occupancy for its release (and may
  // reclaim slots through the sink): (slab offset, header, sink, bitmap out,
  // used out).
  using OccupancyFn = std::function<puddles::Status(int64_t, const SlabHeader&, LogSink&,
                                                    uint64_t[2], uint16_t*)>;
  // Slabs released per transaction by flush and GC: bounds the undo log (and
  // the thread's transaction buffers) however many slabs one entry chains.
  static constexpr int kSlabsPerReleaseTx = 64;
  // One transaction: releases up to kSlabsPerReleaseTx slabs from the head of
  // directory entry `slot`'s chain, each with the occupancy `occupancy`
  // reports, and releases the entry once the chain is empty. `released`
  // receives the released slab offsets, `head` the new chain head (-1 once
  // the entry is released).
  puddles::Status ReleaseArenaChunk(const Uuid& uuid, size_t slot, const OccupancyFn& occupancy,
                                    std::vector<int64_t>* released, int64_t* head);
  // Clears the pool's arena flag when no directory entry can be active.
  void MaybeClearArenaFlag(const ThreadArena* ta);
  puddles::Status RecoverArenaSlot(const Uuid& uuid, size_t slot,
                                   const std::vector<const void*>& reachable,
                                   ArenaRecoveryReport* report);
  // The reachable set behind ReachableObjects; with `strict`, an object whose
  // type has no pointer map, or a pointer into no registered puddle, fails
  // the walk instead of being skipped.
  puddles::Result<std::vector<const void*>> Reachable(bool strict);
  void HookArenaTx(Transaction& tx, ThreadArena* ta);
  // Epoch gate for slot reuse: pending frees mature once their epoch has
  // persistently retired (everything matures when no epoch system runs).
  uint64_t RetiredEpochForReuse() const;
  uint64_t CurrentEpochTag() const;

  // True iff [addr, addr+size) lies inside a puddle this runtime has mapped
  // (any pool — cross-pool transactions are legal, §3.6). The typed Tx uses
  // this to reject DRAM/stack pointers at the logging call instead of
  // letting them corrupt recovery.
  bool CoversPmRange(const void* addr, size_t size) const;

  Runtime* runtime_;
  puddled::PoolInfo info_;
  std::string name_;
  bool writable_;
  Durability durability_ = Durability::kImmediate;

  PoolMetaView meta_;
  Translator translator_;
  TypeRegistry maps_;  // meta_'s pointer maps; grows under alloc_mu_.

  std::mutex alloc_mu_;
  std::vector<Uuid> data_members_;
  size_t alloc_cursor_ = 0;

  // shared_ptr so exiting threads can hand their arenas to the orphan list
  // without racing pool teardown.
  std::shared_ptr<ArenaManager> arenas_ = std::make_shared<ArenaManager>();
  // RecoverArenas left directory entries active (a reachable type had no
  // pointer map): the pool's arena flag must stay set. Guarded by alloc_mu_.
  bool arena_gc_pending_ = false;
};

// The typed transaction context handed to Pool::Run callbacks — the only way
// to log, allocate, or free inside a transaction.
// Every operation returns Status/Result (nothing throws), and every
// operation re-checks liveness: a Tx copied out of its Run (or used after
// its transaction committed) fails with FailedPrecondition instead of
// touching freed state, even if the thread has since begun an unrelated
// transaction (epoch check). Tx is a small value handle — copying it is
// cheap and safe; a default-constructed Tx is dead.
class Tx {
 public:
  Tx() = default;  // Dead handle: every operation returns FailedPrecondition.

  // Undo-logs the whole object before in-place modification.
  template <typename T>
  puddles::Status Log(T* object) {
    return LogRange(object, sizeof(T));
  }

  // Undo-logs an explicit byte range.
  puddles::Status LogRange(void* addr, size_t size) {
    RETURN_IF_ERROR(CheckUsable(addr, size));
    return tx_->AddUndo(addr, size);
  }

  // Undo-logs a single member — `tx.LogField(node, &Node::next)` — with the
  // range derived from the member type instead of a hand-written size.
  template <typename T, typename M>
  puddles::Status LogField(T* object, M T::*field) {
    return LogRange(&(object->*field), sizeof(M));
  }

  // Redo-logs `*dst = value`: dst keeps its old bytes until commit stage 2.
  template <typename T>
  puddles::Status Set(T* dst, const T& value) {
    RETURN_IF_ERROR(CheckUsable(dst, sizeof(T)));
    return tx_->RedoSet(dst, value);
  }

  // Undo-logs a volatile (DRAM) range: restored on abort, ignored by
  // post-crash recovery. The one deliberate escape from the PM-range check —
  // but not from the null/empty validation.
  puddles::Status LogVolatile(void* addr, size_t size) {
    RETURN_IF_ERROR(CheckLive());
    if (addr == nullptr || size == 0) {
      return InvalidArgumentError("Tx: null/empty range");
    }
    return tx_->AddVolatileUndo(addr, size);
  }

  // Typed allocation joining this transaction: metadata undo-logged, fresh
  // contents flushed at commit stage 1, rolled back wholesale on abort.
  template <typename T>
  puddles::Result<T*> Alloc(size_t count = 1) {
    ASSIGN_OR_RETURN(void* raw, AllocBytes(sizeof(T) * count, TypeIdOf<T>()));
    return static_cast<T*>(raw);
  }

  puddles::Result<void*> AllocBytes(size_t size, TypeId type_id) {
    RETURN_IF_ERROR(CheckLive());
    return pool_->MallocBytes(size, type_id, *tx_);
  }

  // Frees `payload` at commit (deferred, so rollback can never resurrect
  // recycled bytes). After Free, further Log/Set calls overlapping the
  // object are rejected (use-after-free inside one transaction). The typed
  // form knows the object's extent; FreeBytes tracks at least the first byte.
  template <typename T>
  puddles::Status Free(T* payload) {
    return FreeSized(payload, sizeof(T));
  }

  puddles::Status FreeBytes(void* payload) { return FreeSized(payload, 1); }

  puddles::Status FreeSized(void* payload, size_t size) {
    RETURN_IF_ERROR(CheckLive());
    RETURN_IF_ERROR(pool_->Free(payload, *tx_));
    tx_->NoteFreedRange(payload, size);
    return puddles::OkStatus();
  }

  // The pool this context was opened on (allocation target; logging may
  // still reach any mapped puddle — transactions are not pool-local, §3.6).
  Pool& pool() const { return *pool_; }

  bool alive() const {
    return tx_ != nullptr && tx_->active() && tx_->epoch() == epoch_;
  }

 private:
  friend class Pool;

  Tx(Pool* pool, Transaction* tx) : pool_(pool), tx_(tx), epoch_(tx->epoch()) {}

  puddles::Status CheckLive() const {
    if (!alive()) {
      return FailedPreconditionError(
          "Tx used outside its pool.Run scope (stale or completed transaction context)");
    }
    return puddles::OkStatus();
  }

  puddles::Status CheckUsable(const void* addr, size_t size) const {
    RETURN_IF_ERROR(CheckLive());
    if (addr == nullptr || size == 0) {
      return InvalidArgumentError("Tx: null/empty range");
    }
    if (!pool_->CoversPmRange(addr, size)) {
      return InvalidArgumentError(
          "Tx: address is not in mapped puddle space (DRAM pointer? unmapped pool?)");
    }
    if (tx_->IntersectsFreedRange(addr, size)) {
      return FailedPreconditionError("Tx: object was freed earlier in this transaction");
    }
    return puddles::OkStatus();
  }

  Pool* pool_ = nullptr;
  Transaction* tx_ = nullptr;
  uint64_t epoch_ = 0;
};

template <typename Fn>
puddles::Status Pool::Run(Fn&& fn) {
  static_assert(std::is_invocable_r_v<puddles::Status, Fn, Tx&>,
                "pool.Run callback must be invocable as Status(puddles::Tx&) — "
                "return OkStatus() to commit, any error to roll back");
  // One operation for telemetry sampling, from BeginTx's epoch waits through
  // Commit or Abort and the post-commit hooks they run.
  stats::SampledOp sampled;
  ASSIGN_OR_RETURN(Transaction * raw, BeginTx());
  Tx tx(this, raw);
  puddles::Status body = puddles::OkStatus();
  try {
    body = fn(tx);
  } catch (...) {
    (void)raw->Abort();  // Abort-on-unwind.
    throw;
  }
  if (!body.ok()) {
    (void)raw->Abort();
    return body;
  }
  puddles::Status committed = raw->Commit();
  if (!committed.ok()) {
    (void)raw->Abort();
  }
  return committed;
}

}  // namespace puddles

#endif  // SRC_LIBPUDDLES_POOL_H_
