#include "src/libpuddles/pool.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "src/libpuddles/runtime.h"
#include "src/libpuddles/type_registry.h"
#include "src/pmem/flush.h"
#include "src/pmem/global_space.h"
#include "src/stats/stats.h"
#include "src/stats/trace_ring.h"

namespace puddles {
namespace {

// Connects allocator metadata writes to the given transaction's undo log
// (Fig. 8: "This new node is automatically undo-logged by the allocator").
// The transaction is threaded explicitly — the allocator never consults
// thread-local state.
LogSink TxSink(Transaction* tx) {
  if (tx == nullptr) {
    return {};
  }
  return LogSink{tx,
                 [](void* ctx, void* addr, size_t size) {
                   (void)static_cast<Transaction*>(ctx)->AddUndoDeferred(addr, size);
                 },
                 [](void* ctx) { static_cast<Transaction*>(ctx)->PublishStaged(); },
                 [](void* ctx, void* addr, size_t size) {
                   static_cast<Transaction*>(ctx)->NoteFreshRange(addr, size);
                 }};
}

}  // namespace

puddles::Status Pool::AddDataPuddle() {
  PUDDLES_TRACE_SPAN("pool_grow");
  PUDDLES_COUNT(kPoolGrow);
  ASSIGN_OR_RETURN(auto created,
                   runtime_->client().CreatePuddle(PuddleKind::kData, kDefaultHeapSize,
                                                   info_.pool_uuid));
  auto [info, fd] = created;
  ASSIGN_OR_RETURN(Runtime::Entry * entry,
                   runtime_->RegisterPuddle(info, fd, /*writable=*/true, &translator_));
  RETURN_IF_ERROR(runtime_->EnsureMapped(info.uuid).status());
  (void)entry;
  RETURN_IF_ERROR(meta_.AddMember(info.uuid));
  data_members_.push_back(info.uuid);
  return OkStatus();
}

bool Pool::CoversPmRange(const void* addr, size_t size) const {
  // Lock-free bounds check against the global puddle-space reservation
  // (§3.4): rejects the real misuse — DRAM/stack/heap pointers entering the
  // persistent log — without taking the runtime mutex on every tx.Log. A
  // still-unmapped (lazily faulted) puddle inside the reservation is a legal
  // target, so a per-entry map lookup would also be wrong, not just slow.
  const uint64_t base = pmem::ConfiguredSpaceBase();
  const uint64_t space = pmem::ConfiguredSpaceSize();
  const uint64_t start = reinterpret_cast<uint64_t>(addr);
  // Overflow-safe: `start + size` could wrap for adversarial sizes (the
  // Translator::Add hardening of PR 2 guards the same way).
  return start >= base && size <= space && start - base <= space - size;
}

puddles::Result<void*> Pool::MallocBytes(size_t size, TypeId type_id) {
  if (Transaction::ActiveOnThisThread()) {
    return FailedPreconditionError("pool.Malloc inside a transaction: use tx.Alloc");
  }
  return MallocBytes(size, type_id, nullptr);
}

puddles::Result<void*> Pool::MallocBytes(size_t size, TypeId type_id, Transaction* tx) {
  if (!writable_) {
    return FailedPreconditionError("pool opened read-only");
  }
  if (tx != nullptr && size > 0 && size + sizeof(ObjectHeader) <= kMaxSlabSlot) {
    auto served = ArenaMalloc(size, type_id, tx);
    if (served.ok() || served.status().code() != StatusCode::kUnavailable) {
      return served;
    }
    // Unavailable means the arena cannot serve even after refill (directory
    // slots or slab space exhausted) — the global path below still can.
  }
  std::lock_guard<std::mutex> lock(alloc_mu_);
  LogSink sink = TxSink(tx);

  for (size_t attempt = 0; attempt <= data_members_.size(); ++attempt) {
    if (alloc_cursor_ >= data_members_.size()) {
      RETURN_IF_ERROR(AddDataPuddle());
      alloc_cursor_ = data_members_.size() - 1;
    }
    ASSIGN_OR_RETURN(Runtime::Entry * entry,
                     runtime_->EnsureMapped(data_members_[alloc_cursor_]));
    ASSIGN_OR_RETURN(ObjectHeap heap, entry->view.object_heap(sink));
    auto allocated = heap.Allocate(size, type_id);
    if (allocated.ok()) {
      if (tx == nullptr) {
        // Outside a transaction: persist the metadata state now. (Non-TX
        // allocations are not crash-atomic — same contract as PMDK.)
        pmem::FlushFence(reinterpret_cast<uint8_t*>(entry->view.header()) +
                             entry->view.header()->meta_offset,
                         entry->view.header()->meta_size);
      }
      // Inside a transaction the allocator already announced the fresh block
      // through the sink (NoteFresh), so the caller's stores into it are
      // flushed at commit stage 1 — no extra bookkeeping here.
      return *allocated;
    }
    if (allocated.status().code() != StatusCode::kOutOfMemory) {
      return allocated.status();
    }
    ++alloc_cursor_;  // This puddle is full; move on ("serviced from any
                      // puddle in the pool with enough free space").
  }
  return OutOfMemoryError("pool exhausted");
}

puddles::Status Pool::Free(void* payload) {
  if (Transaction::ActiveOnThisThread()) {
    return FailedPreconditionError("pool.Free inside a transaction: use tx.Free");
  }
  return Free(payload, nullptr);
}

puddles::Status Pool::Free(void* payload, Transaction* tx) {
  if (!writable_) {
    return FailedPreconditionError("pool opened read-only");
  }
  // FAST PATH: same-thread frees resolve against the calling thread's own
  // arenas without any lock — only the owner mutates its arenas while it is
  // alive (spill, flush, and adoption all run on the owner; orphan handoff
  // happens only after thread exit), so the probe races with nothing. The
  // probe bounds-checks against the arenas' own puddles, so it needs no
  // runtime lookup first.
  const void* header_addr = static_cast<const uint8_t*>(payload) - sizeof(ObjectHeader);
  bool arena_owned = arenas_->Local()->OwnsLocally(header_addr);
  Uuid uuid;
  if (!arena_owned) {
    // Cross-thread, stale or not ours at all: find the puddle (the global
    // path needs its uuid) and check for a tagged slab under the allocation
    // lock.
    Runtime::Entry* entry = runtime_->FindEntryByAddr(reinterpret_cast<uintptr_t>(payload));
    if (entry == nullptr || !entry->mapped) {
      return InvalidArgumentError("pointer does not belong to a mapped puddle");
    }
    uuid = entry->info.uuid;
    std::lock_guard<std::mutex> lock(alloc_mu_);
    ASSIGN_OR_RETURN(ObjectHeap heap, entry->view.object_heap());
    arena_owned = heap.ArenaTagOf(payload) != 0;
  }
  if (arena_owned &&
      reinterpret_cast<const ObjectHeader*>(header_addr)->magic != kObjectMagic) {
    // Dead slot: its magic was cleared when the earlier free was applied.
    // Same contract as the global path (ObjectHeap::Free), which rejects a
    // duplicate free instead of silently corrupting whatever reuses the slot.
    return FailedPreconditionError("free: arena object is not allocated (double free?)");
  }
  if (arena_owned) {
    // Arena frees are unlogged by design (docs/alloc.md): the slab's
    // persistent bitmap is stale, liveness is decided by reachability, so
    // there is no metadata to undo-log. The volatile release must still wait
    // until the transaction can no longer roll back — hence the post-commit
    // publication (which re-checks ownership; the slab may be flushed to the
    // global heap in between).
    if (tx != nullptr) {
      tx->DeferPostCommit([this, payload]() { PublishArenaFree(payload); });
      return OkStatus();
    }
    PublishArenaFree(payload);
    return OkStatus();
  }

  if (tx != nullptr) {
    // Deferred to commit: freed blocks must not be reused within this
    // transaction (rollback safety), and the allocator mutations become part
    // of the transaction's undo log.
    Pool* pool = this;
    tx->DeferFree([pool, uuid, payload, tx]() -> puddles::Status {
      ASSIGN_OR_RETURN(Runtime::Entry * e, pool->runtime_->EnsureMapped(uuid));
      std::lock_guard<std::mutex> lock(pool->alloc_mu_);
      ASSIGN_OR_RETURN(ObjectHeap heap, e->view.object_heap(TxSink(tx)));
      if (heap.ArenaTagOf(payload) != 0) {
        // The slab was adopted into an arena between Free() and commit:
        // route through the arena publication once this commit succeeds.
        tx->DeferPostCommit([pool, payload]() { pool->PublishArenaFree(payload); });
        return puddles::OkStatus();
      }
      RETURN_IF_ERROR(heap.Free(payload));
      pool->RewindCursorLocked(uuid);
      return puddles::OkStatus();
    });
    return OkStatus();
  }

  std::lock_guard<std::mutex> lock(alloc_mu_);
  return FreeGlobalLocked(uuid, payload);
}

puddles::Status Pool::FreeGlobalLocked(const Uuid& uuid, void* payload) {
  ASSIGN_OR_RETURN(Runtime::Entry * entry, runtime_->EnsureMapped(uuid));
  ASSIGN_OR_RETURN(ObjectHeap heap, entry->view.object_heap());
  RETURN_IF_ERROR(heap.Free(payload));
  pmem::FlushFence(reinterpret_cast<uint8_t*>(entry->view.header()) +
                       entry->view.header()->meta_offset,
                   entry->view.header()->meta_size);
  RewindCursorLocked(uuid);
  return OkStatus();
}

void Pool::RewindCursorLocked(const Uuid& uuid) {
  // The global path and arena refills both allocate from alloc_cursor_ on,
  // so freed space in an earlier puddle is reused only once the cursor moves
  // back to it.
  for (size_t i = 0; i < alloc_cursor_ && i < data_members_.size(); ++i) {
    if (data_members_[i] == uuid) {
      alloc_cursor_ = i;
      return;
    }
  }
}

puddles::Result<void*> Pool::RootBytes() {
  if (!meta_.has_root()) {
    return NotFoundError("pool has no root object");
  }
  ASSIGN_OR_RETURN(Runtime::Entry * entry, runtime_->EnsureMapped(meta_.root_puddle()));
  // "the object allocator always allocates the first object at a fixed
  // offset ... Libpuddles can return its address using a simple base and
  // offset calculation."
  return reinterpret_cast<void*>(entry->info.base_addr + entry->view.header()->heap_offset +
                                 meta_.root_offset());
}

puddles::Status Pool::SetRootBytes(void* payload) {
  Runtime::Entry* entry = runtime_->FindEntryByAddr(reinterpret_cast<uintptr_t>(payload));
  if (entry == nullptr || !entry->mapped) {
    return InvalidArgumentError("root must live in a mapped puddle");
  }
  const uint64_t heap_addr = entry->info.base_addr + entry->view.header()->heap_offset;
  const uint64_t offset = reinterpret_cast<uint64_t>(payload) - heap_addr;
  if (offset >= entry->view.heap_size()) {
    return InvalidArgumentError("root pointer outside puddle heap");
  }
  meta_.SetRoot(entry->info.uuid, offset);
  return OkStatus();
}

puddles::Status Pool::SetDurability(Durability mode, const EpochOptions& options) {
  if (mode == Durability::kEpoch) {
    if (!writable_) {
      return FailedPreconditionError("read-only pool cannot enable epoch durability");
    }
    RETURN_IF_ERROR(runtime_->EnsureEpochSys(options));
  }
  durability_ = mode;
  return OkStatus();
}

void Pool::Sync() { runtime_->Sync(); }

puddles::Result<Transaction*> Pool::BeginTx() {
  if (!writable_) {
    return FailedPreconditionError("read-only pool cannot start transactions");
  }
  // Refuse before touching the thread's target: the open transaction owns
  // it, and its log must never be quiesced from under it.
  if (Transaction::ActiveOnThisThread()) {
    return FailedPreconditionError(
        "pool.Run does not nest: a transaction is already open on this thread");
  }
  ASSIGN_OR_RETURN(TxTarget * target, runtime_->ThreadTxTarget());
  if (durability_ == Durability::kEpoch) {
    ASSIGN_OR_RETURN(target->epoch, runtime_->EpochPortForThisThread());
  } else if (target->epoch != nullptr) {
    // Back to immediate mode on a thread that ran epoch transactions: the
    // log may still hold un-retired epoch entries — wait them out and
    // re-arm before an immediate transaction takes the log over.
    EpochPort* port = runtime_->ExistingEpochPortForThisThread();
    if (port != nullptr) {
      RETURN_IF_ERROR(port->Quiesce(target->log));
    }
    target->epoch = nullptr;
  }
  return Transaction::BeginWith(target);
}

// ---- Per-thread slab arenas (docs/alloc.md, DESIGN.md §14) ----

uint64_t Pool::RetiredEpochForReuse() const {
  EpochSys* es = runtime_->epoch_sys();
  // With no epoch system every free is durable at commit: all tags mature.
  return es == nullptr ? ~0ULL : es->retired_epoch();
}

uint64_t Pool::CurrentEpochTag() const {
  if (durability_ != Durability::kEpoch) {
    return 0;  // Immediate-mode commits are durable; the slot is reusable now.
  }
  EpochSys* es = runtime_->epoch_sys();
  // The freeing transaction committed into some epoch <= the current one (the
  // hook runs post-commit), so the current epoch is a conservative maturity
  // bound: reuse waits at most one extra epoch, never too little.
  return es == nullptr ? 0 : es->current_epoch();
}

void Pool::HookArenaTx(Transaction* tx, ThreadArena* ta) {
  tx->DeferPostCommit([ta]() { ta->OnTxCommitted(); });
  tx->DeferOnAbort([ta]() { ta->OnTxAborted(); });
}

// FAST PATH (tools/check_discipline.py): no lock, no persistence call,
// no undo append. The slot is fresh to this transaction — commit stage 1
// flushes its contents, abort restores the shadow state via the arena hooks —
// so the header stores below are plain stores.
puddles::Result<void*> Pool::ArenaMalloc(size_t size, TypeId type_id, Transaction* tx) {
  const size_t total = size + sizeof(ObjectHeader);
  const int class_index = SlabAllocator::ClassForSize(total);
  ThreadArena* ta = arenas_->Local();
  if (ta->NoteTxUse(tx)) {
    HookArenaTx(tx, ta);
  }
  ThreadArena::AllocResult res;
  if (!ta->TryAllocate(class_index, &res)) {
    RETURN_IF_ERROR(ArenaRefill(class_index, tx));
    if (!ta->TryAllocate(class_index, &res)) {
      return UnavailableError("arena has no free slot after refill");
    }
  }
  ta->RecordPop(res);
  tx->NoteFreshRange(res.addr, total);
  auto* header = static_cast<ObjectHeader*>(res.addr);
  header->magic = kObjectMagic;
  header->size = static_cast<uint32_t>(size);
  header->type_id = type_id;
  PUDDLES_COUNT_N(kAllocBytes, total);
  if (ta->spill_hint()) {
    RETURN_IF_ERROR(SpillExcess(tx));
  }
  return static_cast<void*>(header + 1);
}

puddles::Status Pool::ArenaRefill(int class_index, Transaction* tx) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  ThreadArena* ta = arenas_->Local();
  arenas_->AdoptOrphansInto(ta);
  RETURN_IF_ERROR(DrainArenaQueuesLocked(ta, tx));
  if (ta->HasFreeSlot(class_index)) {
    return OkStatus();  // Housekeeping alone replenished the class.
  }
  // Refills take slabs from the same cursor puddle the global path
  // allocates from; a puddle that can supply no slab is full for both.
  for (;;) {
    const bool fresh = alloc_cursor_ >= data_members_.size();
    if (fresh) {
      RETURN_IF_ERROR(AddDataPuddle());
      alloc_cursor_ = data_members_.size() - 1;
    }
    ASSIGN_OR_RETURN(int acquired,
                     AcquireIntoPuddle(ta, data_members_[alloc_cursor_], class_index, tx));
    if (acquired > 0) {
      return OkStatus();
    }
    if (fresh) {
      return UnavailableError("no arena capacity (directory or heap exhausted)");
    }
    ++alloc_cursor_;
  }
}

puddles::Result<int> Pool::AcquireIntoPuddle(ThreadArena* ta, const Uuid& uuid,
                                             int class_index, Transaction* tx) {
  ASSIGN_OR_RETURN(Runtime::Entry * entry, runtime_->EnsureMapped(uuid));
  LogSink sink = TxSink(tx);
  ASSIGN_OR_RETURN(ObjectHeap heap, entry->view.object_heap(sink));
  if (!heap.CanSupplySlab(class_index)) {
    return 0;  // Claim no directory entry in a puddle with nothing to give.
  }
  ArenaDirectory* dir = heap.arena_directory();
  PuddleArena* pa = ta->FindPuddleArena(uuid);
  if (pa == nullptr) {
    int slot = -1;
    for (size_t i = 0; i < kMaxArenaSlots; ++i) {
      if (dir->entries[i].active == 0) {
        slot = static_cast<int>(i);
        break;
      }
    }
    if (slot < 0) {
      return 0;  // Directory full in this puddle; the caller tries the next.
    }
    // The pool flag persists before any claim can: a crash from here on
    // finds it set and OpenPool runs the arena GC.
    if (!meta_.arenas_active()) {
      meta_.SetArenasActive(true);
    }
    // Logged claim (active 0→1, empty chain): abort rolls the entry back and
    // the dir-claim record destroys the volatile arena to match.
    ArenaDirEntry* claim = &dir->entries[slot];
    sink.WillWrite(claim, sizeof(*claim));
    sink.Publish();
    claim->active = 1;
    claim->slab_head = -1;
    pa = ta->AddPuddleArena(uuid, static_cast<uint8_t*>(heap.heap_base()),
                            heap.heap_size(), slot);
    // Stamp the claim generation before any free of this claim can be
    // published (we still hold alloc_mu_): queued records from an earlier
    // claim of the same (uuid, tag) now mismatch instead of resolving
    // against this claim's slabs.
    pa->claim_gen = arenas_->RegisterClaim(uuid, pa->tag());
    ta->RecordDirClaim(pa);
  }
  SlabAllocator slab_alloc = heap.slab_view();
  ArenaDirEntry* de = &dir->entries[pa->dir_slot];
  int acquired = 0;
  for (int n = 0; n < kArenaRefillSlabs; ++n) {
    const int64_t prev_head = pa->chain_head;
    uint64_t bitmap[2] = {0, 0};
    uint16_t used = 0;
    ASSIGN_OR_RETURN(int64_t offset,
                     slab_alloc.AdoptPartialForArena(class_index, pa->tag(), prev_head));
    if (offset >= 0) {
      const auto* adopted = reinterpret_cast<const SlabHeader*>(pa->heap_base + offset);
      bitmap[0] = adopted->bitmap[0];
      bitmap[1] = adopted->bitmap[1];
      used = adopted->used;
    } else {
      auto carved = slab_alloc.CarveArenaSlab(class_index, pa->tag(), prev_head);
      if (!carved.ok()) {
        if (carved.status().code() == StatusCode::kOutOfMemory) {
          break;
        }
        return carved.status();
      }
      offset = *carved;
      // Zero every slot's object-magic word (plain stores inside the fresh
      // block, flushed at commit): recycled heap bytes could alias the magic
      // and surface ghost objects to the enumerate-all arena-slab walk.
      const auto* carved_hdr = reinterpret_cast<const SlabHeader*>(pa->heap_base + offset);
      for (uint16_t s = 0; s < carved_hdr->num_slots; ++s) {
        *reinterpret_cast<uint32_t*>(pa->heap_base + offset +
                                     static_cast<int64_t>(sizeof(SlabHeader)) +
                                     static_cast<int64_t>(s) *
                                         static_cast<int64_t>(kSlabSlotSizes[class_index])) = 0;
      }
    }
    // The directory entry's chain head moves to the new slab (its arena_next
    // already points at the previous head) — logged, so abort restores it.
    sink.WillWrite(&de->slab_head, sizeof(de->slab_head));
    sink.Publish();
    de->slab_head = offset;
    pa->chain_head = offset;
    ta->AddSlab(pa, offset, bitmap, used, prev_head);
    ++acquired;
  }
  return acquired;
}

puddles::Status Pool::DrainArenaQueuesLocked(ThreadArena* ta, Transaction* tx) {
  const uint64_t retired = RetiredEpochForReuse();
  ta->DrainPendingFrees(retired);
  std::vector<ArenaManager::RemoteFree> unowned = arenas_->DrainRemoteInto(ta);
  for (const auto& rf : unowned) {
    if (rf.epoch != 0 && rf.epoch > retired) {
      // The freeing epoch is not durable yet; keep it queued verbatim
      // (generation preserved — ownership resolves at the next mature drain).
      arenas_->Requeue(rf);
      continue;
    }
    ASSIGN_OR_RETURN(Runtime::Entry * entry, runtime_->EnsureMapped(rf.uuid));
    ASSIGN_OR_RETURN(ObjectHeap heap, entry->view.object_heap());
    void* payload =
        static_cast<uint8_t*>(heap.AtOffset(rf.slot_offset)) + sizeof(ObjectHeader);
    const uint16_t tag = heap.ArenaTagOf(payload);
    if (tag != 0) {
      // Another live thread owns the slab now (adopted after a flush);
      // requeue under the current tag and its current claim generation.
      arenas_->PushRemoteFree(rf.uuid, tag, rf.slot_offset, rf.epoch);
      continue;
    }
    if (heap.HeaderOf(payload) == nullptr) {
      continue;  // The flush-back's occupancy write already freed it.
    }
    if (tx == nullptr) {
      RETURN_IF_ERROR(FreeGlobalLocked(rf.uuid, payload));
      continue;
    }
    // The slab went global between free and drain. The record itself is a
    // committed free — the object is garbage — but applying it with a logged
    // heap.Free joins the CALLER's still-open transaction, so it must obey
    // the same rules as Pool::Free: defer to commit head (the freed block
    // must not be reused within this transaction, rollback safety), and
    // because an abort rolls the free back after the queue record is gone,
    // requeue the record on abort so the slot cannot leak.
    auto consumed = std::make_shared<bool>(false);
    Pool* pool = this;
    tx->DeferFree([pool, rf, tx, consumed]() -> puddles::Status {
      ASSIGN_OR_RETURN(Runtime::Entry * e, pool->runtime_->EnsureMapped(rf.uuid));
      std::lock_guard<std::mutex> lock(pool->alloc_mu_);
      ASSIGN_OR_RETURN(ObjectHeap h, e->view.object_heap(TxSink(tx)));
      void* p =
          static_cast<uint8_t*>(h.AtOffset(rf.slot_offset)) + sizeof(ObjectHeader);
      const uint16_t now_tag = h.ArenaTagOf(p);
      if (now_tag != 0) {
        // Re-adopted between drain and commit: back to the owner's queue.
        pool->arenas_->PushRemoteFree(rf.uuid, now_tag, rf.slot_offset, rf.epoch);
        *consumed = true;
        return puddles::OkStatus();
      }
      if (h.HeaderOf(p) == nullptr) {
        *consumed = true;  // Freed by another path meanwhile; nothing to do.
        return puddles::OkStatus();
      }
      RETURN_IF_ERROR(h.Free(p));
      pool->RewindCursorLocked(rf.uuid);
      return puddles::OkStatus();
    });
    tx->DeferOnAbort([arenas = arenas_, rf, consumed]() {
      if (!*consumed) {
        arenas->Requeue(rf);
      }
    });
  }
  return OkStatus();
}

namespace {

// Unlinks `target` from its arena chain with a logged predecessor (or
// directory-head) write. The caller updates the volatile chain mirror.
puddles::Status UnlinkArenaSlab(const ObjectHeap& heap, LogSink& sink,
                                ArenaDirEntry* de, PuddleArena* pa, int64_t target) {
  auto* base = static_cast<uint8_t*>(heap.heap_base());
  auto* target_hdr = reinterpret_cast<SlabHeader*>(base + target);
  const int64_t next = target_hdr->arena_next;
  if (pa->chain_head == target) {
    sink.WillWrite(&de->slab_head, sizeof(de->slab_head));
    sink.Publish();
    de->slab_head = next;
    pa->chain_head = next;
    return OkStatus();
  }
  int64_t cur = pa->chain_head;
  while (cur >= 0) {
    auto* hdr = reinterpret_cast<SlabHeader*>(base + cur);
    if (hdr->arena_next == target) {
      sink.WillWrite(&hdr->arena_next, sizeof(hdr->arena_next));
      sink.Publish();
      hdr->arena_next = next;
      return OkStatus();
    }
    cur = hdr->arena_next;
  }
  return DataLossError("arena slab missing from its directory chain");
}

}  // namespace

puddles::Status Pool::SpillExcess(Transaction* tx) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  ThreadArena* ta = arenas_->Local();
  ta->DrainPendingFrees(RetiredEpochForReuse());
  LogSink sink = TxSink(tx);
  // Only whole-empty slabs spill: they return to the buddy with no occupancy
  // to reconcile, keeping the spill window in crashsim small.
  for (const ArenaSlab* slab : ta->SpillCandidates()) {
    PuddleArena* pa = slab->pa;
    const int64_t slab_offset = slab->offset;
    ASSIGN_OR_RETURN(Runtime::Entry * entry, runtime_->EnsureMapped(pa->uuid));
    ASSIGN_OR_RETURN(ObjectHeap heap, entry->view.object_heap(sink));
    ArenaDirEntry* de = &heap.arena_directory()->entries[pa->dir_slot];
    const int64_t prev_head = pa->chain_head;
    RETURN_IF_ERROR(UnlinkArenaSlab(heap, sink, de, pa, slab_offset));
    // The unlink is staged in the caller's transaction now, but the buddy
    // release must NOT run here: SpillExcess is called from the arena hot
    // path with the caller's transaction still open, and a block returned to
    // the buddy before commit could be re-allocated by another thread (or
    // this transaction's own refill) — an abort would then undo-restore the
    // slab over the new owner. Deferring to commit head restores the same
    // rule the global free path states: freed blocks are not reused within
    // the freeing transaction.
    const Uuid slab_uuid = pa->uuid;
    Pool* pool = this;
    tx->DeferFree([pool, slab_uuid, slab_offset, tx]() -> puddles::Status {
      ASSIGN_OR_RETURN(Runtime::Entry * e, pool->runtime_->EnsureMapped(slab_uuid));
      std::lock_guard<std::mutex> lock(pool->alloc_mu_);
      ASSIGN_OR_RETURN(ObjectHeap h, e->view.object_heap(TxSink(tx)));
      const uint64_t empty[2] = {0, 0};
      RETURN_IF_ERROR(h.slab_view().ReleaseArenaSlab(slab_offset, empty, 0));
      pool->RewindCursorLocked(slab_uuid);
      return puddles::OkStatus();
    });
    ta->RecordSpill(pa, slab_offset, prev_head);  // Erases `slab`'s record.
    PUDDLES_COUNT(kArenaFlushSlabs);
  }
  ta->clear_spill_hint();
  return OkStatus();
}

void Pool::PublishArenaFree(void* payload) {
  // FAST PATH: if the slot still lives in one of THIS thread's slabs, the
  // release is a volatile free-list push — no lock, no heap view, no
  // persistence. Lock-free by ownership (see ThreadArena::TryLocalFree); the
  // object size must be read before the release clears its magic.
  uint8_t* header_addr = static_cast<uint8_t*>(payload) - sizeof(ObjectHeader);
  const uint32_t size = reinterpret_cast<const ObjectHeader*>(header_addr)->size;
  ThreadArena* ta = arenas_->Local();
  if (ta->TryLocalFree(header_addr, CurrentEpochTag())) {
    PUDDLES_COUNT_N(kFreeBytes, sizeof(ObjectHeader) + size);
    return;
  }
  Runtime::Entry* entry = runtime_->FindEntryByAddr(reinterpret_cast<uintptr_t>(payload));
  if (entry == nullptr || !entry->mapped) {
    return;  // Unmapped since the free was issued; recovery GC reclaims it.
  }
  const Uuid uuid = entry->info.uuid;
  std::lock_guard<std::mutex> lock(alloc_mu_);
  auto heap_or = entry->view.object_heap();
  if (!heap_or.ok()) {
    return;
  }
  if (heap_or->ArenaTagOf(payload) == 0) {
    // The slab was flushed to the global heap between free and publication:
    // ordinary logged free. Failure means it is already gone — inert.
    (void)FreeGlobalLocked(uuid, payload);
    return;
  }
  const ObjectHeader* hdr = heap_or->HeaderOf(payload);
  if (hdr == nullptr) {
    return;  // Already freed (duplicate publication).
  }
  PUDDLES_COUNT_N(kFreeBytes, sizeof(ObjectHeader) + hdr->size);
  const uint64_t epoch = CurrentEpochTag();
  const int64_t slot_offset = heap_or->OffsetOf(hdr);
  // Re-read the tag under the lock — flush/adopt transitions settle here —
  // and bind the free to the tag's current claim generation, so it can never
  // be applied through a later claim that recycles the same (uuid, tag).
  const uint16_t tag = heap_or->ArenaTagOf(payload);
  if (!ta->AcceptRemoteFree(uuid, tag, arenas_->ClaimGenOf(uuid, tag), slot_offset, epoch)) {
    arenas_->PushRemoteFree(uuid, tag, slot_offset, epoch);
  }
  ta->DrainPendingFrees(RetiredEpochForReuse());
}

puddles::Status Pool::FlushThreadArena() {
  if (!writable_) {
    return OkStatus();  // Read-only pools never allocate, so hold no arenas.
  }
  if (durability_ == Durability::kEpoch) {
    Sync();  // Retire every open epoch so all pending frees mature below.
  }
  ThreadArena* ta = arenas_->Local();
  if (arenas_->queued_remote_frees() > 0 || ta->HasPendingFrees()) {
    // Queued frees of this thread's slots land before the slabs leave.
    RETURN_IF_ERROR(Run([&](Tx& txh) -> puddles::Status {
      std::lock_guard<std::mutex> lock(alloc_mu_);
      return DrainArenaQueuesLocked(ta, txh.tx_);
    }));
  }
  for (PuddleArena* pa : ta->PuddleArenas()) {
    RETURN_IF_ERROR(FlushPuddleArena(ta, pa));
  }
  MaybeClearArenaFlag(ta);
  return OkStatus();
}

puddles::Status Pool::FlushPuddleArena(ThreadArena* ta, PuddleArena* pa) {
  // The logged occupancy write makes the shadow bitmap authoritative
  // persistently; free slots' cleared magic words need no extra logging
  // because global slabs are enumerated by bitmap, never by magic. A slab
  // without a record is full.
  auto occupancy = [&](int64_t offset, const SlabHeader& hdr, LogSink&, uint64_t bitmap[2],
                       uint16_t* used) -> puddles::Status {
    bitmap[0] = ~0ULL;
    bitmap[1] = ~0ULL;
    *used = hdr.num_slots;
    if (const ArenaSlab* slab = ta->FindSlab(pa, offset)) {
      bitmap[0] = slab->shadow[0];
      bitmap[1] = slab->shadow[1];
      *used = slab->used;
    }
    ClipToSlots(hdr.num_slots, bitmap);
    PUDDLES_COUNT(kArenaFlushSlabs);
    return OkStatus();
  };
  std::vector<int64_t> released;
  do {
    RETURN_IF_ERROR(ReleaseArenaChunk(pa->uuid, static_cast<size_t>(pa->dir_slot), occupancy,
                                      &released, &pa->chain_head));
    // Volatile state follows each committed chunk, so a failure later leaves
    // no record of a slab that is global already.
    for (int64_t offset : released) {
      ta->DropSlab(pa, offset);
    }
  } while (pa->chain_head >= 0);
  ta->DropPuddleArena(pa);
  return OkStatus();
}

puddles::Status Pool::ReleaseArenaChunk(const Uuid& uuid, size_t slot,
                                        const OccupancyFn& occupancy,
                                        std::vector<int64_t>* released, int64_t* head) {
  return Run([&](Tx& txh) -> puddles::Status {
    LogSink sink = TxSink(txh.tx_);
    std::lock_guard<std::mutex> lock(alloc_mu_);
    ASSIGN_OR_RETURN(Runtime::Entry * entry, runtime_->EnsureMapped(uuid));
    ASSIGN_OR_RETURN(ObjectHeap heap, entry->view.object_heap(sink));
    SlabAllocator slab_alloc = heap.slab_view();
    ArenaDirEntry* de = &heap.arena_directory()->entries[slot];
    int64_t cur = de->slab_head;
    released->clear();
    for (int n = 0; cur >= 0 && n < kSlabsPerReleaseTx; ++n) {
      const auto* hdr = reinterpret_cast<const SlabHeader*>(heap.AtOffset(cur));
      if (hdr->magic != kSlabMagic || hdr->arena_slot != static_cast<uint16_t>(slot + 1)) {
        return DataLossError("arena chain reaches a slab its entry does not own");
      }
      const int64_t next = hdr->arena_next;
      uint64_t bitmap[2];
      uint16_t used;
      RETURN_IF_ERROR(occupancy(cur, *hdr, sink, bitmap, &used));
      RETURN_IF_ERROR(slab_alloc.ReleaseArenaSlab(cur, bitmap, used));
      released->push_back(cur);
      cur = next;
    }
    // The chain head moves past the released slabs; the entry itself is
    // released with the last of them. Every intermediate state is a shorter
    // but well-formed chain, so a crash between chunks just resumes.
    sink.WillWrite(de, sizeof(*de));
    sink.Publish();
    de->slab_head = cur;
    if (cur < 0) {
      de->active = 0;
    }
    *head = cur;
    RewindCursorLocked(uuid);
    return puddles::OkStatus();
  });
}

void Pool::MaybeClearArenaFlag(const ThreadArena* ta) {
  if (durability_ == Durability::kEpoch) {
    Sync();  // The flush commits must be durable before the flag says so.
  }
  std::lock_guard<std::mutex> lock(alloc_mu_);
  // Claims set the flag under alloc_mu_, so no claim can slip in between
  // this check and the clear. Any other live or orphaned arena may hold one.
  if (meta_.arenas_active() && !arena_gc_pending_ && !arenas_->HasOtherLiveArenas(ta) &&
      arenas_->orphan_count() == 0) {
    meta_.SetArenasActive(false);
  }
}

puddles::Status Pool::FlushAllArenas() {
  arenas_->AdoptOrphansInto(arenas_->Local());
  return FlushThreadArena();
}

puddles::Result<std::vector<const void*>> Pool::ReachableObjects() {
  return Reachable(/*strict=*/false);
}

puddles::Result<std::vector<const void*>> Pool::Reachable(bool strict) {
  std::vector<const void*> out;
  if (!meta_.has_root()) {
    return out;
  }
  ASSIGN_OR_RETURN(void* root, RootBytes());
  std::vector<const void*> stack;
  std::unordered_set<const void*> seen;
  stack.push_back(root);
  while (!stack.empty()) {
    const void* payload = stack.back();
    stack.pop_back();
    if (payload == nullptr || !seen.insert(payload).second) {
      continue;
    }
    Runtime::Entry* entry =
        runtime_->FindEntryByAddr(reinterpret_cast<uintptr_t>(payload));
    if (entry == nullptr) {
      if (strict) {
        return FailedPreconditionError(
            "reachable pointer into no registered puddle; what it reaches is unknown");
      }
      continue;
    }
    // Members map lazily: map this one, or the walk would stop at its edge.
    ASSIGN_OR_RETURN(entry, runtime_->EnsureMapped(entry->info.uuid));
    ASSIGN_OR_RETURN(ObjectHeap heap, entry->view.object_heap());
    const ObjectHeader* header = heap.HeaderOf(payload);
    if (header == nullptr) {
      continue;  // Dangling edge (freed target); not reachable.
    }
    out.push_back(payload);
    if (header->type_id == kRawBytesTypeId) {
      continue;  // Raw byte buffers carry no pointers by contract.
    }
    auto map = TypeRegistry::Instance().Lookup(header->type_id);
    if (!map.ok()) {
      if (strict) {
        return FailedPreconditionError(
            "reachable object has a type with no registered pointer map; its edges are "
            "unknown");
      }
      continue;
    }
    const auto* bytes = static_cast<const uint8_t*>(payload);
    ForEachPointerSlot(*map, std::min<uint64_t>(header->size, heap.CapacityOf(payload)),
                       [&](uint64_t offset) {
                         uint64_t target;
                         std::memcpy(&target, bytes + offset, sizeof(target));
                         if (target != 0) {
                           stack.push_back(reinterpret_cast<const void*>(target));
                         }
                       });
  }
  std::sort(out.begin(), out.end());
  return out;
}

puddles::Result<Pool::ArenaRecoveryReport> Pool::RecoverArenas() {
  if (!writable_) {
    return FailedPreconditionError("read-only pool cannot recover arenas");
  }
  if (arenas_->HasOtherLiveArenas(nullptr) || arenas_->orphan_count() > 0) {
    return FailedPreconditionError(
        "arena recovery is offline-only: flush live arenas first (FlushAllArenas)");
  }
  ArenaRecoveryReport report;
  // Strict: an object whose pointers cannot be followed would hide whatever
  // it points to, and reclaiming that would free live data. Leave every
  // entry active instead (docs/alloc.md, "conservative skip").
  auto reachable = Reachable(/*strict=*/true);
  if (!reachable.ok()) {
    if (reachable.status().code() == StatusCode::kFailedPrecondition) {
      std::lock_guard<std::mutex> lock(alloc_mu_);
      arena_gc_pending_ = true;
    }
    return reachable.status();
  }
  report.objects_live = reachable->size();
  for (const Uuid& uuid : data_members_) {
    ASSIGN_OR_RETURN(Runtime::Entry * entry, runtime_->EnsureMapped(uuid));
    for (size_t slot = 0; slot < kMaxArenaSlots; ++slot) {
      {
        ASSIGN_OR_RETURN(ObjectHeap peek, entry->view.object_heap());
        if (peek.arena_directory()->entries[slot].active == 0) {
          continue;
        }
      }
      RETURN_IF_ERROR(RecoverArenaSlot(uuid, slot, *reachable, &report));
      ++report.arenas_recovered;
    }
  }
  std::lock_guard<std::mutex> lock(alloc_mu_);
  arena_gc_pending_ = false;
  if (meta_.arenas_active() && !arenas_->HasOtherLiveArenas(nullptr)) {
    meta_.SetArenasActive(false);
  }
  return report;
}

// Chunked transactions over one directory entry: a crash during recovery
// rolls back at most the chunk in flight, so re-running RecoverArenas is
// idempotent.
puddles::Status Pool::RecoverArenaSlot(const Uuid& uuid, size_t slot,
                                       const std::vector<const void*>& reachable,
                                       ArenaRecoveryReport* report) {
  auto occupancy = [&](int64_t offset, const SlabHeader& hdr, LogSink& sink,
                       uint64_t bitmap[2], uint16_t* used) -> puddles::Status {
    ASSIGN_OR_RETURN(Runtime::Entry * entry, runtime_->EnsureMapped(uuid));
    auto* slab_base = static_cast<uint8_t*>(entry->view.heap()) + offset + sizeof(SlabHeader);
    const size_t slot_size = kSlabSlotSizes[hdr.class_index];
    bitmap[0] = 0;
    bitmap[1] = 0;
    *used = 0;
    for (uint16_t s = 0; s < hdr.num_slots; ++s) {
      auto* obj = reinterpret_cast<ObjectHeader*>(slab_base + s * slot_size);
      if (obj->magic != kObjectMagic) {
        continue;  // Never allocated, or freed with the clear persisted.
      }
      const void* payload = static_cast<const void*>(obj + 1);
      if (std::binary_search(reachable.begin(), reachable.end(), payload)) {
        bitmap[s / 64] |= 1ULL << (s % 64);
        ++*used;
        continue;
      }
      // Leaked in-flight slot: allocated but never published (crash before
      // its transaction's fresh flush), or freed with an unpersisted magic
      // clear, or plain garbage aliasing the magic. Reclaim with a logged
      // clear so a crash during GC replays to a consistent image.
      sink.WillWrite(&obj->magic, sizeof(obj->magic));
      sink.Publish();
      obj->magic = 0;
      ++report->slots_reclaimed;
      PUDDLES_COUNT(kArenaGcReclaimed);
    }
    ++report->slabs_scanned;
    PUDDLES_COUNT(kArenaGcSlabs);
    return OkStatus();
  };
  std::vector<int64_t> released;
  int64_t head = -1;
  do {
    RETURN_IF_ERROR(ReleaseArenaChunk(uuid, slot, occupancy, &released, &head));
  } while (head >= 0);
  return OkStatus();
}

}  // namespace puddles
