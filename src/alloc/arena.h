// Per-thread slab arenas: the lock-free small-object allocator, with
// reachability GC as its crash recovery (docs/alloc.md).
//
// Every transactional allocation of at most kMaxSlabSlot bytes (header
// included) is served by the calling thread's arena. Each thread owns a set
// of slab pages whose occupancy lives in VOLATILE shadow state, so arena
// malloc/free touch no lock, append no undo entry, and issue no persistence
// call. Only the slow paths — batched refill from the shared heap, spill,
// flush-back, cross-thread free handoff — take locks and run under the
// allocator group protocol, fully logged.
//
// Persistence contract: while a slab is arena-owned (SlabHeader::arena_slot
// != 0) its persistent bitmap/used are STALE. Crash-consistency comes from a
// persistent per-thread arena directory (NVMMgr-style, one per puddle): every
// arena-owned slab is chained from a directory entry via SlabHeader::
// arena_next, so recovery can find every arena in O(threads) and reconstruct
// true occupancy by walking roots through the pointer maps (Pool::
// RecoverArenas, run by Runtime::OpenPool) — frees of arena-owned objects
// therefore need no logging at all.
//
// Volatile footprint: a thread keeps one record per owned slab that has a
// free slot, plus one ownership bit per 4 KiB block of each puddle it holds.
// A slab that fills is forgotten; the first free into it re-creates its
// record. Full slabs cost no DRAM beyond their ownership bit.
//
// This header is allocator-layer only: volatile bookkeeping plus the
// persistent directory layout. Orchestration (refill transactions, spill,
// flush-back, GC) lives in Pool, which owns the Runtime/Transaction access.
#ifndef SRC_ALLOC_ARENA_H_
#define SRC_ALLOC_ARENA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/alloc/slab.h"
#include "src/common/status.h"
#include "src/common/uuid.h"

namespace puddles {

// ---- Persistent arena directory (lives in ObjectHeap::Meta) ----

// Directory slots per puddle. Arena tags are slot + 1, so they must fit the
// 16-bit SlabHeader::arena_slot with 0 reserved for "global".
inline constexpr size_t kMaxArenaSlots = 64;

struct ArenaDirEntry {
  uint64_t active;     // 0 = free slot; 1 = owned by a (possibly dead) arena.
  int64_t slab_head;   // Heap offset of the first owned slab; -1 when none.
};

struct ArenaDirectory {
  static constexpr uint64_t kMagic = 0x5044415245313644ULL;  // "PDARE16D"

  uint64_t magic;
  uint64_t reserved;
  ArenaDirEntry entries[kMaxArenaSlots];
};
static_assert(sizeof(ArenaDirectory) == 16 + kMaxArenaSlots * sizeof(ArenaDirEntry),
              "arena directory layout is persistent");

void FormatArenaDirectory(ArenaDirectory* dir);

// ---- Volatile per-thread state ----

// Slabs acquired per refill (adopt-partial first, then carve fresh); also the
// whole-empty slabs per class a thread keeps when it spills.
inline constexpr int kArenaRefillSlabs = 4;
// Free slots held across a thread's arenas before the next transactional
// slow path spills whole-empty slabs back to the shared heap.
inline constexpr size_t kArenaFlushWatermark = 512;

struct PuddleArena;

// Volatile record of one arena-owned slab that has at least one free slot.
// Stable address (node-based map); linked into its class's free-slab list.
struct ArenaSlab {
  PuddleArena* pa = nullptr;
  int64_t offset = -1;       // Heap offset of the slab block.
  uint64_t shadow[2] = {};   // TRUE occupancy; the persistent bitmap is stale.
  uint16_t used = 0;
  uint16_t num_slots = 0;
  uint8_t class_index = 0;
  ArenaSlab* prev = nullptr;
  ArenaSlab* next = nullptr;
};

// Clears the bits of `bits` past `num_slots`. Shadow bitmaps keep those bits
// set so the allocation scan never hands one out; persistent bitmaps must
// not carry them.
inline void ClipToSlots(uint16_t num_slots, uint64_t bits[2]) {
  if (num_slots < 64) {
    bits[0] &= (1ULL << num_slots) - 1;
  }
  if (num_slots <= 64) {
    bits[1] = 0;
  } else if (num_slots < 128) {
    bits[1] &= (1ULL << (num_slots - 64)) - 1;
  }
}

// One thread's slab holdings within one puddle, pinned to one directory slot.
struct PuddleArena {
  Uuid uuid;
  uint8_t* heap_base = nullptr;
  size_t heap_size = 0;  // Bounds the same-thread address probe.
  int dir_slot = -1;  // 0-based; the persistent tag is dir_slot + 1.
  // Generation of this directory claim (ArenaManager::RegisterClaim). A
  // (uuid, tag) pair is recycled every time the slot is released and
  // re-claimed; queued remote frees carry the generation they were published
  // under so a record that outlives its claim is rejected instead of being
  // applied to whatever slab the recycled tag owns now.
  uint64_t claim_gen = 0;
  // Volatile mirror of the directory entry's chain head.
  int64_t chain_head = -1;
  // One bit per kSlabBlockSize block of the heap, set while the block is a
  // slab this arena owns. Ownership is decided here, never by reading a slab
  // header another thread may be rewriting under the allocation lock.
  std::unique_ptr<uint64_t[]> owned;

  uint16_t tag() const { return static_cast<uint16_t>(dir_slot + 1); }
  bool Owns(int64_t slab_offset) const {
    const uint64_t block = static_cast<uint64_t>(slab_offset) / kSlabBlockSize;
    return (owned[block / 64] >> (block % 64)) & 1;
  }
  void SetOwned(int64_t slab_offset, bool value) {
    const uint64_t block = static_cast<uint64_t>(slab_offset) / kSlabBlockSize;
    if (value) {
      owned[block / 64] |= 1ULL << (block % 64);
    } else {
      owned[block / 64] &= ~(1ULL << (block % 64));
    }
  }
  const SlabHeader* header(int64_t slab_offset) const {
    return reinterpret_cast<const SlabHeader*>(heap_base + slab_offset);
  }
};

class ArenaManager;

// All of one thread's arena state for one pool. Owned via shared_ptr: TLS
// holds it while the thread lives, then hands it to the manager's orphan
// list on thread exit so another thread can adopt and flush it.
class ThreadArena {
 public:
  ThreadArena() = default;
  ThreadArena(const ThreadArena&) = delete;
  ThreadArena& operator=(const ThreadArena&) = delete;

  struct AllocResult {
    PuddleArena* pa = nullptr;
    int64_t slab_offset = -1;
    int slot = -1;
    void* addr = nullptr;  // Slot start (the ObjectHeader position).
  };

  // FAST PATH (tools/check_discipline.py): takes a free slot of
  // `class_index` from the class's first slab with one (ctz on its shadow
  // bitmap). No lock, no persistence call, no undo append. Returns false
  // when the thread holds no free slot of the class (caller refills under
  // the pool's allocation lock and retries).
  bool TryAllocate(int class_index, AllocResult* out);

  // FAST PATH: returns a slot of an owned slab to the free state. Clears the
  // slot's object magic with a plain store (the slot is dead; the cleared
  // word rides the next flush-back's logged occupancy write), clears the
  // shadow bit, and raises the spill hint past the watermark. No lock, no
  // persistence call, no undo append.
  void ReleaseSlot(PuddleArena* pa, int64_t slab_offset, int slot);

  // FAST PATH: true when `header_addr` resolves to a live slot in one of
  // this thread's own slabs. Lock-free by ownership: only the owning thread
  // mutates its arenas while it is alive (spill, flush, and adoption all run
  // on the owner; orphan handoff happens only after exit).
  bool OwnsLocally(const void* header_addr) const;

  // FAST PATH: OwnsLocally + the release itself — frees the slot (or parks
  // it epoch-pending when `epoch` != 0). Returns false when the address is
  // not locally owned; the caller falls back to the locked path.
  bool TryLocalFree(const void* header_addr, uint64_t epoch);

  // ---- Per-transaction tracking ----
  // Hot-path effects are volatile, so transaction rollback cannot restore
  // them; the pool registers commit/abort hooks that call back here. Returns
  // true on the first use under `tx` (an opaque identity) — the caller must
  // then register its hooks.
  bool NoteTxUse(void* tx);

  // Records a TryAllocate pop so OnTxAborted can restore it.
  void RecordPop(const AllocResult& pop);
  // Records a directory slot claimed (active 0→1, logged) by the current
  // transaction; abort destroys the PuddleArena to mirror the rollback.
  void RecordDirClaim(PuddleArena* pa);
  // Drops a whole-empty slab spilled back to the global heap under the
  // current transaction; abort re-owns it and restores `prev_chain_head`.
  void RecordSpill(PuddleArena* pa, int64_t slab_offset, int64_t prev_chain_head);

  void OnTxCommitted();
  void OnTxAborted();

  // ---- Epoch-gated reuse ----
  // A slot freed under epoch durability may only be handed out again once
  // its epoch has persistently retired: reusing it earlier would let the
  // unlogged new contents corrupt the resurrected object if the crash rolls
  // the freeing epoch back. `epoch` == 0 means immediately reusable.
  void AddPendingFree(PuddleArena* pa, int64_t slab_offset, int slot, uint64_t epoch);
  // Releases every pending free whose epoch <= `retired_epoch`.
  void DrainPendingFrees(uint64_t retired_epoch);
  bool HasPendingFrees() const { return !pending_.empty(); }

  // Accepts a free published by another thread for a slot this arena owns.
  // Returns false when no live PuddleArena matches (uuid, tag, gen) — the
  // slab has since gone global, or the claim was recycled; the caller falls
  // back to a logged global free (which revalidates under the lock). When
  // the claim matches, the slot offset is validated against the current slab
  // (ownership, bounds, slot alignment) before any shadow state is touched;
  // a record that fails validation under its own claim is provably stale
  // (its slab was emptied and spilled within the claim, which requires the
  // free to have already been applied) and is consumed as an inert duplicate.
  bool AcceptRemoteFree(const Uuid& uuid, uint16_t tag, uint64_t gen,
                        int64_t slot_offset, uint64_t epoch);

  // ---- Arena inventory (slow paths; caller holds the pool's alloc lock) ----
  PuddleArena* FindPuddleArena(const Uuid& uuid);
  PuddleArena* AddPuddleArena(const Uuid& uuid, uint8_t* heap_base, size_t heap_size,
                              int dir_slot);
  std::vector<PuddleArena*> PuddleArenas();
  // Registers a slab the current transaction acquired (carved: `bitmap` all
  // clear; adopted: the global slab's occupancy) and records the acquisition
  // for abort. The slab header must already carry class and slot count.
  // Counts kArenaRefillSlabs.
  void AddSlab(PuddleArena* pa, int64_t offset, const uint64_t bitmap[2], uint16_t used,
               int64_t prev_chain_head);
  // The record of an owned slab, or nullptr when the slab is full (or not
  // owned by `pa`). Flush reads occupancy through this.
  const ArenaSlab* FindSlab(const PuddleArena* pa, int64_t offset) const;
  bool HasFreeSlot(int class_index) const { return free_slabs_[class_index] != nullptr; }
  // Whole-empty slabs beyond the first kArenaRefillSlabs of each class: the
  // spill candidates.
  std::vector<const ArenaSlab*> SpillCandidates() const;
  // Forgets slab `offset` and its ownership: it went back to the global heap.
  void DropSlab(PuddleArena* pa, int64_t offset);
  // Volatile teardown after a committed flush-back: forgets every record and
  // pending free of `pa` and destroys it.
  void DropPuddleArena(PuddleArena* pa);
  // Moves every PuddleArena, slab record and pending free of `other` into
  // this arena (thread-exit handoff; `other`'s dir slots stay claimed until
  // flush).
  void Adopt(ThreadArena&& other);

  bool spill_hint() const { return free_count_ >= spill_at_; }
  // Called after a spill pass: the next hint waits for another watermark's
  // worth of free slots, so slots scattered over partly-used slabs (which
  // cannot spill) do not send every allocation down the slow path.
  // TryAllocate lowers the threshold again as those slots are used up.
  void clear_spill_hint() { spill_at_ = free_count_ + kArenaFlushWatermark; }
  size_t free_slot_count() const { return free_count_; }

 private:
  friend class ArenaManager;

  struct SlotRef {
    PuddleArena* pa;
    int64_t slab_offset;
    int slot;
  };
  struct ChainRecord {
    PuddleArena* pa;
    int64_t slab_offset;
    int64_t prev_chain_head;
  };
  struct PendingFree {
    SlotRef ref;
    uint64_t epoch;
  };

  // Shared resolver behind OwnsLocally/TryLocalFree: bounds-checks the
  // address against each puddle's heap range (so an address in another
  // puddle can never alias a slab), then maps it to a live slot.
  bool ResolveLocal(const void* header_addr, SlotRef* out) const;
  // Slot index of `slot_offset` inside owned slab `slab_offset`, or -1 when
  // it is misaligned or out of range.
  static int SlotIndex(const PuddleArena* pa, int64_t slab_offset, int64_t slot_offset);

  static uintptr_t Key(const PuddleArena* pa, int64_t offset) {
    return reinterpret_cast<uintptr_t>(pa->heap_base + offset);
  }
  // Creates the record of slab `offset` with the given occupancy, first or
  // last in its class's free-slab list.
  ArenaSlab* Insert(PuddleArena* pa, int64_t offset, const uint64_t bitmap[2], uint16_t used,
                    bool at_tail);
  // The record of owned slab `offset`, re-created as full if it was
  // forgotten.
  ArenaSlab* Record(PuddleArena* pa, int64_t offset);
  void Link(ArenaSlab* slab, bool at_tail);
  void Unlink(ArenaSlab* slab);
  // Erases the record of `offset` (if any), uncounting its free slots.
  void Forget(PuddleArena* pa, int64_t offset);
  // Takes ownership of slab `offset` with the given occupancy.
  void Own(PuddleArena* pa, int64_t offset, const uint64_t bitmap[2], uint16_t used);
  // Clears a slot's shadow bit (and its object magic); false if already free.
  bool FreeSlot(ArenaSlab* slab, int slot);

  std::vector<std::unique_ptr<PuddleArena>> puddles_;
  std::unordered_map<uintptr_t, ArenaSlab> slabs_;
  std::array<ArenaSlab*, kNumSlabClasses> free_slabs_{};  // List heads.
  std::array<ArenaSlab*, kNumSlabClasses> free_tails_{};
  size_t free_count_ = 0;
  size_t spill_at_ = kArenaFlushWatermark;

  void* cur_tx_ = nullptr;
  std::vector<SlotRef> tx_pops_;
  std::vector<PuddleArena*> tx_claims_;
  std::vector<ChainRecord> tx_acquires_;
  std::vector<ChainRecord> tx_spills_;
  std::vector<PendingFree> pending_;
};

// Pool-scoped coordinator: hands each thread its ThreadArena, queues
// cross-thread frees, and keeps orphaned arenas (exited threads) until a
// live thread adopts them. The mutex guards only slow-path state — remote
// queues, orphans, the registry — never the per-thread fast path.
class ArenaManager : public std::enable_shared_from_this<ArenaManager> {
 public:
  ArenaManager();

  // This thread's arena for this manager, created on first use and
  // registered with the thread-exit handoff hook.
  ThreadArena* Local();

  // Queues a free of an arena-owned slot for its owning thread to absorb on
  // its next slow path. `tag` is the slab's persistent arena tag; the record
  // is stamped with the tag's current claim generation so it can never be
  // applied through a later claim that recycled the same (uuid, tag). A tag
  // this process never claimed belongs to an entry the open-time GC skipped:
  // the free is dropped and the slot waits for a later GC.
  void PushRemoteFree(const Uuid& uuid, uint16_t tag, int64_t slot_offset,
                      uint64_t epoch);

  struct RemoteFree {
    Uuid uuid;
    uint16_t tag;
    uint64_t gen;  // Claim generation at publication.
    int64_t slot_offset;
    uint64_t epoch;
  };

  // Re-queues a drained record verbatim (generation preserved) — used when
  // its epoch has not matured or its consuming transaction aborted.
  void Requeue(const RemoteFree& rf);

  // Registers a fresh claim of directory slot `tag - 1` in puddle `uuid` and
  // returns its generation (monotonic, process-wide). Re-claiming a released
  // (uuid, tag) bumps the generation, invalidating queued records that were
  // published under the previous claim.
  uint64_t RegisterClaim(const Uuid& uuid, uint16_t tag);

  // Current generation of (uuid, tag), or 0 when it was never claimed.
  uint64_t ClaimGenOf(const Uuid& uuid, uint16_t tag);
  // Delivers queued remote frees that `ta` owns; returns the ones nobody
  // owns anymore (their slab went global — the caller must perform logged
  // global frees for any whose object is still live).
  std::vector<RemoteFree> DrainRemoteInto(ThreadArena* ta);

  // Thread-exit handoff target (called from the TLS destructor).
  void Orphan(std::shared_ptr<ThreadArena> arena);

  // Moves every orphan's holdings into `ta`.
  void AdoptOrphansInto(ThreadArena* ta);

  // True when any thread other than `exclude` still holds a registered,
  // non-orphaned arena — the guard that keeps RecoverArenas offline-only
  // and keeps a flush from declaring the pool free of arenas.
  bool HasOtherLiveArenas(const ThreadArena* exclude);

  size_t orphan_count();
  size_t queued_remote_frees();

 private:
  // Process-unique identity: a thread's cached arena matches this manager
  // only if the id matches too, so a new manager at a recycled address can
  // never pick up a dead manager's arena.
  const uint64_t id_;
  std::mutex mu_;
  std::vector<RemoteFree> remote_;
  std::vector<std::shared_ptr<ThreadArena>> orphans_;
  struct Registered {
    std::weak_ptr<ThreadArena> arena;
    bool orphaned = false;
  };
  std::vector<Registered> registry_;
  struct Claim {
    Uuid uuid;
    uint16_t tag;
    uint64_t gen;
  };
  // One entry per (uuid, tag) ever claimed (≤ 64 per puddle); never erased,
  // only bumped — a released claim keeps its last generation so stale queued
  // records mismatch instead of matching a default.
  std::vector<Claim> claims_;
  uint64_t next_gen_ = 0;

  uint64_t ClaimGenLocked(const Uuid& uuid, uint16_t tag) const;
  void MarkOrphaned(const ThreadArena* arena);
};

}  // namespace puddles

#endif  // SRC_ALLOC_ARENA_H_
