#include "src/alloc/arena.h"

#include <algorithm>
#include <atomic>

#include "src/common/align.h"
#include "src/stats/stats.h"

namespace puddles {

void FormatArenaDirectory(ArenaDirectory* dir) {
  dir->magic = ArenaDirectory::kMagic;
  dir->reserved = 0;
  for (auto& entry : dir->entries) {
    entry.active = 0;
    entry.slab_head = -1;
  }
}

namespace {

inline uint8_t* SlotAddr(const PuddleArena* pa, int64_t slab_offset, int class_index,
                         int slot) {
  return pa->heap_base + slab_offset + static_cast<int64_t>(sizeof(SlabHeader)) +
         static_cast<int64_t>(slot) * kSlabSlotSizes[class_index];
}

inline bool SlotUsed(const ArenaSlab* slab, int slot) {
  return (slab->shadow[slot / 64] >> (slot % 64)) & 1;
}

}  // namespace

bool ThreadArena::TryAllocate(int class_index, AllocResult* out) {
  ArenaSlab* slab = free_slabs_[class_index];
  if (slab == nullptr) {
    return false;
  }
  const int word = slab->shadow[0] == ~0ULL ? 1 : 0;
  const int slot = word * 64 + __builtin_ctzll(~slab->shadow[word]);
  slab->shadow[word] |= 1ULL << (slot % 64);
  slab->used++;
  free_count_--;
  // The spill threshold follows the free count down, so it stays at most a
  // watermark above the fewest free slots held since the last spill pass.
  spill_at_ = std::min(spill_at_, free_count_ + kArenaFlushWatermark);
  out->pa = slab->pa;
  out->slab_offset = slab->offset;
  out->slot = slot;
  out->addr = SlotAddr(slab->pa, slab->offset, class_index, slot);
  if (slab->used == slab->num_slots) {
    // Full: forget the record. Ownership stays in the puddle's owned bitmap,
    // and the first free into the slab re-creates the record.
    Unlink(slab);
    slabs_.erase(Key(slab->pa, slab->offset));
  }
  PUDDLES_COUNT(kArenaAlloc);
  return true;
}

void ThreadArena::ReleaseSlot(PuddleArena* pa, int64_t slab_offset, int slot) {
  // Dead slot: clearing the magic here (a plain volatile-speed store, inside
  // FreeSlot) is what keeps ForEachObject's magic check honest for arena
  // slabs; the word is persisted later by the flush-back's logged occupancy
  // write. A crash before then may resurrect the magic — recovery GC decides
  // liveness by reachability, never by this word.
  if (!FreeSlot(Record(pa, slab_offset), slot)) {
    return;  // Already free — a duplicate publish (double tx free) is inert.
  }
  PUDDLES_COUNT(kArenaFree);
}

bool ThreadArena::FreeSlot(ArenaSlab* slab, int slot) {
  if (!SlotUsed(slab, slot)) {
    return false;
  }
  *reinterpret_cast<uint32_t*>(SlotAddr(slab->pa, slab->offset, slab->class_index, slot)) =
      0;  // ObjectHeader::magic
  slab->shadow[slot / 64] &= ~(1ULL << (slot % 64));
  slab->used--;
  free_count_++;
  return true;
}

int ThreadArena::SlotIndex(const PuddleArena* pa, int64_t slab_offset,
                           int64_t slot_offset) {
  const SlabHeader* hdr = pa->header(slab_offset);
  const int64_t within = slot_offset - slab_offset - static_cast<int64_t>(sizeof(SlabHeader));
  const int64_t slot_size = static_cast<int64_t>(kSlabSlotSizes[hdr->class_index]);
  if (within < 0 || within % slot_size != 0 || within / slot_size >= hdr->num_slots) {
    return -1;
  }
  return static_cast<int>(within / slot_size);
}

bool ThreadArena::ResolveLocal(const void* header_addr, SlotRef* out) const {
  const auto* addr = static_cast<const uint8_t*>(header_addr);
  for (const auto& owned : puddles_) {
    PuddleArena* pa = owned.get();
    if (addr < pa->heap_base || addr >= pa->heap_base + pa->heap_size) {
      continue;
    }
    // Unique puddle match: resolve here or not at all.
    const int64_t header_off = addr - pa->heap_base;
    const int64_t slab_offset = header_off & ~static_cast<int64_t>(kSlabBlockSize - 1);
    if (!pa->Owns(slab_offset)) {
      return false;
    }
    const int slot = SlotIndex(pa, slab_offset, header_off);
    if (slot < 0) {
      return false;
    }
    // No record means the slab is full, so every slot is live.
    auto it = slabs_.find(Key(pa, slab_offset));
    if (it != slabs_.end() && !SlotUsed(&it->second, slot)) {
      return false;
    }
    *out = {pa, slab_offset, slot};
    return true;
  }
  return false;
}

bool ThreadArena::OwnsLocally(const void* header_addr) const {
  SlotRef ref;
  return ResolveLocal(header_addr, &ref);
}

bool ThreadArena::TryLocalFree(const void* header_addr, uint64_t epoch) {
  SlotRef ref;
  if (!ResolveLocal(header_addr, &ref)) {
    return false;
  }
  if (epoch != 0) {
    AddPendingFree(ref.pa, ref.slab_offset, ref.slot, epoch);
  } else {
    ReleaseSlot(ref.pa, ref.slab_offset, ref.slot);
  }
  return true;
}

bool ThreadArena::NoteTxUse(void* tx) {
  if (cur_tx_ == tx) {
    return false;
  }
  // A different transaction identity with stale records means the previous
  // transaction ended without running its hooks (possible only on abandoned
  // test transactions); treat it as committed.
  OnTxCommitted();
  cur_tx_ = tx;
  return true;
}

void ThreadArena::RecordPop(const AllocResult& pop) {
  tx_pops_.push_back({pop.pa, pop.slab_offset, pop.slot});
}

void ThreadArena::RecordDirClaim(PuddleArena* pa) { tx_claims_.push_back(pa); }

void ThreadArena::RecordSpill(PuddleArena* pa, int64_t slab_offset,
                              int64_t prev_chain_head) {
  // The caller already unlinked the slab persistently (staged in its tx).
  // Volatile side: drop it now so the rest of the transaction cannot
  // allocate from a slab that is leaving.
  DropSlab(pa, slab_offset);
  tx_spills_.push_back({pa, slab_offset, prev_chain_head});
}

void ThreadArena::OnTxCommitted() {
  tx_pops_.clear();
  tx_claims_.clear();
  tx_acquires_.clear();
  tx_spills_.clear();
  cur_tx_ = nullptr;
}

void ThreadArena::OnTxAborted() {
  // The persistent side has already rolled back (refill/spill metadata was
  // fully logged); mirror it in the volatile state, newest effect first.
  for (auto it = tx_spills_.rbegin(); it != tx_spills_.rend(); ++it) {
    // Spills take only whole-empty slabs: re-own it with every slot free.
    const uint64_t empty[2] = {0, 0};
    Own(it->pa, it->slab_offset, empty, 0);
    it->pa->chain_head = it->prev_chain_head;
  }
  for (auto it = tx_acquires_.rbegin(); it != tx_acquires_.rend(); ++it) {
    DropSlab(it->pa, it->slab_offset);
    it->pa->chain_head = it->prev_chain_head;
  }
  for (auto it = tx_pops_.rbegin(); it != tx_pops_.rend(); ++it) {
    if (it->pa->Owns(it->slab_offset)) {
      // The acquisition did not roll back, so the slot is ours to restore.
      (void)FreeSlot(Record(it->pa, it->slab_offset), it->slot);
    }
  }
  // Directory claims rolled back to active=0: the volatile PuddleArena must
  // not keep writing through a slot it no longer owns. Its acquisitions all
  // rolled back above, so nothing else refers to it.
  std::vector<PuddleArena*> claims = std::move(tx_claims_);
  OnTxCommitted();
  for (PuddleArena* pa : claims) {
    DropPuddleArena(pa);
  }
}

void ThreadArena::AddPendingFree(PuddleArena* pa, int64_t slab_offset, int slot,
                                 uint64_t epoch) {
  pending_.push_back({{pa, slab_offset, slot}, epoch});
}

void ThreadArena::DrainPendingFrees(uint64_t retired_epoch) {
  size_t kept = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const PendingFree entry = pending_[i];
    if (!entry.ref.pa->Owns(entry.ref.slab_offset)) {
      continue;  // The owning acquisition is gone; nothing to free.
    }
    if (entry.epoch != 0 && entry.epoch > retired_epoch) {
      pending_[kept++] = entry;
      continue;
    }
    ReleaseSlot(entry.ref.pa, entry.ref.slab_offset, entry.ref.slot);
  }
  pending_.resize(kept);
}

bool ThreadArena::AcceptRemoteFree(const Uuid& uuid, uint16_t tag, uint64_t gen,
                                   int64_t slot_offset, uint64_t epoch) {
  for (auto& owned : puddles_) {
    PuddleArena* pa = owned.get();
    if (pa->tag() != tag || !(pa->uuid == uuid)) {
      continue;
    }
    if (pa->claim_gen != gen) {
      // The record was published under an earlier claim of this (uuid, tag):
      // it must not touch the current claim's slabs. The caller's global-path
      // recheck decides what the offset holds now.
      return false;
    }
    // From here on the claim matches, so the record belongs to this arena.
    // A record the current slab layout cannot resolve — slab no longer
    // owned, slot offset misaligned for the slab's class, slot index out of
    // range — is a stale duplicate: consume it inertly rather than let
    // unvalidated arithmetic index past the shadow bitmap.
    if (slot_offset < 0 || static_cast<size_t>(slot_offset) >= pa->heap_size) {
      return true;
    }
    const int64_t slab_offset = static_cast<int64_t>(
        AlignDown(static_cast<uint64_t>(slot_offset), kSlabBlockSize));
    if (!pa->Owns(slab_offset)) {
      return true;
    }
    const int slot = SlotIndex(pa, slab_offset, slot_offset);
    if (slot < 0) {
      return true;
    }
    if (epoch != 0) {
      AddPendingFree(pa, slab_offset, slot, epoch);
    } else {
      ReleaseSlot(pa, slab_offset, slot);
    }
    return true;
  }
  return false;
}

PuddleArena* ThreadArena::FindPuddleArena(const Uuid& uuid) {
  for (auto& pa : puddles_) {
    if (pa->uuid == uuid) {
      return pa.get();
    }
  }
  return nullptr;
}

PuddleArena* ThreadArena::AddPuddleArena(const Uuid& uuid, uint8_t* heap_base,
                                         size_t heap_size, int dir_slot) {
  puddles_.push_back(std::make_unique<PuddleArena>());
  PuddleArena* pa = puddles_.back().get();
  pa->uuid = uuid;
  pa->heap_base = heap_base;
  pa->heap_size = heap_size;
  pa->dir_slot = dir_slot;
  const size_t blocks = heap_size / kSlabBlockSize;
  pa->owned = std::make_unique<uint64_t[]>((blocks + 63) / 64);
  return pa;
}

std::vector<PuddleArena*> ThreadArena::PuddleArenas() {
  std::vector<PuddleArena*> out;
  for (auto& pa : puddles_) {
    out.push_back(pa.get());
  }
  return out;
}

ArenaSlab* ThreadArena::Insert(PuddleArena* pa, int64_t offset, const uint64_t bitmap[2],
                              uint16_t used, bool at_tail) {
  const SlabHeader* hdr = pa->header(offset);
  ArenaSlab& slab = slabs_[Key(pa, offset)];
  slab.pa = pa;
  slab.offset = offset;
  slab.num_slots = hdr->num_slots;
  slab.class_index = static_cast<uint8_t>(hdr->class_index);
  slab.used = used;
  slab.shadow[0] = bitmap[0];
  slab.shadow[1] = bitmap[1];
  // Slots past num_slots read as used, so ctz never hands one out.
  for (int s = hdr->num_slots; s < 128; ++s) {
    slab.shadow[s / 64] |= 1ULL << (s % 64);
  }
  free_count_ += hdr->num_slots - used;
  Link(&slab, at_tail);
  return &slab;
}

void ThreadArena::Own(PuddleArena* pa, int64_t offset, const uint64_t bitmap[2],
                      uint16_t used) {
  pa->SetOwned(offset, true);
  if (used < pa->header(offset)->num_slots) {
    // At the tail: a refill's slabs are then used in the order it took
    // them, which is address order for consecutive carves.
    Insert(pa, offset, bitmap, used, /*at_tail=*/true);  // A full slab gets no record.
  }
}

void ThreadArena::AddSlab(PuddleArena* pa, int64_t offset, const uint64_t bitmap[2],
                          uint16_t used, int64_t prev_chain_head) {
  Own(pa, offset, bitmap, used);
  tx_acquires_.push_back({pa, offset, prev_chain_head});
  PUDDLES_COUNT(kArenaRefillSlabs);
}

ArenaSlab* ThreadArena::Record(PuddleArena* pa, int64_t offset) {
  auto it = slabs_.find(Key(pa, offset));
  if (it != slabs_.end()) {
    return &it->second;
  }
  // A forgotten slab is full: every slot starts used.
  const uint64_t full[2] = {~0ULL, ~0ULL};
  return Insert(pa, offset, full, pa->header(offset)->num_slots, /*at_tail=*/false);
}

const ArenaSlab* ThreadArena::FindSlab(const PuddleArena* pa, int64_t offset) const {
  if (!pa->Owns(offset)) {
    return nullptr;
  }
  auto it = slabs_.find(Key(pa, offset));
  return it == slabs_.end() ? nullptr : &it->second;
}

void ThreadArena::Link(ArenaSlab* slab, bool at_tail) {
  ArenaSlab*& head = free_slabs_[slab->class_index];
  ArenaSlab*& tail = free_tails_[slab->class_index];
  if (at_tail) {
    slab->next = nullptr;
    slab->prev = tail;
    (tail != nullptr ? tail->next : head) = slab;
    tail = slab;
  } else {
    slab->prev = nullptr;
    slab->next = head;
    (head != nullptr ? head->prev : tail) = slab;
    head = slab;
  }
}

void ThreadArena::Unlink(ArenaSlab* slab) {
  (slab->prev != nullptr ? slab->prev->next : free_slabs_[slab->class_index]) = slab->next;
  (slab->next != nullptr ? slab->next->prev : free_tails_[slab->class_index]) = slab->prev;
}

void ThreadArena::Forget(PuddleArena* pa, int64_t offset) {
  auto it = slabs_.find(Key(pa, offset));
  if (it == slabs_.end()) {
    return;
  }
  free_count_ -= it->second.num_slots - it->second.used;
  Unlink(&it->second);
  slabs_.erase(it);
}

std::vector<const ArenaSlab*> ThreadArena::SpillCandidates() const {
  std::vector<const ArenaSlab*> out;
  for (const ArenaSlab* head : free_slabs_) {
    int kept = 0;
    for (const ArenaSlab* slab = head; slab != nullptr; slab = slab->next) {
      if (slab->used == 0 && kept++ >= kArenaRefillSlabs) {
        out.push_back(slab);
      }
    }
  }
  return out;
}

void ThreadArena::DropSlab(PuddleArena* pa, int64_t offset) {
  Forget(pa, offset);
  pa->SetOwned(offset, false);
}

void ThreadArena::DropPuddleArena(PuddleArena* pa) {
  for (auto it = slabs_.begin(); it != slabs_.end();) {
    const ArenaSlab& slab = (it++)->second;  // Forget erases only this record.
    if (slab.pa == pa) {
      Forget(pa, slab.offset);
    }
  }
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [pa](const PendingFree& p) { return p.ref.pa == pa; }),
                 pending_.end());
  puddles_.erase(std::remove_if(puddles_.begin(), puddles_.end(),
                                [pa](const std::unique_ptr<PuddleArena>& p) {
                                  return p.get() == pa;
                                }),
                 puddles_.end());
}

void ThreadArena::Adopt(ThreadArena&& other) {
  for (auto& pa : other.puddles_) {
    puddles_.push_back(std::move(pa));
  }
  other.puddles_.clear();
  // Node handles move without reallocation, so the records keep their
  // addresses and their list links stay valid; append each class list.
  slabs_.merge(other.slabs_);
  for (size_t c = 0; c < kNumSlabClasses; ++c) {
    ArenaSlab* theirs = other.free_slabs_[c];
    if (theirs == nullptr) {
      continue;
    }
    theirs->prev = free_tails_[c];
    (free_tails_[c] != nullptr ? free_tails_[c]->next : free_slabs_[c]) = theirs;
    free_tails_[c] = other.free_tails_[c];
    other.free_slabs_[c] = nullptr;
    other.free_tails_[c] = nullptr;
  }
  for (const PendingFree& pending : other.pending_) {
    pending_.push_back(pending);
  }
  other.pending_.clear();
  free_count_ += other.free_count_;
  other.free_count_ = 0;
}

// ---- ArenaManager ----

namespace {

struct TlsEntry {
  ArenaManager* key;
  uint64_t id;
  std::weak_ptr<ArenaManager> manager;
  std::shared_ptr<ThreadArena> arena;
};

// Thread-exit handoff: when a thread dies, every arena it owns is handed to
// its manager's orphan list (if the manager is still alive) so a surviving
// thread can adopt and flush it.
struct TlsArenaMap {
  std::vector<TlsEntry> entries;
  ~TlsArenaMap() {
    for (auto& entry : entries) {
      if (auto manager = entry.manager.lock()) {
        manager->Orphan(std::move(entry.arena));
      }
    }
  }
};

thread_local TlsArenaMap tls_arenas;

std::atomic<uint64_t> next_manager_id{1};

}  // namespace

ArenaManager::ArenaManager() : id_(next_manager_id.fetch_add(1)) {}

ThreadArena* ArenaManager::Local() {
  auto& entries = tls_arenas.entries;
  // `this` is alive (we are running on it), so a matching (address, id) pair
  // is this manager's entry without touching the weak reference's count.
  for (TlsEntry& entry : entries) {
    if (entry.key == this && entry.id == id_) {
      return entry.arena.get();
    }
  }
  // Drop entries of destroyed managers before adding this one.
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [](const TlsEntry& e) { return e.manager.expired(); }),
                entries.end());
  auto arena = std::make_shared<ThreadArena>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_.push_back({arena, false});
  }
  entries.push_back({this, id_, weak_from_this(), arena});
  return arena.get();
}

void ArenaManager::PushRemoteFree(const Uuid& uuid, uint16_t tag, int64_t slot_offset,
                                  uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t gen = ClaimGenLocked(uuid, tag);
  if (gen == 0) {
    // No arena of this process ever claimed the tag: its directory entry
    // predates this open (OpenPool skipped the GC), so no arena here will
    // own the slab. Queued, the record would be requeued by every drain;
    // the slot stays allocated until a later open's GC decides by
    // reachability.
    return;
  }
  PUDDLES_COUNT(kArenaRemoteFree);
  remote_.push_back({uuid, tag, gen, slot_offset, epoch});
}

void ArenaManager::Requeue(const RemoteFree& rf) {
  std::lock_guard<std::mutex> lock(mu_);
  remote_.push_back(rf);
}

uint64_t ArenaManager::RegisterClaim(const Uuid& uuid, uint16_t tag) {
  std::lock_guard<std::mutex> lock(mu_);
  ++next_gen_;
  for (auto& claim : claims_) {
    if (claim.tag == tag && claim.uuid == uuid) {
      claim.gen = next_gen_;
      return next_gen_;
    }
  }
  claims_.push_back({uuid, tag, next_gen_});
  return next_gen_;
}

uint64_t ArenaManager::ClaimGenOf(const Uuid& uuid, uint16_t tag) {
  std::lock_guard<std::mutex> lock(mu_);
  return ClaimGenLocked(uuid, tag);
}

uint64_t ArenaManager::ClaimGenLocked(const Uuid& uuid, uint16_t tag) const {
  for (const auto& claim : claims_) {
    if (claim.tag == tag && claim.uuid == uuid) {
      return claim.gen;
    }
  }
  return 0;
}

std::vector<ArenaManager::RemoteFree> ArenaManager::DrainRemoteInto(ThreadArena* ta) {
  std::vector<RemoteFree> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queued.swap(remote_);
  }
  std::vector<RemoteFree> unowned;
  for (const RemoteFree& rf : queued) {
    if (!ta->AcceptRemoteFree(rf.uuid, rf.tag, rf.gen, rf.slot_offset, rf.epoch)) {
      unowned.push_back(rf);
    }
  }
  return unowned;
}

void ArenaManager::Orphan(std::shared_ptr<ThreadArena> arena) {
  std::lock_guard<std::mutex> lock(mu_);
  MarkOrphaned(arena.get());
  if (arena->puddles_.empty() && arena->pending_.empty()) {
    return;  // Nothing to hand over.
  }
  orphans_.push_back(std::move(arena));
}

void ArenaManager::AdoptOrphansInto(ThreadArena* ta) {
  std::vector<std::shared_ptr<ThreadArena>> taken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    taken.swap(orphans_);
  }
  for (auto& orphan : taken) {
    PUDDLES_COUNT(kArenaOrphanAdopt);
    ta->Adopt(std::move(*orphan));
  }
}

bool ArenaManager::HasOtherLiveArenas(const ThreadArena* exclude) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& reg : registry_) {
    if (reg.orphaned) {
      continue;
    }
    auto locked = reg.arena.lock();
    if (locked != nullptr && locked.get() != exclude) {
      return true;
    }
  }
  return false;
}

size_t ArenaManager::orphan_count() {
  std::lock_guard<std::mutex> lock(mu_);
  return orphans_.size();
}

size_t ArenaManager::queued_remote_frees() {
  std::lock_guard<std::mutex> lock(mu_);
  return remote_.size();
}

void ArenaManager::MarkOrphaned(const ThreadArena* arena) {
  for (auto& reg : registry_) {
    auto locked = reg.arena.lock();
    if (locked.get() == arena) {
      reg.orphaned = true;
    }
  }
}

}  // namespace puddles
