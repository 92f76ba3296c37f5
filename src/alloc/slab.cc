#include "src/alloc/slab.h"

#include <cstddef>
#include <cstring>

#include "src/common/align.h"
#include "src/stats/stats.h"

namespace puddles {

void SlabAllocator::FormatDirectory(SlabDirectory* dir) {
  dir->magic = kDirectoryMagic;
  for (auto& head : dir->partial_head) {
    head = -1;
  }
}

int SlabAllocator::ClassForSize(size_t total) {
  for (size_t i = 0; i < kNumSlabClasses; ++i) {
    if (total <= kSlabSlotSizes[i]) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void SlabAllocator::PushPartial(int class_index, int64_t slab_offset, Phase phase) {
  SlabHeader* slab = SlabAt(slab_offset);
  if (phase == Phase::kDeclare) {
    sink_.WillWrite(&slab->next_partial, sizeof(int64_t) * 2);
    if (dir_->partial_head[class_index] >= 0) {
      sink_.WillWrite(&SlabAt(dir_->partial_head[class_index])->prev_partial, sizeof(int64_t));
    }
    sink_.WillWrite(&dir_->partial_head[class_index], sizeof(int64_t));
    return;
  }
  slab->next_partial = dir_->partial_head[class_index];
  slab->prev_partial = -1;
  if (dir_->partial_head[class_index] >= 0) {
    SlabHeader* head = SlabAt(dir_->partial_head[class_index]);
    head->prev_partial = slab_offset;
  }
  dir_->partial_head[class_index] = slab_offset;
}

void SlabAllocator::RemovePartial(int class_index, int64_t slab_offset, Phase phase) {
  SlabHeader* slab = SlabAt(slab_offset);
  if (phase == Phase::kDeclare) {
    if (slab->prev_partial >= 0) {
      sink_.WillWrite(&SlabAt(slab->prev_partial)->next_partial, sizeof(int64_t));
    } else {
      sink_.WillWrite(&dir_->partial_head[class_index], sizeof(int64_t));
    }
    if (slab->next_partial >= 0) {
      sink_.WillWrite(&SlabAt(slab->next_partial)->prev_partial, sizeof(int64_t));
    }
    return;
  }
  if (slab->prev_partial >= 0) {
    SlabHeader* prev = SlabAt(slab->prev_partial);
    prev->next_partial = slab->next_partial;
  } else {
    dir_->partial_head[class_index] = slab->next_partial;
  }
  if (slab->next_partial >= 0) {
    SlabHeader* next = SlabAt(slab->next_partial);
    next->prev_partial = slab->prev_partial;
  }
}

puddles::Result<int64_t> SlabAllocator::Allocate(size_t total) {
  int class_index = ClassForSize(total);
  if (class_index < 0) {
    return InvalidArgumentError("slab allocation too large");
  }

  int64_t slab_offset = dir_->partial_head[class_index];
  const bool carved = slab_offset < 0;
  if (carved) {
    // No partial slab: carve a new one from the buddy allocator (which runs
    // its own declare/publish/apply group). The whole block is fresh to this
    // transaction — its old bytes are dead — so undo captures inside it are
    // elided and commit persists its new contents instead.
    ASSIGN_OR_RETURN(slab_offset, buddy_->Allocate(kSlabBlockSize));
    sink_.NoteFresh(SlabAt(slab_offset), kSlabBlockSize);
    PUDDLES_COUNT(kSlabCarve);
  }

  SlabHeader* slab = SlabAt(slab_offset);
  const int num_slots = carved ? static_cast<int>(SlotsPerSlab(class_index)) : slab->num_slots;
  // A carved slab always hands out slot 0; otherwise find the first clear
  // bit. Decided before the mutation group, since a carved header is not
  // readable until the apply pass initializes it.
  int slot = carved ? 0 : -1;
  for (int word = 0; word < 2 && slot < 0; ++word) {
    uint64_t bits = slab->bitmap[word];
    if (bits != ~0ULL) {
      int bit = __builtin_ctzll(~bits);
      int candidate = word * 64 + bit;
      if (candidate < num_slots) {
        slot = candidate;
      }
    }
  }
  if (slot < 0) {
    return InternalError("partial slab with no free slot");
  }
  const int used_after = (carved ? 0 : slab->used) + 1;
  const bool fills = used_after == num_slots;  // Never true when carved.

  for (Phase phase : {Phase::kDeclare, Phase::kApply}) {
    if (phase == Phase::kApply) {
      sink_.Publish();
    }
    if (carved) {
      if (phase == Phase::kDeclare) {
        sink_.WillWrite(slab, sizeof(SlabHeader));  // Elided: fresh block.
      } else {
        std::memset(slab, 0, sizeof(SlabHeader));
        slab->magic = kSlabMagic;
        slab->class_index = static_cast<uint16_t>(class_index);
        slab->num_slots = static_cast<uint16_t>(num_slots);
        slab->next_partial = -1;
        slab->prev_partial = -1;
      }
      PushPartial(class_index, slab_offset, phase);
    }
    if (phase == Phase::kDeclare) {
      sink_.WillWrite(&slab->bitmap[slot / 64], sizeof(uint64_t));
      sink_.WillWrite(&slab->used, sizeof(slab->used));
    } else {
      slab->bitmap[slot / 64] |= 1ULL << (slot % 64);
      slab->used++;
    }
    if (fills) {
      RemovePartial(class_index, slab_offset, phase);
      if (phase == Phase::kDeclare) {
        sink_.WillWrite(&slab->next_partial, sizeof(int64_t) * 2);
      } else {
        slab->next_partial = -1;
        slab->prev_partial = -1;
      }
    }
  }
  PUDDLES_COUNT(kSlabAlloc);
  return slab_offset + static_cast<int64_t>(sizeof(SlabHeader)) +
         static_cast<int64_t>(slot) * kSlabSlotSizes[class_index];
}

puddles::Status SlabAllocator::Free(int64_t slot_offset) {
  const int64_t slab_offset = static_cast<int64_t>(
      AlignDown(static_cast<uint64_t>(slot_offset), kSlabBlockSize));
  SlabHeader* slab = SlabAt(slab_offset);
  if (slab->magic != kSlabMagic) {
    return FailedPreconditionError("slab free: offset not inside a slab");
  }
  if (slab->arena_slot != 0) {
    // Arena-owned slab: the persistent bitmap is stale shadow of the owning
    // thread's volatile state — a logged bitmap free here would corrupt both
    // views. Arena frees are volatile (docs/alloc.md); route through the pool.
    return FailedPreconditionError("slab free: slot belongs to a per-thread arena");
  }
  const int class_index = slab->class_index;
  const int64_t slot_area = slot_offset - slab_offset - static_cast<int64_t>(sizeof(SlabHeader));
  if (slot_area < 0 || slot_area % kSlabSlotSizes[class_index] != 0) {
    return InvalidArgumentError("slab free: misaligned slot offset");
  }
  const int slot = static_cast<int>(slot_area / kSlabSlotSizes[class_index]);
  if (slot >= slab->num_slots ||
      (slab->bitmap[slot / 64] & (1ULL << (slot % 64))) == 0) {
    return FailedPreconditionError("slab free: slot not allocated");
  }

  const bool was_full = slab->used == slab->num_slots;
  const bool empties = slab->used == 1;

  for (Phase phase : {Phase::kDeclare, Phase::kApply}) {
    if (phase == Phase::kApply) {
      sink_.Publish();
    }
    if (phase == Phase::kDeclare) {
      sink_.WillWrite(&slab->bitmap[slot / 64], sizeof(uint64_t));
      sink_.WillWrite(&slab->used, sizeof(slab->used));
    } else {
      slab->bitmap[slot / 64] &= ~(1ULL << (slot % 64));
      slab->used--;
    }
    if (empties) {
      if (!was_full) {
        RemovePartial(class_index, slab_offset, phase);
      }
      if (phase == Phase::kDeclare) {
        sink_.WillWrite(&slab->magic, sizeof(slab->magic));
      } else {
        slab->magic = 0;
      }
    } else if (was_full) {
      PushPartial(class_index, slab_offset, phase);
    }
  }
  PUDDLES_COUNT(kSlabFree);
  if (empties) {
    // Return the whole slab to the buddy allocator (its own group).
    PUDDLES_COUNT(kSlabRetire);
    return buddy_->Free(slab_offset);
  }
  return OkStatus();
}

puddles::Result<int64_t> SlabAllocator::CarveArenaSlab(int class_index, uint16_t arena_slot,
                                                       int64_t arena_next) {
  if (class_index < 0 || static_cast<size_t>(class_index) >= kNumSlabClasses) {
    return InvalidArgumentError("arena carve: bad class index");
  }
  if (arena_slot == 0) {
    return InvalidArgumentError("arena carve: arena tag must be nonzero");
  }
  ASSIGN_OR_RETURN(const int64_t slab_offset, buddy_->Allocate(kSlabBlockSize));
  SlabHeader* slab = SlabAt(slab_offset);
  // Fresh block: old bytes are dead, so the header write below is a declared
  // range that commit persists as new contents rather than undo-capturing.
  sink_.NoteFresh(slab, kSlabBlockSize);
  PUDDLES_COUNT(kSlabCarve);

  for (Phase phase : {Phase::kDeclare, Phase::kApply}) {
    if (phase == Phase::kApply) {
      sink_.Publish();
    }
    if (phase == Phase::kDeclare) {
      sink_.WillWrite(slab, sizeof(SlabHeader));  // Elided: fresh block.
    } else {
      std::memset(slab, 0, sizeof(SlabHeader));
      slab->magic = kSlabMagic;
      slab->class_index = static_cast<uint16_t>(class_index);
      slab->num_slots = static_cast<uint16_t>(SlotsPerSlab(class_index));
      slab->arena_slot = arena_slot;
      slab->next_partial = -1;
      slab->prev_partial = -1;
      slab->arena_next = arena_next;
    }
  }
  return slab_offset;
}

puddles::Result<int64_t> SlabAllocator::AdoptPartialForArena(int class_index,
                                                             uint16_t arena_slot,
                                                             int64_t arena_next) {
  if (class_index < 0 || static_cast<size_t>(class_index) >= kNumSlabClasses) {
    return InvalidArgumentError("arena adopt: bad class index");
  }
  if (arena_slot == 0) {
    return InvalidArgumentError("arena adopt: arena tag must be nonzero");
  }
  const int64_t slab_offset = dir_->partial_head[class_index];
  if (slab_offset < 0) {
    return static_cast<int64_t>(-1);
  }
  SlabHeader* slab = SlabAt(slab_offset);
  if (slab->magic != kSlabMagic || slab->class_index != class_index) {
    return DataLossError("arena adopt: partial head corrupt");
  }

  for (Phase phase : {Phase::kDeclare, Phase::kApply}) {
    if (phase == Phase::kApply) {
      sink_.Publish();
    }
    RemovePartial(class_index, slab_offset, phase);
    if (phase == Phase::kDeclare) {
      sink_.WillWrite(&slab->arena_slot, sizeof(slab->arena_slot));
      sink_.WillWrite(&slab->next_partial, sizeof(int64_t) * 2);
      sink_.WillWrite(&slab->arena_next, sizeof(slab->arena_next));
    } else {
      slab->arena_slot = arena_slot;
      slab->next_partial = -1;
      slab->prev_partial = -1;
      slab->arena_next = arena_next;
    }
  }
  return slab_offset;
}

puddles::Status SlabAllocator::ReleaseArenaSlab(int64_t slab_offset,
                                                const uint64_t bitmap[2], uint16_t used) {
  SlabHeader* slab = SlabAt(slab_offset);
  if (slab->magic != kSlabMagic) {
    return FailedPreconditionError("arena release: not a slab");
  }
  if (slab->arena_slot == 0) {
    return FailedPreconditionError("arena release: slab not arena-owned");
  }
  const int class_index = slab->class_index;
  const int popcount = __builtin_popcountll(bitmap[0]) + __builtin_popcountll(bitmap[1]);
  if (popcount != used || used > slab->num_slots) {
    return InvalidArgumentError("arena release: occupancy does not match bitmap");
  }
  const bool empties = used == 0;
  const bool full = used == slab->num_slots;

  for (Phase phase : {Phase::kDeclare, Phase::kApply}) {
    if (phase == Phase::kApply) {
      sink_.Publish();
    }
    if (phase == Phase::kDeclare) {
      // One capture from `used` through `arena_next` covers every header
      // field the release writes (and the partial links PushPartial sets).
      sink_.WillWrite(&slab->used, offsetof(SlabHeader, arena_next) + sizeof(slab->arena_next) -
                                       offsetof(SlabHeader, used));
    } else {
      slab->bitmap[0] = bitmap[0];
      slab->bitmap[1] = bitmap[1];
      slab->used = used;
      slab->arena_slot = 0;
      slab->arena_next = 0;
    }
    if (empties) {
      if (phase == Phase::kDeclare) {
        sink_.WillWrite(&slab->magic, sizeof(slab->magic));
      } else {
        slab->magic = 0;
      }
    } else if (!full) {
      PushPartial(class_index, slab_offset, phase);
    }
  }
  if (empties) {
    PUDDLES_COUNT(kSlabRetire);
    return buddy_->Free(slab_offset);
  }
  return OkStatus();
}

bool SlabAllocator::IsSlabBlock(int64_t block_offset) const {
  if (buddy_->BlockSize(block_offset) != kSlabBlockSize) {
    return false;
  }
  return SlabAt(block_offset)->magic == kSlabMagic;
}

void SlabAllocator::ForEachSlot(int64_t block_offset,
                                const std::function<void(int64_t, size_t)>& fn) const {
  const SlabHeader* slab = SlabAt(block_offset);
  const size_t slot_size = kSlabSlotSizes[slab->class_index];
  // Arena-owned slab: the persistent bitmap is stale, so every slot is a
  // candidate and the caller's object-magic check decides liveness.
  const bool enumerate_all = slab->arena_slot != 0;
  for (int slot = 0; slot < slab->num_slots; ++slot) {
    if (enumerate_all || (slab->bitmap[slot / 64] & (1ULL << (slot % 64)))) {
      fn(block_offset + static_cast<int64_t>(sizeof(SlabHeader)) +
             static_cast<int64_t>(slot) * static_cast<int64_t>(slot_size),
         slot_size);
    }
  }
}

puddles::Status SlabAllocator::Validate() const {
  if (dir_->magic != kDirectoryMagic) {
    return DataLossError("slab directory magic mismatch");
  }
  // Every slab names a real class and that class's slot count, so
  // ForEachSlot stays inside its block.
  puddles::Status status = OkStatus();
  buddy_->ForEachAllocated([&](int64_t offset, size_t) {
    if (status.ok() && IsSlabBlock(offset)) {
      const SlabHeader* slab = SlabAt(offset);
      if (slab->class_index >= kNumSlabClasses ||
          slab->num_slots != SlotsPerSlab(slab->class_index)) {
        status = DataLossError("slab header names no slab class");
      }
    }
  });
  RETURN_IF_ERROR(status);
  for (size_t cls = 0; cls < kNumSlabClasses; ++cls) {
    int64_t prev = -1;
    size_t guard = buddy_->heap_size() / kSlabBlockSize + 1;
    for (int64_t off = dir_->partial_head[cls]; off >= 0;) {
      if (guard-- == 0) {
        return DataLossError("slab partial list cycle");
      }
      if (!IsSlabBlock(off)) {
        return DataLossError("slab partial list names no slab block");
      }
      const SlabHeader* slab = SlabAt(off);
      if (slab->class_index != cls) {
        return DataLossError("slab partial list node corrupt");
      }
      if (slab->arena_slot != 0) {
        return DataLossError("arena-owned slab on global partial list");
      }
      if (slab->used >= slab->num_slots) {
        return DataLossError("full slab on partial list");
      }
      if (slab->prev_partial != prev) {
        return DataLossError("slab partial back-link mismatch");
      }
      int popcount = __builtin_popcountll(slab->bitmap[0]) +
                     __builtin_popcountll(slab->bitmap[1]);
      if (popcount != slab->used) {
        return DataLossError("slab used count does not match bitmap");
      }
      prev = off;
      off = slab->next_partial;
    }
  }
  return OkStatus();
}

}  // namespace puddles
