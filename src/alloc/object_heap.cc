#include "src/alloc/object_heap.h"

#include <cstring>

#include "src/common/align.h"
#include "src/stats/stats.h"

namespace puddles {

size_t ObjectHeap::MetaSize(size_t heap_size) {
  return sizeof(Meta) + BuddyAllocator::MetaSize(heap_size);
}

puddles::Status ObjectHeap::Format(void* meta, void* heap, size_t heap_size) {
  auto* m = static_cast<Meta*>(meta);
  m->magic = kMetaMagic;
  m->heap_size = heap_size;
  SlabAllocator::FormatDirectory(&m->slab_dir);
  FormatArenaDirectory(&m->arena_dir);
  return BuddyAllocator::Format(m + 1, heap, heap_size);
}

puddles::Result<ObjectHeap> ObjectHeap::Attach(void* meta, void* heap, size_t heap_size,
                                               LogSink sink) {
  auto* m = static_cast<Meta*>(meta);
  if (m->magic != kMetaMagic) {
    return DataLossError("object heap metadata magic mismatch");
  }
  if (m->heap_size != heap_size) {
    return DataLossError("object heap size mismatch");
  }
  ASSIGN_OR_RETURN(BuddyAllocator buddy, BuddyAllocator::Attach(m + 1, heap, heap_size, sink));
  return ObjectHeap(m, std::move(buddy), sink);
}

puddles::Result<void*> ObjectHeap::Allocate(size_t payload_size, TypeId type_id) {
  if (payload_size == 0) {
    return InvalidArgumentError("zero-size allocation");
  }
  const size_t total = payload_size + sizeof(ObjectHeader);
  int64_t offset;
  if (total <= kMaxSlabSlot) {
    SlabAllocator slab = Slab();
    ASSIGN_OR_RETURN(offset, slab.Allocate(total));
  } else {
    ASSIGN_OR_RETURN(offset, buddy_.Allocate(total));
  }
  auto* header = reinterpret_cast<ObjectHeader*>(static_cast<uint8_t*>(buddy_.heap()) + offset);
  // The slot/block is fresh to this transaction: a rollback frees it via the
  // allocator-metadata entries and the bytes become unreachable, and commit
  // stage 1 persists the new contents. Noting the fresh range FIRST makes
  // the header declaration below a free elision for the transaction sink —
  // while sinks without a fresh channel (the baselines persist eagerly and
  // flush their logged ranges at their own commit) still capture and persist
  // the header through the ordinary WillWrite path.
  sink_.NoteFresh(header, total);
  sink_.WillWrite(header, sizeof(ObjectHeader));
  sink_.Publish();
  header->magic = kObjectMagic;
  header->size = static_cast<uint32_t>(payload_size);
  header->type_id = type_id;
  PUDDLES_COUNT_N(kAllocBytes, total);
  return static_cast<void*>(header + 1);
}

const ObjectHeader* ObjectHeap::HeaderOf(const void* payload) const {
  if (!InHeap(payload)) {
    return nullptr;
  }
  const auto* header = static_cast<const ObjectHeader*>(payload) - 1;
  if (!InHeap(header) || header->magic != kObjectMagic) {
    return nullptr;
  }
  return header;
}

bool ObjectHeap::IsLiveObject(const void* payload) const {
  const ObjectHeader* header = HeaderOf(payload);
  if (header == nullptr) {
    return false;
  }
  const int64_t header_off = OffsetOf(header);
  if (buddy_.IsAllocatedStart(header_off)) {
    return !Slab().IsSlabBlock(header_off);
  }
  // Must be a slot of a live slab.
  const int64_t slab_off =
      static_cast<int64_t>(AlignDown(static_cast<uint64_t>(header_off), kSlabBlockSize));
  return Slab().IsSlabBlock(slab_off);
}

size_t ObjectHeap::CapacityOf(const void* payload) const {
  const auto* header = static_cast<const ObjectHeader*>(payload) - 1;
  if (!InHeap(header)) {
    return 0;
  }
  const int64_t header_off = OffsetOf(header);
  const SlabAllocator slabs = Slab();
  if (const size_t block = buddy_.BlockSize(header_off); block != 0) {
    // Slab slots never start a block: a block start is a buddy object's.
    return slabs.IsSlabBlock(header_off) ? 0 : block - sizeof(ObjectHeader);
  }
  const int64_t slab_off =
      static_cast<int64_t>(AlignDown(static_cast<uint64_t>(header_off), kSlabBlockSize));
  if (!slabs.IsSlabBlock(slab_off)) {
    return 0;
  }
  const auto* slab = reinterpret_cast<const SlabHeader*>(AtOffset(slab_off));
  if (slab->class_index >= kNumSlabClasses) {
    return 0;
  }
  const int64_t first_slot = slab_off + static_cast<int64_t>(sizeof(SlabHeader));
  if (header_off < first_slot) {
    return 0;
  }
  const uint64_t slot_size = kSlabSlotSizes[slab->class_index];
  const auto into = static_cast<uint64_t>(header_off - first_slot);
  if (into % slot_size != 0 || into / slot_size >= slab->num_slots) {
    return 0;
  }
  return slot_size - sizeof(ObjectHeader);
}

uint16_t ObjectHeap::ArenaTagOf(const void* payload) const {
  const auto* header = static_cast<const ObjectHeader*>(payload) - 1;
  if (!InHeap(header)) {
    return 0;
  }
  const int64_t header_off = OffsetOf(header);
  if (buddy_.IsAllocatedStart(header_off)) {
    return 0;  // Buddy-backed object (slab slots never start a block).
  }
  const int64_t slab_off =
      static_cast<int64_t>(AlignDown(static_cast<uint64_t>(header_off), kSlabBlockSize));
  if (!Slab().IsSlabBlock(slab_off)) {
    return 0;
  }
  return reinterpret_cast<const SlabHeader*>(static_cast<uint8_t*>(buddy_.heap()) +
                                             slab_off)
      ->arena_slot;
}

puddles::Status ObjectHeap::Free(void* payload) {
  auto* header = static_cast<ObjectHeader*>(payload) - 1;
  if (!InHeap(header) || header->magic != kObjectMagic) {
    return FailedPreconditionError("free: not a live object");
  }
  if (ArenaTagOf(payload) != 0) {
    // Checked before the magic-clear group: the arena slab's bitmap is stale,
    // so a logged free here would corrupt it. The pool routes these through
    // the owning thread's volatile free list instead.
    return FailedPreconditionError("free: object belongs to a per-thread arena");
  }
  const int64_t offset = OffsetOf(header);
  // Own declare/publish/store group: the magic must be cleared before the
  // block returns to the allocator (a buddy free overwrites the header area
  // with its free-list node), so it cannot ride the allocator's group.
  sink_.WillWrite(&header->magic, sizeof(header->magic));
  sink_.Publish();
  PUDDLES_COUNT_N(kFreeBytes, sizeof(ObjectHeader) + header->size);
  header->magic = 0;
  if (buddy_.IsAllocatedStart(offset)) {
    return buddy_.Free(offset);
  }
  return Slab().Free(offset);
}

void ObjectHeap::ForEachObject(
    const std::function<void(void*, const ObjectHeader&, size_t)>& fn) const {
  auto* heap = static_cast<uint8_t*>(buddy_.heap());
  SlabAllocator slab = Slab();
  buddy_.ForEachAllocated([&](int64_t offset, size_t size) {
    if (slab.IsSlabBlock(offset)) {
      slab.ForEachSlot(offset, [&](int64_t slot_offset, size_t slot_size) {
        auto* header = reinterpret_cast<ObjectHeader*>(heap + slot_offset);
        if (header->magic == kObjectMagic) {
          fn(header + 1, *header, slot_size - sizeof(ObjectHeader));
        }
      });
      return;
    }
    auto* header = reinterpret_cast<ObjectHeader*>(heap + offset);
    if (header->magic == kObjectMagic) {
      fn(header + 1, *header, size - sizeof(ObjectHeader));
    }
  });
}

puddles::Status ObjectHeap::Validate() const {
  RETURN_IF_ERROR(buddy_.Validate());
  RETURN_IF_ERROR(Slab().Validate());
  // Every discovered object header must be well-formed and sized within its
  // containing block.
  puddles::Status status = OkStatus();
  ForEachObject([&](void* payload, const ObjectHeader& header, size_t capacity) {
    if (!status.ok()) {
      return;
    }
    if (header.size == 0) {
      status = DataLossError("object with zero size");
    }
    if (header.size > capacity) {
      status = DataLossError("object size exceeds its slot/block capacity");
    }
    if (!InHeap(static_cast<uint8_t*>(payload) + header.size - 1)) {
      status = DataLossError("object extends past heap end");
    }
  });
  return status;
}

}  // namespace puddles
