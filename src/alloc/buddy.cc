#include "src/alloc/buddy.h"

#include <algorithm>
#include <cstring>

#include "src/common/align.h"
#include "src/common/bug_hooks.h"
#include "src/stats/stats.h"

namespace puddles {

size_t BuddyAllocator::MetaSize(size_t heap_size) {
  return sizeof(Header) + (heap_size >> kMinBlockLog2);
}

uint32_t BuddyAllocator::OrderForSize(size_t size) {
  if (size <= kMinBlockSize) {
    return 0;
  }
  return static_cast<uint32_t>(Log2Ceil(size)) - kMinBlockLog2;
}

puddles::Status BuddyAllocator::Format(void* meta, void* heap, size_t heap_size) {
  if (!IsPowerOfTwo(heap_size) || heap_size < kMinBlockSize) {
    return InvalidArgumentError("buddy heap size must be a power of two >= 256");
  }
  auto* header = static_cast<Header*>(meta);
  auto* state = reinterpret_cast<uint8_t*>(header + 1);
  const size_t num_blocks = heap_size >> kMinBlockLog2;
  const uint32_t num_orders = NumOrdersFor(heap_size);
  if (num_orders > kMaxOrders) {
    return InvalidArgumentError("buddy heap too large");
  }

  header->magic = kMetaMagic;
  header->heap_size = heap_size;
  header->num_orders = num_orders;
  header->reserved = 0;
  header->free_bytes = heap_size;
  for (auto& head : header->free_head) {
    head = -1;
  }
  std::memset(state, kStateInterior, num_blocks);

  // The whole heap starts as one free block of the top order.
  state[0] = kStateFreeStart;
  auto* node = reinterpret_cast<FreeNode*>(heap);
  node->next = -1;
  node->prev = -1;
  node->order = num_orders - 1;
  node->check = ~node->order;
  header->free_head[num_orders - 1] = 0;
  return OkStatus();
}

puddles::Result<BuddyAllocator> BuddyAllocator::Attach(void* meta, void* heap, size_t heap_size,
                                                       LogSink sink) {
  auto* header = static_cast<Header*>(meta);
  if (header->magic != kMetaMagic) {
    return DataLossError("buddy metadata magic mismatch");
  }
  if (header->heap_size != heap_size) {
    return DataLossError("buddy heap size mismatch");
  }
  auto* state = reinterpret_cast<uint8_t*>(header + 1);
  return BuddyAllocator(header, state, static_cast<uint8_t*>(heap), heap_size, sink);
}

void BuddyAllocator::SetState(size_t index, uint8_t value, Phase phase) {
  if (phase == Phase::kDeclare) {
    sink_.WillWrite(&state_[index], 1);
    return;
  }
  state_[index] = value;
}

void BuddyAllocator::SetFreeBytes(uint64_t value, Phase phase) {
  if (phase == Phase::kDeclare) {
    sink_.WillWrite(&header_->free_bytes, sizeof(header_->free_bytes));
    return;
  }
  header_->free_bytes = value;
}

void BuddyAllocator::PushFree(int64_t offset, uint32_t order, Phase phase) {
  FreeNode* node = NodeAt(offset);
  if (phase == Phase::kDeclare) {
    sink_.WillWrite(node, sizeof(FreeNode));
    if (header_->free_head[order] >= 0) {
      sink_.WillWrite(&NodeAt(header_->free_head[order])->prev, sizeof(int64_t));
    }
    sink_.WillWrite(&header_->free_head[order], sizeof(int64_t));
    return;
  }
  node->next = header_->free_head[order];
  node->prev = -1;
  node->order = order;
  node->check = ~order;
  if (header_->free_head[order] >= 0) {
    FreeNode* head = NodeAt(header_->free_head[order]);
    head->prev = offset;
  }
  header_->free_head[order] = offset;
}

void BuddyAllocator::RemoveFree(int64_t offset, uint32_t order, Phase phase) {
  FreeNode* node = NodeAt(offset);
  if (phase == Phase::kDeclare) {
    if (node->prev >= 0) {
      sink_.WillWrite(&NodeAt(node->prev)->next, sizeof(int64_t));
    } else {
      sink_.WillWrite(&header_->free_head[order], sizeof(int64_t));
    }
    if (node->next >= 0) {
      sink_.WillWrite(&NodeAt(node->next)->prev, sizeof(int64_t));
    }
    return;
  }
  if (node->prev >= 0) {
    FreeNode* prev = NodeAt(node->prev);
    prev->next = node->next;
  } else {
    header_->free_head[order] = node->next;
  }
  if (node->next >= 0) {
    FreeNode* next = NodeAt(node->next);
    next->prev = node->prev;
  }
}

puddles::Result<int64_t> BuddyAllocator::Allocate(size_t size) {
  if (size == 0 || size > heap_size_) {
    return InvalidArgumentError("buddy allocation size out of range");
  }
  const uint32_t want = OrderForSize(size);
  uint32_t start_order = want;
  while (start_order < header_->num_orders && header_->free_head[start_order] < 0) {
    ++start_order;
  }
  if (start_order >= header_->num_orders) {
    return OutOfMemoryError("buddy heap exhausted");
  }

  const int64_t offset = header_->free_head[start_order];

  // The popped head must look like a free node of this order before anything
  // dereferences its links. A free list chained through caller data (the
  // reachable-after-rollback hole the protective capture below closes) fails
  // here as a contained DataLossError instead of a wild pointer chase.
  const FreeNode* head = NodeAt(offset);
  if (head->order != start_order || head->check != ~start_order || head->prev != -1 ||
      head->next < -1 ||
      (head->next >= 0 &&
       (static_cast<size_t>(head->next) + sizeof(FreeNode) > heap_size_ ||
        !IsAligned(static_cast<uint64_t>(head->next), kMinBlockSize)))) {
    return DataLossError("buddy free list corrupt at head");
  }

  // Two passes over the same sequence: declare every touched range, publish
  // the whole group under one fence, then store. The splits push at strictly
  // descending orders while the removal touched only start_order's list, so
  // no apply-phase store changes a value a later step (in either phase)
  // reads.
  for (Phase phase : {Phase::kDeclare, Phase::kApply}) {
    if (phase == Phase::kApply) {
      sink_.Publish();
    }
    RemoveFree(offset, start_order, phase);
    if (phase == Phase::kDeclare &&
        !bug_hooks::buddy_skip_protective_capture.load(std::memory_order_relaxed)) {
      // Protective capture of the returned block's free-list node: if the
      // transaction rolls back, this block is free again and free_head points
      // at these bytes — but the caller may legitimately overwrite them (a
      // slab header or object header lands at the block start) with the
      // overwrite elided as a fresh-range store. The node content is
      // reachable-after-rollback state, so the allocator owns its capture.
      sink_.WillWrite(NodeAt(offset), sizeof(FreeNode));
    }
    uint32_t order = start_order;
    while (order > want) {
      --order;
      int64_t buddy = offset + static_cast<int64_t>(OrderSize(order));
      SetState(BlockIndex(buddy), kStateFreeStart, phase);
      PushFree(buddy, order, phase);
    }
    SetState(BlockIndex(offset), static_cast<uint8_t>(want), phase);
    SetFreeBytes(header_->free_bytes - OrderSize(want), phase);
  }
  PUDDLES_COUNT(kBuddyAlloc);
  return offset;
}

puddles::Status BuddyAllocator::Free(int64_t offset) {
  if (offset < 0 || static_cast<size_t>(offset) >= heap_size_ ||
      !IsAligned(static_cast<uint64_t>(offset), kMinBlockSize)) {
    return InvalidArgumentError("buddy free: bad offset");
  }
  uint8_t state = state_[BlockIndex(offset)];
  if (state >= kStateFreeStart) {
    return FailedPreconditionError("buddy free: not an allocated block start");
  }
  const uint32_t start_order = state;
  const int64_t start_offset = offset;
  const size_t freed = OrderSize(start_order);

  // Coalesce with free buddies as far up as possible. The merge decisions
  // read state bytes and free-node fields of blocks outside the growing
  // block, which the apply pass never stores to before reading, so both
  // passes walk the identical merge sequence.
  for (Phase phase : {Phase::kDeclare, Phase::kApply}) {
    if (phase == Phase::kApply) {
      sink_.Publish();
    }
    uint32_t order = start_order;
    offset = start_offset;
    while (order + 1 < header_->num_orders) {
      int64_t buddy = offset ^ static_cast<int64_t>(OrderSize(order));
      // A cut heap (CutAt) ends at a page, not at a top-order block:
      // never merge with a buddy that would reach past its end.
      if (static_cast<size_t>(buddy) + OrderSize(order) > heap_size_) {
        break;
      }
      if (state_[BlockIndex(buddy)] != kStateFreeStart) {
        break;
      }
      FreeNode* buddy_node = NodeAt(buddy);
      if (buddy_node->order != order || buddy_node->check != ~order) {
        break;
      }
      RemoveFree(buddy, order, phase);
      int64_t upper = offset > buddy ? offset : buddy;
      SetState(BlockIndex(upper), kStateInterior, phase);
      offset = offset < buddy ? offset : buddy;
      ++order;
    }
    SetState(BlockIndex(offset), kStateFreeStart, phase);
    PushFree(offset, order, phase);
    SetFreeBytes(header_->free_bytes + freed, phase);
  }
  PUDDLES_COUNT(kBuddyFree);
  return OkStatus();
}

size_t BuddyAllocator::BlockSize(int64_t offset) const {
  if (offset < 0 || static_cast<size_t>(offset) >= heap_size_ ||
      !IsAligned(static_cast<uint64_t>(offset), kMinBlockSize)) {
    return 0;
  }
  uint8_t state = state_[BlockIndex(offset)];
  if (state >= kStateFreeStart) {
    return 0;
  }
  return OrderSize(state);
}

bool BuddyAllocator::IsAllocatedStart(int64_t offset) const { return BlockSize(offset) != 0; }

uint64_t BuddyAllocator::free_bytes() const { return header_->free_bytes; }

bool BuddyAllocator::CanAllocate(size_t size) const {
  if (size == 0 || size > heap_size_) {
    return false;
  }
  for (uint32_t order = OrderForSize(size); order < header_->num_orders; ++order) {
    if (header_->free_head[order] >= 0) {
      return true;
    }
  }
  return false;
}

void BuddyAllocator::ForEachAllocated(const std::function<void(int64_t, size_t)>& fn) const {
  const size_t num_blocks = NumBlocks();
  for (size_t i = 0; i < num_blocks;) {
    uint8_t state = state_[i];
    if (state < kStateFreeStart) {
      const size_t size = OrderSize(state);
      fn(static_cast<int64_t>(i << kMinBlockLog2), size);
      i += size >> kMinBlockLog2;
    } else if (state == kStateFreeStart) {
      FreeNode* node = NodeAt(static_cast<int64_t>(i << kMinBlockLog2));
      i += OrderSize(node->order) >> kMinBlockLog2;
    } else {
      ++i;  // Interior byte outside any block start: skip (shouldn't happen).
    }
  }
}

puddles::Result<size_t> BuddyAllocator::TailCut(size_t granule) const {
  // ForEachAllocated follows block orders: walk only a heap whose metadata
  // holds together.
  RETURN_IF_ERROR(Validate());
  size_t used_end = 0;
  ForEachAllocated([&](int64_t offset, size_t size) { used_end = offset + size; });
  return std::min(std::max<size_t>(AlignUp(used_end, granule), granule), heap_size_);
}

puddles::Status BuddyAllocator::CutAt(size_t cut) {
  if (cut < kMinBlockSize || cut % kMinBlockSize != 0 || cut > heap_size_) {
    return InvalidArgumentError("buddy cut: not a block boundary inside the heap");
  }
  // One walk over the blocks that start below the cut, in address order,
  // pushes every free one back, so each list ends at its lowest block. Of a
  // free block that straddles the cut only its binary pieces below it
  // return, largest first: each piece is aligned to its size, since the
  // block was aligned to a larger one.
  const uint32_t num_orders = header_->num_orders;
  for (int64_t& head : header_->free_head) {
    head = -1;
  }
  uint64_t free_bytes = 0;
  for (size_t i = 0; i < (cut >> kMinBlockLog2);) {
    const auto offset = static_cast<size_t>(i << kMinBlockLog2);
    const bool is_free = state_[i] == kStateFreeStart;
    const uint32_t order = is_free ? NodeAt(static_cast<int64_t>(offset))->order : state_[i];
    if (state_[i] == kStateInterior || order >= num_orders) {
      return DataLossError("buddy cut: no block starts at a block boundary");
    }
    const size_t size = OrderSize(order);
    i += size >> kMinBlockLog2;
    if (!is_free) {
      if (offset + size > cut) {
        return DataLossError("buddy cut: an allocated block crosses the cut");
      }
      continue;
    }
    const size_t end = std::min(offset + size, cut);
    for (size_t piece = offset; piece < end;) {
      const auto piece_order = static_cast<uint32_t>(Log2Floor(end - piece)) - kMinBlockLog2;
      state_[BlockIndex(static_cast<int64_t>(piece))] = kStateFreeStart;
      PushFree(static_cast<int64_t>(piece), piece_order, Phase::kApply);
      free_bytes += OrderSize(piece_order);
      piece += OrderSize(piece_order);
    }
  }
  header_->free_bytes = free_bytes;
  heap_size_ = cut;
  header_->heap_size = cut;
  header_->num_orders = NumOrdersFor(cut);
  return Validate();
}

puddles::Status BuddyAllocator::Validate() const {
  if (header_->magic != kMetaMagic) {
    return DataLossError("validate: bad magic");
  }
  // Checked before anything indexes free_head or shifts by an order: the
  // metadata may come from an untrusted copy (import, §4.6).
  if (heap_size_ < kMinBlockSize || heap_size_ % kMinBlockSize != 0 ||
      NumOrdersFor(heap_size_) > kMaxOrders || header_->num_orders != NumOrdersFor(heap_size_)) {
    return DataLossError("validate: heap geometry does not match its order count");
  }
  // Walk free lists; each node's state byte must agree, and each block must
  // lie inside the heap, aligned to its size.
  uint64_t free_from_lists = 0;
  for (uint32_t order = 0; order < kMaxOrders; ++order) {
    if (order >= header_->num_orders && header_->free_head[order] != -1) {
      return DataLossError("validate: free list above the top order");
    }
    int64_t prev = -1;
    size_t guard = NumBlocks() + 1;
    for (int64_t off = header_->free_head[order]; off >= 0;) {
      if (guard-- == 0) {
        return DataLossError("validate: free list cycle");
      }
      if (off % OrderSize(order) != 0 || off + OrderSize(order) > heap_size_) {
        return DataLossError("validate: free block misaligned or past the heap end");
      }
      if (state_[BlockIndex(off)] != kStateFreeStart) {
        return DataLossError("validate: free node without free state byte");
      }
      FreeNode* node = NodeAt(off);
      if (node->order != order || node->check != ~order) {
        return DataLossError("validate: free node order mismatch");
      }
      if (node->prev != prev || node->next < -1) {
        return DataLossError("validate: free list link mismatch");
      }
      free_from_lists += OrderSize(order);
      prev = off;
      off = node->next;
    }
  }
  if (free_from_lists != header_->free_bytes) {
    return DataLossError("validate: free byte accounting mismatch");
  }
  // Walk state bytes; starts must tile the heap exactly, each block aligned
  // to its size, and the free ones must be exactly the listed ones.
  uint64_t free_in_tiling = 0;
  for (size_t i = 0; i < NumBlocks();) {
    const uint8_t state = state_[i];
    if (state == kStateInterior) {
      return DataLossError("validate: interior byte at block boundary");
    }
    const uint32_t order =
        state == kStateFreeStart ? NodeAt(static_cast<int64_t>(i << kMinBlockLog2))->order : state;
    if (order >= header_->num_orders) {
      return DataLossError("validate: block order above the top order");
    }
    const size_t span = OrderSize(order) >> kMinBlockLog2;
    if (i % span != 0 || span > NumBlocks() - i) {
      return DataLossError("validate: block misaligned or past the heap end");
    }
    for (size_t j = 1; j < span; ++j) {
      if (state_[i + j] != kStateInterior) {
        return DataLossError("validate: block interior not marked interior");
      }
    }
    if (state == kStateFreeStart) {
      free_in_tiling += span << kMinBlockLog2;
    }
    i += span;
  }
  if (free_in_tiling != free_from_lists) {
    return DataLossError("validate: free block missing from its list");
  }
  return OkStatus();
}

}  // namespace puddles
