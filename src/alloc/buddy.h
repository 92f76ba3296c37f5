// Per-puddle buddy allocator (paper §4.5: "Large allocations are allocated
// from a per-puddle buddy allocator").
//
// Format makes a power-of-two heap; CutAt may later cut an export's copy to
// any multiple of a page. All of its state lives in two
// caller-provided regions so it can be placed on persistent memory inside a
// puddle's header:
//   * a metadata region (BuddyHeader + one state byte per 256 B min-block),
//   * the heap itself (free blocks double as free-list nodes).
//
// Offsets, never pointers, are stored in the metadata, so the structure is
// position-independent — a relocated puddle's allocator state needs no
// translation. Every metadata write is announced through a LogSink so
// transactions can undo-log it (src/alloc/log_sink.h). Each operation runs in
// two passes over the same decision sequence: a declare pass that announces
// every range it will touch (no stores), one sink Publish() — a single fence
// covering the whole group — and an apply pass that performs the stores. The
// two passes stay in lockstep because every branch decision reads state that
// the apply pass has not yet modified at that point in the sequence.
//
// The state-byte array additionally makes allocated blocks *discoverable*:
// ForEachAllocated() underpins the pointer-rewriting pass of §4.2 ("puddles
// use allocator metadata to locate internal heap objects").
#ifndef SRC_ALLOC_BUDDY_H_
#define SRC_ALLOC_BUDDY_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/alloc/log_sink.h"
#include "src/common/align.h"
#include "src/common/status.h"

namespace puddles {

class BuddyAllocator {
 public:
  static constexpr size_t kMinBlockLog2 = 8;  // 256 B minimum block.
  static constexpr size_t kMinBlockSize = 1ULL << kMinBlockLog2;
  static constexpr int kMaxOrders = 32;
  static constexpr uint64_t kMetaMagic = 0x5044424459303144ULL;  // "PDBDY01D"

  // Bytes of metadata needed for a heap of `heap_size` (a multiple of 256).
  static size_t MetaSize(size_t heap_size);

  // One-time initialization of a fresh heap. `meta` must hold MetaSize bytes.
  static puddles::Status Format(void* meta, void* heap, size_t heap_size);

  // Attaches to an existing formatted heap. Returns error if the metadata
  // magic or geometry does not match.
  static puddles::Result<BuddyAllocator> Attach(void* meta, void* heap, size_t heap_size,
                                                LogSink sink = {});

  BuddyAllocator() = default;

  void set_log_sink(LogSink sink) { sink_ = sink; }

  // Allocates a block of at least `size` bytes (rounded up to a power-of-two
  // order ≥ 256 B). Returns the heap offset, or error when exhausted.
  puddles::Result<int64_t> Allocate(size_t size);

  // Frees the block starting at `offset` (must be an allocation start).
  puddles::Status Free(int64_t offset);

  // Size of the allocated block starting at `offset` (0 if not a start).
  size_t BlockSize(int64_t offset) const;

  bool IsAllocatedStart(int64_t offset) const;

  uint64_t free_bytes() const;
  // True when Allocate(size) would find a free block (no mutation).
  bool CanAllocate(size_t size) const;
  size_t heap_size() const { return heap_size_; }
  void* heap() const { return heap_; }

  // Invokes `fn(offset, size)` for every allocated block, in address order.
  void ForEachAllocated(const std::function<void(int64_t, size_t)>& fn) const;

  // Where an export cuts the heap: the first multiple of `granule` (a power
  // of two >= 256) above the highest allocated block, never below one
  // granule and never above heap_size. Reads only, after Validate (DataLoss,
  // with nothing changed, when it fails), so an export can size its copy
  // from the live heap.
  puddles::Result<size_t> TailCut(size_t granule) const;

  // Cuts the heap at `cut`, a multiple of 256 that no allocated block
  // crosses: the free lists are rebuilt from the free blocks below it (each
  // list ends at its lowest block), the one that straddles the cut keeps its
  // pieces below it, and heap_size and the order count shrink. No block
  // moves, so every offset stays valid. Nothing at or past the cut is read
  // or written, so it also cuts a copy of just the bytes below it. The
  // stores are neither logged nor flushed: callers cut a private copy (an
  // export). Validates the cut heap; on any error the heap is left unusable.
  puddles::Status CutAt(size_t cut);

  // Exhaustive invariant check (free lists ↔ state bytes ↔ byte accounting),
  // safe on untrusted metadata: every block it follows is bounds-checked.
  // Returns error describing the first inconsistency found.
  puddles::Status Validate() const;

 private:
  struct Header {
    uint64_t magic;
    uint64_t heap_size;
    uint32_t num_orders;
    uint32_t reserved;
    uint64_t free_bytes;
    int64_t free_head[kMaxOrders];  // Heap offset of first free block; -1 empty.
    // State bytes follow (one per min-block).
  };

  struct FreeNode {
    int64_t next;  // Heap offset or -1.
    int64_t prev;
    uint32_t order;
    uint32_t check;  // ~order, guards against interpreting data as a node.
  };

  static constexpr uint8_t kStateFreeStart = 0xFE;
  static constexpr uint8_t kStateInterior = 0xFF;

  BuddyAllocator(Header* header, uint8_t* state, uint8_t* heap, size_t heap_size, LogSink sink)
      : header_(header), state_(state), heap_(heap), heap_size_(heap_size), sink_(sink) {}

  size_t NumBlocks() const { return heap_size_ >> kMinBlockLog2; }
  size_t BlockIndex(int64_t offset) const { return static_cast<size_t>(offset) >> kMinBlockLog2; }
  FreeNode* NodeAt(int64_t offset) const { return reinterpret_cast<FreeNode*>(heap_ + offset); }
  static size_t OrderSize(uint32_t order) { return kMinBlockSize << order; }
  // Orders up to the largest block that fits `heap_size` (>= 256).
  static uint32_t NumOrdersFor(size_t heap_size) {
    return static_cast<uint32_t>(Log2Floor(heap_size)) - kMinBlockLog2 + 1;
  }
  static uint32_t OrderForSize(size_t size);

  // Two-pass mutation protocol: kDeclare announces ranges via the sink and
  // must be store-free; kApply performs the stores (after the group's
  // Publish). Helpers take the phase so declare and apply cannot drift.
  enum class Phase { kDeclare, kApply };

  void PushFree(int64_t offset, uint32_t order, Phase phase);
  void RemoveFree(int64_t offset, uint32_t order, Phase phase);
  void SetState(size_t index, uint8_t value, Phase phase);
  void SetFreeBytes(uint64_t value, Phase phase);

  Header* header_ = nullptr;
  uint8_t* state_ = nullptr;
  uint8_t* heap_ = nullptr;
  size_t heap_size_ = 0;
  LogSink sink_;
};

}  // namespace puddles

#endif  // SRC_ALLOC_BUDDY_H_
