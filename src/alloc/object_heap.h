// Typed object heap: the per-puddle allocator combining the buddy allocator
// (large blocks), the slab allocator (small objects), and 16-byte object
// headers carrying the 64-bit type ID of every allocation (paper §4.5,
// "pool's malloc() API takes as input the object's type in addition to its
// size" and §4.2 "every allocation in Puddles is associated with a type ID,
// stored ... in the allocator's metadata along with the allocated object").
//
// The type IDs plus ForEachObject() are what make pointers discoverable for
// relocation. All state is offset-based and lives in caller-provided PM.
#ifndef SRC_ALLOC_OBJECT_HEAP_H_
#define SRC_ALLOC_OBJECT_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/alloc/arena.h"
#include "src/alloc/buddy.h"
#include "src/alloc/slab.h"
#include "src/common/status.h"
#include "src/common/type_name.h"

namespace puddles {

inline constexpr uint32_t kObjectMagic = 0x504f424a;  // "POBJ"

struct ObjectHeader {
  uint32_t magic;
  uint32_t size;  // Payload bytes requested by the caller.
  TypeId type_id;
};
static_assert(sizeof(ObjectHeader) == 16, "object header must stay 16 bytes");

class ObjectHeap {
 public:
  // Metadata bytes required in the puddle header for a heap of `heap_size`.
  static size_t MetaSize(size_t heap_size);

  static puddles::Status Format(void* meta, void* heap, size_t heap_size);

  // Writes through a view without a LogSink are neither atomic nor durable;
  // Pool never makes them (its sinkless views only read).
  static puddles::Result<ObjectHeap> Attach(void* meta, void* heap, size_t heap_size,
                                            LogSink sink = {});

  ObjectHeap() = default;

  void set_log_sink(LogSink sink) {
    sink_ = sink;
    buddy_.set_log_sink(sink);
  }

  // Allocates `payload_size` bytes tagged with `type_id`. Returns the payload
  // address (header sits immediately before it). When a LogSink is installed,
  // all metadata mutations are undo-logged through it; flushing is the
  // transactional caller's job (the commit path flushes undo-logged ranges).
  puddles::Result<void*> Allocate(size_t payload_size, TypeId type_id);

  template <typename T>
  puddles::Result<T*> AllocateTyped(size_t count = 1) {
    ASSIGN_OR_RETURN(void* raw, Allocate(sizeof(T) * count, TypeIdOf<T>()));
    return static_cast<T*>(raw);
  }

  // Frees the object whose payload starts at `payload`.
  puddles::Status Free(void* payload);

  // Header lookup; returns nullptr if `payload` is not a live allocation.
  const ObjectHeader* HeaderOf(const void* payload) const;

  // True if `payload` points at the start of a live allocation.
  bool IsLiveObject(const void* payload) const;

  // The payload space of the buddy block or slab slot that `payload` starts
  // (the capacity ForEachObject reports), or 0 when `payload` starts neither.
  size_t CapacityOf(const void* payload) const;

  // Iterates every live object in address order: fn(payload, header,
  // capacity). `capacity` is the payload space the containing slab slot or
  // buddy block actually provides — callers that walk an object by
  // header.size must bound the walk by it, so a corrupt or inflated size can
  // never send them scanning allocator slack or a neighboring slot.
  void ForEachObject(
      const std::function<void(void*, const ObjectHeader&, size_t)>& fn) const;

  uint64_t free_bytes() const { return buddy_.free_bytes(); }
  size_t heap_size() const { return buddy_.heap_size(); }
  void* heap_base() const { return buddy_.heap(); }

  // Where an export cuts the heap: the first slab block (page) boundary
  // above its highest allocated block, never below one slab block
  // (BuddyAllocator::TailCut). Reads only.
  puddles::Result<size_t> TailCut() const;

  // Cuts the heap at `heap_size`, a TailCut of the same heap bytes
  // (BuddyAllocator::CutAt), and records the new size in the metadata.
  // Unlogged: for a private copy only (Daemon::ExportPool).
  puddles::Status CutAt(size_t heap_size);

  // ---- Per-thread arena support (src/alloc/arena.h, docs/alloc.md) ----

  // The puddle's persistent arena directory (NVMMgr-style recovery root).
  ArenaDirectory* arena_directory() const { return &meta_->arena_dir; }

  // A slab-allocator view bound to this heap's current sink, for the arena
  // refill/flush primitives (CarveArenaSlab & co).
  SlabAllocator slab_view() const { return Slab(); }

  // True when an arena refill of `class_index` can take a slab here: a
  // global partial slab to adopt, or a free block to carve.
  bool CanSupplySlab(int class_index) const {
    return meta_->slab_dir.partial_head[class_index] >= 0 ||
           buddy_.CanAllocate(kSlabBlockSize);
  }

  // The arena tag (SlabHeader::arena_slot) of the slab holding `payload`, or
  // 0 when the object is buddy-backed or its slab is globally owned. Arena
  // frees must bypass Free() below — the slab's persistent bitmap is stale.
  uint16_t ArenaTagOf(const void* payload) const;

  int64_t OffsetOf(const void* addr) const {
    return static_cast<const uint8_t*>(addr) - static_cast<uint8_t*>(buddy_.heap());
  }
  void* AtOffset(int64_t offset) const {
    return static_cast<uint8_t*>(buddy_.heap()) + offset;
  }

  // Checks the buddy allocator, then the slabs: the state that allocation,
  // free and ForEachObject follow. Safe on untrusted metadata (import,
  // §4.6): each step walks only what the one before it bounded.
  puddles::Status ValidateAllocator() const;

  // ValidateAllocator, then every object's size against its slot or block.
  puddles::Status Validate() const;

 private:
  struct Meta {
    uint64_t magic;
    uint64_t heap_size;
    SlabDirectory slab_dir;
    ArenaDirectory arena_dir;
    // BuddyAllocator metadata follows.
  };
  static constexpr uint64_t kMetaMagic = 0x5044484541503241ULL;  // "PDHEAP2A"

  ObjectHeap(Meta* meta, BuddyAllocator buddy, LogSink sink)
      : meta_(meta), buddy_(std::move(buddy)), sink_(sink) {
    buddy_.set_log_sink(sink);
  }

  // The slab allocator is a thin view over (directory, buddy); build it per
  // call so ObjectHeap stays trivially movable.
  SlabAllocator Slab() const {
    return SlabAllocator(&meta_->slab_dir, const_cast<BuddyAllocator*>(&buddy_), sink_);
  }

  bool InHeap(const void* addr) const {
    int64_t off = OffsetOf(addr);
    return off >= 0 && static_cast<size_t>(off) < buddy_.heap_size();
  }

  Meta* meta_ = nullptr;
  BuddyAllocator buddy_;
  LogSink sink_;
};

}  // namespace puddles

#endif  // SRC_ALLOC_OBJECT_HEAP_H_
