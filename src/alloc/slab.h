// Size-class slab allocator for small objects (paper §4.5: "per-type slab
// allocators manage small allocations (< 256 B)"; we key slabs by size class
// and keep the type in the per-object header, which preserves the pointer
// discoverability that the paper wants from per-type slabs while letting
// classes be shared).
//
// Each slab is one 4 KiB block obtained from the puddle's buddy allocator:
// a 64 B header (occupancy bitmap + partial-list links, offsets only) followed
// by fixed-size slots. Slabs with free slots are chained per class from a
// directory that lives in the puddle's metadata region.
#ifndef SRC_ALLOC_SLAB_H_
#define SRC_ALLOC_SLAB_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/alloc/buddy.h"
#include "src/alloc/log_sink.h"
#include "src/common/status.h"

namespace puddles {

inline constexpr uint32_t kSlabMagic = 0x534c4231;  // "SLB1"
inline constexpr size_t kSlabBlockSize = 4096;

// Slot sizes must cover ObjectHeader (16 B) + payload. Payloads above
// kMaxSlabPayload go to the buddy allocator directly.
inline constexpr std::array<uint16_t, 7> kSlabSlotSizes = {32, 48, 64, 96, 128, 192, 272};
inline constexpr size_t kNumSlabClasses = kSlabSlotSizes.size();
inline constexpr size_t kMaxSlabSlot = 272;

struct SlabHeader {
  uint32_t magic;
  uint16_t class_index;
  uint16_t num_slots;
  uint16_t used;
  // Arena ownership tag (docs/alloc.md): 0 = global slab (partial-list
  // discipline, bitmap authoritative), else directory slot + 1 of the
  // per-thread arena that owns the slab. While a slab is arena-owned, its
  // bitmap and used count are STALE — the owning thread tracks occupancy in
  // volatile shadow state and hot-path alloc/free never store here. Recovery
  // reconstructs the bitmap by root reachability (GC) before untagging.
  uint16_t arena_slot;
  uint32_t reserved1;
  int64_t next_partial;  // Heap offset of the next slab with free slots; -1.
  int64_t prev_partial;
  uint64_t bitmap[2];  // Bit i set = slot i allocated. ≤126 slots per slab.
  // Next slab in the owning arena's persistent chain (rooted at the arena
  // directory entry); -1 terminates. Only meaningful when arena_slot != 0.
  int64_t arena_next;
  uint64_t reserved3;
};
static_assert(sizeof(SlabHeader) == 64, "slab header must be exactly one cache line");

// Lives in the puddle metadata region next to the buddy metadata.
struct SlabDirectory {
  uint64_t magic;
  int64_t partial_head[kNumSlabClasses];  // Heap offsets; -1 when empty.
};

class SlabAllocator {
 public:
  static constexpr uint64_t kDirectoryMagic = 0x50444c534c414231ULL;  // "PDLSLAB1"

  static void FormatDirectory(SlabDirectory* dir);

  // `dir` must point at a formatted SlabDirectory; `buddy` supplies 4 KiB
  // blocks from the same heap.
  SlabAllocator(SlabDirectory* dir, BuddyAllocator* buddy, LogSink sink = {})
      : dir_(dir), buddy_(buddy), sink_(sink) {}

  void set_log_sink(LogSink sink) { sink_ = sink; }

  // Smallest class whose slot fits `total` bytes, or -1 if it needs the buddy.
  static int ClassForSize(size_t total);

  // Allocates one slot able to hold `total` bytes. Returns the heap offset of
  // the slot start.
  puddles::Result<int64_t> Allocate(size_t total);

  // Frees the slot at `slot_offset`, which must lie inside a live slab.
  puddles::Status Free(int64_t slot_offset);

  // True if the allocated buddy block at `block_offset` is a slab.
  bool IsSlabBlock(int64_t block_offset) const;

  // Invokes `fn(slot_offset, slot_size)` for every live slot in the slab at
  // `block_offset`. For an arena-owned slab the persistent bitmap is stale,
  // so every slot is enumerated and the caller's object-magic check decides
  // liveness (ObjectHeap::ForEachObject does exactly that).
  void ForEachSlot(int64_t block_offset, const std::function<void(int64_t, size_t)>& fn) const;

  // Cross-checks directory lists and slab bitmaps, and checks every slab's
  // class and slot count. Safe on untrusted metadata once the buddy
  // allocator has validated.
  puddles::Status Validate() const;

  // ---- Per-thread arena refill/flush contract (docs/alloc.md) ----
  //
  // All three run under the allocator group protocol through the installed
  // sink, so a transactional caller gets full undo coverage: a crash (or
  // abort) mid-refill / mid-flush-back rolls the slab metadata back cleanly.

  // Carves a fresh 4 KiB slab from the buddy for an arena: header formatted
  // with an empty bitmap, tagged with `arena_slot` (directory slot + 1) and
  // chained via `arena_next`, and NOT pushed onto the global partial list.
  // Returns the slab's heap offset.
  puddles::Result<int64_t> CarveArenaSlab(int class_index, uint16_t arena_slot,
                                          int64_t arena_next);

  // Pops the head of `class_index`'s global partial list and transfers it to
  // an arena: tagged, chained, removed from the partial list; bitmap and used
  // count keep describing the pre-existing live slots (the adopter seeds its
  // shadow state from them). Returns the slab offset, or -1 when the partial
  // list is empty.
  puddles::Result<int64_t> AdoptPartialForArena(int class_index, uint16_t arena_slot,
                                                int64_t arena_next);

  // Returns an arena-owned slab to global ownership: persists the true
  // occupancy (`bitmap`/`used`, from the owner's shadow state or from GC
  // reachability), clears the arena tag and chain link, then re-enters the
  // slab into the global discipline — partial list when partially full,
  // nothing when full, retired to the buddy when empty. Used by flush-back
  // and by post-crash GC recovery.
  puddles::Status ReleaseArenaSlab(int64_t slab_offset, const uint64_t bitmap[2],
                                   uint16_t used);

 private:
  uint8_t* heap() const { return static_cast<uint8_t*>(buddy_->heap()); }
  SlabHeader* SlabAt(int64_t offset) const {
    return reinterpret_cast<SlabHeader*>(heap() + offset);
  }

  static size_t SlotsPerSlab(int class_index) {
    return (kSlabBlockSize - sizeof(SlabHeader)) / kSlabSlotSizes[class_index];
  }

  // Two-pass mutation protocol (see buddy.h): declare announces ranges
  // through the sink without storing; apply stores after the group's single
  // Publish() fence.
  enum class Phase { kDeclare, kApply };

  void PushPartial(int class_index, int64_t slab_offset, Phase phase);
  void RemovePartial(int class_index, int64_t slab_offset, Phase phase);

  SlabDirectory* dir_;
  BuddyAllocator* buddy_;
  LogSink sink_;
};

}  // namespace puddles

#endif  // SRC_ALLOC_SLAB_H_
