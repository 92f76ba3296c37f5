// Pool metadata puddle layout (paper §4.2, §4.4).
//
// "Puddled and Libpuddles identify a pool as a collection of puddles and a
// designated 'root' puddle." The member list, the root designation and the
// pool's pointer maps live in the heaps of a chain of kPoolMeta puddles, the
// segments. Segment 0 holds the pool's identity, name, flags and root; every
// segment holds one slice of the member table, growing up from its header,
// and one slice of the pointer-map table, growing down from its heap's end.
// A pool starts with a one-page segment 0, and a full tail grows the tables
// by a continuation of twice its heap, linked the way transaction logs chain
// log puddles (Fig. 5). Appends are crash-safe by ordering: a member slot or
// a map record persists before the count that publishes it, and a new
// segment persists formatted before the link that publishes it.
#ifndef SRC_PUDDLES_POOL_META_H_
#define SRC_PUDDLES_POOL_META_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/align.h"
#include "src/common/status.h"
#include "src/common/uuid.h"
#include "src/pmem/flush.h"
#include "src/puddles/format.h"

namespace puddles {

// Version 2 added next_segment, version 3 the pointer-map table; Attach
// rejects the earlier layouts.
inline constexpr uint64_t kPoolMetaMagic = 0x3354454d4c4f4f50ULL;  // "POOLMET3"
inline constexpr size_t kPoolNameMax = 64;
// Heap of a pool's segment 0: one page, 165 members (330 MiB of default data
// puddles) before the first continuation, 6 fewer for each pointer map.
inline constexpr size_t kPoolMetaHeapSize = 4096;

// Pointer map for one type (§4.2): "each element contains the offset of a
// pointer within the object". A pool records the map of every registered
// type it allocates, so relocation and reachability read the maps the data
// was written with, whichever process opens it.
inline constexpr uint32_t kMaxPtrFields = 30;

struct PtrMapRecord {
  uint64_t type_id;
  uint32_t num_fields;
  uint32_t object_size;  // sizeof(T): pointer discovery in arrays strides by this.
  uint32_t field_offsets[kMaxPtrFields];
  // Optional homogeneous pointer-array region, for wide nodes whose fan-out
  // exceeds kMaxPtrFields (e.g. an ART Node256's 256 child slots): pointers
  // additionally live at repeat_offset + i*8 for i in [0, repeat_count).
  uint32_t repeat_offset;
  uint32_t repeat_count;  // 0 = no repeat region.
};
static_assert(sizeof(PtrMapRecord) == 8 + 4 * (4 + kMaxPtrFields),
              "no padding: a record's bytes are its identity (ValidatePtrMap)");

// The structural check every map passes, registered or read from a pool:
// a non-zero object_size, at most kMaxPtrFields fields, every field and the
// repeat region inside the object, no more slots than sizeof(T) holds, no
// slot listed twice (a rewrite would translate it twice), and one byte form
// per map, so that two records compare equal iff their bytes do: ascending
// field offsets, and zeros in the unused field slots and in repeat_offset
// without a region. InvalidArgument names the first violation.
puddles::Status ValidatePtrMap(const PtrMapRecord& record);

// Set (persisted) before an arena refill claims a directory entry in any
// member; cleared once a flush or the open-time GC leaves none active. Lets
// OpenPool skip the arena GC — which must map every member to look at its
// directory — for pools that were closed cleanly (docs/alloc.md).
inline constexpr uint16_t kPoolFlagArenas = 1;

struct PoolMetaHeader {
  uint64_t magic;
  // Next segment of the member table; nil = last. It shares the first cache
  // line with the magic, so a crash persists the link whole or not at all
  // (LogHeader::next_log follows the same rule).
  Uuid next_segment;
  Uuid pool_uuid;         // Segment 0 only; nil in continuations.
  char name[kPoolNameMax];
  Uuid root_puddle;       // Puddle holding the root object; nil until set.
  uint64_t root_offset;   // Heap offset of the root object payload; 0 = unset.
  uint32_t num_members;   // Members held in this segment.
  uint16_t flags;         // kPoolFlag* bits (segment 0).
  uint16_t num_ptr_maps;  // Pointer maps held in this segment.
  // PoolMemberSlot members[num_members] follows the header; the segment's
  // PtrMapRecords end at the heap's end, record k at end - (k + 1) records.
};
static_assert(offsetof(PoolMetaHeader, next_segment) + sizeof(Uuid) <= kCacheLineSize,
              "the segment link must not straddle a cache line");

// One member-table entry. old_base != 0 means the member's heap content was
// laid out for a file base of old_base at import time; pointers into that
// old range translate to the member's current base. This translation table
// outlives individual members' rewrite flags because every flagged member
// needs every *other* member's translation, however late it faults in (§4.2
// incremental relocation).
struct PoolMemberSlot {
  Uuid uuid;
  uint64_t old_base;
};

// Maps the segment puddle a link names. Each caller maps its own way: the
// runtime through its registry, the daemon from its files, an import from
// its copies.
using SegmentOpener = std::function<puddles::Result<Puddle>(const Uuid&)>;

class PoolMetaView {
 public:
  // Formats a segment with an empty member table and no link: segment 0
  // with the pool's identity and name, a continuation with nil and "".
  static puddles::Status Format(const Puddle& puddle, const Uuid& pool_uuid, const char* name);
  // Attaches the chain that starts at segment `head`, mapping each segment
  // through `open`. DataLoss on a segment of the wrong kind or magic, one
  // whose members and pointer maps do not fit its heap, a pointer map that
  // fails ValidatePtrMap, or a link that revisits a segment; an opener's
  // error is returned as it is.
  static puddles::Result<PoolMetaView> Attach(const Uuid& head, const SegmentOpener& open);

  PoolMetaView() = default;

  const Uuid& pool_uuid() const { return header_->pool_uuid; }
  const char* name() const { return header_->name; }
  const Uuid& root_puddle() const { return header_->root_puddle; }
  uint64_t root_offset() const { return header_->root_offset; }
  bool has_root() const { return !header_->root_puddle.is_nil(); }

  bool arenas_active() const { return (header_->flags & kPoolFlagArenas) != 0; }
  // Persistently sets or clears kPoolFlagArenas (store + flush + fence).
  void SetArenasActive(bool active);

  // Persistently designates the root object.
  void SetRoot(const Uuid& puddle, uint64_t heap_offset);

  // Persistently gives the pool a new identity and name (import).
  puddles::Status SetIdentity(const Uuid& pool_uuid, const char* name);

  // ---- The member table, addressed across every segment ----
  uint32_t num_members() const;
  // Member slots in all attached segments, beside the maps they hold.
  uint32_t capacity() const;
  Uuid member(uint32_t i) const;  // Nil past the end.
  bool HasMember(const Uuid& uuid) const;

  // True when the tail segment has no room for a member: AddMember needs a
  // new segment first (AppendSegment).
  bool full() const;

  // Appends a member to the tail segment (crash-safe publish ordering);
  // OutOfMemory when full().
  puddles::Status AddMember(const Uuid& uuid);

  // Replaces member `i` (used on import when copies get fresh UUIDs).
  puddles::Status ReplaceMember(uint32_t i, const Uuid& uuid);

  // Relocation translation table (see PoolMemberSlot).
  uint64_t member_old_base(uint32_t i) const;
  void SetMemberOldBase(uint32_t i, uint64_t old_base);
  void ClearTranslationTable();
  bool HasTranslations() const;

  // ---- The pointer-map table, addressed across every segment ----
  uint32_t num_ptr_maps() const;
  const PtrMapRecord& ptr_map(uint32_t i) const;  // i < num_ptr_maps().

  // Appends a map to the tail segment, published like a member: the record
  // persists before the count. InvalidArgument for a map that fails
  // ValidatePtrMap; OutOfMemory when the tail has no room (AppendSegment).
  puddles::Status AddPtrMap(const PtrMapRecord& record);

  // ---- The segment chain ----
  uint32_t num_segments() const { return static_cast<uint32_t>(segments_.size()); }
  const Uuid& segment(uint32_t s) const { return segments_[s].uuid; }
  size_t tail_heap_size() const { return segments_.back().heap_size; }

  // Grows the chain by `segment`, a fresh kPoolMeta puddle named `uuid`: it
  // is formatted as an empty continuation and persisted, and only then does
  // the tail's link to it persist. A crash in between leaves an unlinked,
  // empty segment — leaked, like a data puddle created before its AddMember.
  puddles::Status AppendSegment(const Uuid& uuid, const Puddle& segment);

  // Names segment `s` `uuid` from now on, persistently rewriting the link
  // that leads to it (segment 0's name lives in the daemon's pool record).
  // Import gives every copied segment a fresh UUID this way.
  void RenameSegment(uint32_t s, const Uuid& uuid);

 private:
  struct Segment {
    Uuid uuid;
    PoolMetaHeader* header = nullptr;
    PoolMemberSlot* members = nullptr;
    PtrMapRecord* maps_end = nullptr;  // Record k is maps_end[-1 - k].
    size_t table_bytes = 0;            // Between the header and the heap's end.
    size_t heap_size = 0;

    size_t free_bytes() const {
      return table_bytes - header->num_members * sizeof(PoolMemberSlot) -
             header->num_ptr_maps * sizeof(PtrMapRecord);
    }
  };

  static puddles::Result<Segment> AttachSegment(const Uuid& uuid, const Puddle& puddle);

  // The segment holding member `*i`, with `*i` turned into its slot there;
  // nullptr past the end.
  const Segment* Locate(uint32_t* i) const;

  // Segment 0's header. Kept apart from segments_, which grows under the
  // pool's allocation lock, so identity, root and flags read without it.
  PoolMetaHeader* header_ = nullptr;
  std::vector<Segment> segments_;
};

}  // namespace puddles

#endif  // SRC_PUDDLES_POOL_META_H_
