// Pool metadata puddle layout (paper §4.4).
//
// "Puddled and Libpuddles identify a pool as a collection of puddles and a
// designated 'root' puddle." The member list and root designation live in the
// heaps of a chain of kPoolMeta puddles, the segments. Segment 0 holds the
// pool's identity, name, flags and root; every segment holds one slice of the
// member table. A pool starts with a one-page segment 0, and a full tail
// grows the table by a continuation of twice its heap, linked the way
// transaction logs chain log puddles (Fig. 5). Appends are crash-safe by
// ordering: a member slot persists before the count that publishes it, and a
// new segment persists formatted before the link that publishes it.
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

// Version 2 added next_segment; Attach rejects the unchained layout.
inline constexpr uint64_t kPoolMetaMagic = 0x3254454d4c4f4f50ULL;  // "POOLMET2"
inline constexpr size_t kPoolNameMax = 64;
// Heap of a pool's segment 0: one page, about 165 members (330 MiB of
// default data puddles) before the first continuation.
inline constexpr size_t kPoolMetaHeapSize = 4096;

// Set (persisted) before an arena refill claims a directory entry in any
// member; cleared once a flush or the open-time GC leaves none active. Lets
// OpenPool skip the arena GC — which must map every member to look at its
// directory — for pools that were closed cleanly (docs/alloc.md).
inline constexpr uint32_t kPoolFlagArenas = 1;

struct PoolMetaHeader {
  uint64_t magic;
  // Next segment of the member table; nil = last. It shares the first cache
  // line with the magic, so a crash persists the link whole or not at all
  // (LogHeader::next_log follows the same rule).
  Uuid next_segment;
  Uuid pool_uuid;        // Segment 0 only; nil in continuations.
  char name[kPoolNameMax];
  Uuid root_puddle;      // Puddle holding the root object; nil until set.
  uint64_t root_offset;  // Heap offset of the root object payload; 0 = unset.
  uint32_t num_members;  // Members held in this segment.
  uint32_t flags;        // kPoolFlag* bits (segment 0).
  // Uuid members[capacity] follows, then uint64_t old_bases[capacity]: the
  // pool's relocation translation table. old_bases[i] != 0 means member i's
  // heap content was laid out for a file base of old_bases[i] at import time;
  // pointers into that old range translate to member i's current base. The
  // table outlives individual members' rewrite flags because every flagged
  // member needs every *other* member's translation, however late it faults
  // in (§4.2 incremental relocation).
};
static_assert(offsetof(PoolMetaHeader, next_segment) + sizeof(Uuid) <= kCacheLineSize,
              "the segment link must not straddle a cache line");

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
  // holding more members than fit, or a link that revisits a segment; an
  // opener's error is returned as it is.
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
  uint32_t capacity() const;  // Member slots in all attached segments.
  Uuid member(uint32_t i) const;  // Nil past the end.
  bool HasMember(const Uuid& uuid) const;

  // True when the tail segment has no free slot: AddMember needs a new
  // segment first (AppendSegment).
  bool full() const;

  // Appends a member to the tail segment (crash-safe publish ordering);
  // OutOfMemory when full().
  puddles::Status AddMember(const Uuid& uuid);

  // Replaces member `i` (used on import when copies get fresh UUIDs).
  puddles::Status ReplaceMember(uint32_t i, const Uuid& uuid);

  // Relocation translation table (see PoolMetaHeader comment).
  uint64_t member_old_base(uint32_t i) const;
  void SetMemberOldBase(uint32_t i, uint64_t old_base);
  void ClearTranslationTable();
  bool HasTranslations() const;

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
    Uuid* members = nullptr;
    uint64_t* old_bases = nullptr;
    uint32_t capacity = 0;
    size_t heap_size = 0;
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
