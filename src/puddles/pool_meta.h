// Pool metadata puddle layout (paper §4.4).
//
// "Puddled and Libpuddles identify a pool as a collection of puddles and a
// designated 'root' puddle." The member list and root designation live in the
// heap of a kPoolMeta puddle. Appends are crash-safe by ordering: the new
// member slot persists before the count that publishes it.
#ifndef SRC_PUDDLES_POOL_META_H_
#define SRC_PUDDLES_POOL_META_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/common/uuid.h"
#include "src/pmem/flush.h"
#include "src/puddles/format.h"

namespace puddles {

inline constexpr uint64_t kPoolMetaMagic = 0x4154454d4c4f4f50ULL;  // "POOLMETA"
inline constexpr size_t kPoolNameMax = 64;

// Set (persisted) before an arena refill claims a directory entry in any
// member; cleared once a flush or the open-time GC leaves none active. Lets
// OpenPool skip the arena GC — which must map every member to look at its
// directory — for pools that were closed cleanly (docs/alloc.md).
inline constexpr uint32_t kPoolFlagArenas = 1;

struct PoolMetaHeader {
  uint64_t magic;
  Uuid pool_uuid;
  char name[kPoolNameMax];
  Uuid root_puddle;      // Puddle holding the root object; nil until set.
  uint64_t root_offset;  // Heap offset of the root object payload; 0 = unset.
  uint32_t num_members;
  uint32_t flags;  // kPoolFlag* bits.
  // Uuid members[capacity] follows, then uint64_t old_bases[capacity]: the
  // pool's relocation translation table. old_bases[i] != 0 means member i's
  // heap content was laid out for a file base of old_bases[i] at import time;
  // pointers into that old range translate to member i's current base. The
  // table outlives individual members' rewrite flags because every flagged
  // member needs every *other* member's translation, however late it faults
  // in (§4.2 incremental relocation).
};

class PoolMetaView {
 public:
  static puddles::Status Format(const Puddle& meta_puddle, const Uuid& pool_uuid,
                                const char* name);
  static puddles::Result<PoolMetaView> Attach(const Puddle& meta_puddle);

  PoolMetaView() = default;

  const Uuid& pool_uuid() const { return header_->pool_uuid; }
  const char* name() const { return header_->name; }
  uint32_t num_members() const { return header_->num_members; }
  const Uuid& member(uint32_t i) const { return members_[i]; }
  const Uuid& root_puddle() const { return header_->root_puddle; }
  uint64_t root_offset() const { return header_->root_offset; }
  bool has_root() const { return !header_->root_puddle.is_nil(); }

  bool arenas_active() const { return (header_->flags & kPoolFlagArenas) != 0; }
  // Persistently sets or clears kPoolFlagArenas (store + flush + fence).
  void SetArenasActive(bool active);

  uint32_t capacity() const { return capacity_; }

  // Appends a member puddle (crash-safe publish ordering).
  puddles::Status AddMember(const Uuid& uuid);

  // Replaces member `i` (used on import when copies get fresh UUIDs).
  puddles::Status ReplaceMember(uint32_t i, const Uuid& uuid);

  // Persistently designates the root object.
  void SetRoot(const Uuid& puddle, uint64_t heap_offset);

  bool HasMember(const Uuid& uuid) const;

  // Relocation translation table (see PoolMetaHeader comment).
  uint64_t member_old_base(uint32_t i) const { return old_bases_[i]; }
  void SetMemberOldBase(uint32_t i, uint64_t old_base);
  void ClearTranslationTable();
  bool HasTranslations() const;

 private:
  PoolMetaView(PoolMetaHeader* header, Uuid* members, uint64_t* old_bases, uint32_t capacity)
      : header_(header), members_(members), old_bases_(old_bases), capacity_(capacity) {}

  PoolMetaHeader* header_ = nullptr;
  Uuid* members_ = nullptr;
  uint64_t* old_bases_ = nullptr;
  uint32_t capacity_ = 0;
};

}  // namespace puddles

#endif  // SRC_PUDDLES_POOL_META_H_
