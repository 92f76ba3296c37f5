#include "src/puddles/pool_meta.h"

#include <cstring>

namespace puddles {
namespace {

// Members and old-base slots are carved from the same heap area.
constexpr size_t kPerMemberBytes = sizeof(Uuid) + sizeof(uint64_t);

uint32_t CapacityFor(size_t heap_size) {
  return static_cast<uint32_t>((heap_size - sizeof(PoolMetaHeader)) / kPerMemberBytes);
}

}  // namespace

puddles::Status PoolMetaView::Format(const Puddle& puddle, const Uuid& pool_uuid,
                                     const char* name) {
  if (puddle.kind() != PuddleKind::kPoolMeta) {
    return InvalidArgumentError("pool meta must live in a kPoolMeta puddle");
  }
  if (puddle.heap_size() < sizeof(PoolMetaHeader) + kPerMemberBytes) {
    return InvalidArgumentError("pool meta heap too small");
  }
  if (std::strlen(name) >= kPoolNameMax) {
    return InvalidArgumentError("pool name too long");
  }
  auto* header = reinterpret_cast<PoolMetaHeader*>(puddle.heap());
  std::memset(header, 0, sizeof(PoolMetaHeader));
  header->magic = kPoolMetaMagic;
  header->pool_uuid = pool_uuid;
  std::strncpy(header->name, name, kPoolNameMax - 1);
  header->root_puddle = Uuid::Nil();
  header->next_segment = Uuid::Nil();
  // Zero the translation table region.
  const uint32_t capacity = CapacityFor(puddle.heap_size());
  auto* old_bases = reinterpret_cast<uint64_t*>(reinterpret_cast<Uuid*>(header + 1) + capacity);
  std::memset(old_bases, 0, capacity * sizeof(uint64_t));
  pmem::FlushFence(header, sizeof(PoolMetaHeader));
  pmem::FlushFence(old_bases, capacity * sizeof(uint64_t));
  return OkStatus();
}

puddles::Result<PoolMetaView::Segment> PoolMetaView::AttachSegment(const Uuid& uuid,
                                                                   const Puddle& puddle) {
  if (puddle.kind() != PuddleKind::kPoolMeta) {
    return DataLossError("pool meta: segment is not a pool meta puddle");
  }
  if (puddle.heap_size() < sizeof(PoolMetaHeader) + kPerMemberBytes) {
    return DataLossError("pool meta: segment heap too small");
  }
  Segment segment;
  segment.uuid = uuid;
  segment.header = reinterpret_cast<PoolMetaHeader*>(puddle.heap());
  if (segment.header->magic != kPoolMetaMagic) {
    return DataLossError("pool meta: bad magic");
  }
  segment.capacity = CapacityFor(puddle.heap_size());
  segment.heap_size = puddle.heap_size();
  segment.members = reinterpret_cast<Uuid*>(segment.header + 1);
  segment.old_bases = reinterpret_cast<uint64_t*>(segment.members + segment.capacity);
  if (segment.header->num_members > segment.capacity) {
    return DataLossError("pool meta: member count exceeds capacity");
  }
  return segment;
}

puddles::Result<PoolMetaView> PoolMetaView::Attach(const Uuid& head, const SegmentOpener& open) {
  if (head.is_nil()) {
    return InvalidArgumentError("pool meta: nil head segment");
  }
  PoolMetaView view;
  for (Uuid uuid = head; !uuid.is_nil();) {
    for (const Segment& seen : view.segments_) {
      if (seen.uuid == uuid) {
        return DataLossError("pool meta: segment chain revisits a segment");
      }
    }
    ASSIGN_OR_RETURN(Puddle puddle, open(uuid));
    ASSIGN_OR_RETURN(Segment segment, AttachSegment(uuid, puddle));
    view.segments_.push_back(segment);
    uuid = segment.header->next_segment;
  }
  view.header_ = view.segments_.front().header;
  return view;
}

const PoolMetaView::Segment* PoolMetaView::Locate(uint32_t* i) const {
  for (const Segment& segment : segments_) {
    if (*i < segment.header->num_members) {
      return &segment;
    }
    *i -= segment.header->num_members;
  }
  return nullptr;
}

uint32_t PoolMetaView::num_members() const {
  uint32_t total = 0;
  for (const Segment& segment : segments_) {
    total += segment.header->num_members;
  }
  return total;
}

uint32_t PoolMetaView::capacity() const {
  uint32_t total = 0;
  for (const Segment& segment : segments_) {
    total += segment.capacity;
  }
  return total;
}

Uuid PoolMetaView::member(uint32_t i) const {
  const Segment* segment = Locate(&i);
  return segment == nullptr ? Uuid::Nil() : segment->members[i];
}

bool PoolMetaView::full() const {
  const Segment& tail = segments_.back();
  return tail.header->num_members >= tail.capacity;
}

puddles::Status PoolMetaView::AddMember(const Uuid& uuid) {
  if (full()) {
    return OutOfMemoryError("pool meta member list full");
  }
  // Publish ordering: slot first, count after.
  const Segment& tail = segments_.back();
  const uint32_t slot = tail.header->num_members;
  tail.members[slot] = uuid;
  tail.old_bases[slot] = 0;
  pmem::Flush(&tail.members[slot], sizeof(Uuid));
  pmem::FlushFence(&tail.old_bases[slot], sizeof(uint64_t));
  tail.header->num_members++;
  pmem::FlushFence(&tail.header->num_members, sizeof(tail.header->num_members));
  return OkStatus();
}

puddles::Status PoolMetaView::ReplaceMember(uint32_t i, const Uuid& uuid) {
  const Segment* segment = Locate(&i);
  if (segment == nullptr) {
    return OutOfRangeError("pool meta member index");
  }
  segment->members[i] = uuid;
  pmem::FlushFence(&segment->members[i], sizeof(Uuid));
  return OkStatus();
}

void PoolMetaView::SetRoot(const Uuid& puddle, uint64_t heap_offset) {
  header_->root_puddle = puddle;
  header_->root_offset = heap_offset;
  pmem::FlushFence(&header_->root_puddle, sizeof(Uuid) + sizeof(uint64_t));
}

puddles::Status PoolMetaView::SetIdentity(const Uuid& pool_uuid, const char* name) {
  if (std::strlen(name) >= kPoolNameMax) {
    return InvalidArgumentError("pool name too long");
  }
  header_->pool_uuid = pool_uuid;
  std::memset(header_->name, 0, sizeof(header_->name));
  std::strncpy(header_->name, name, kPoolNameMax - 1);
  pmem::FlushFence(header_, sizeof(PoolMetaHeader));
  return OkStatus();
}

void PoolMetaView::SetArenasActive(bool active) {
  header_->flags = active ? header_->flags | kPoolFlagArenas : header_->flags & ~kPoolFlagArenas;
  pmem::FlushFence(&header_->flags, sizeof(header_->flags));
}

bool PoolMetaView::HasMember(const Uuid& uuid) const {
  for (const Segment& segment : segments_) {
    for (uint32_t i = 0; i < segment.header->num_members; ++i) {
      if (segment.members[i] == uuid) {
        return true;
      }
    }
  }
  return false;
}

uint64_t PoolMetaView::member_old_base(uint32_t i) const {
  const Segment* segment = Locate(&i);
  return segment == nullptr ? 0 : segment->old_bases[i];
}

void PoolMetaView::SetMemberOldBase(uint32_t i, uint64_t old_base) {
  const Segment* segment = Locate(&i);
  if (segment == nullptr) {
    return;
  }
  segment->old_bases[i] = old_base;
  pmem::FlushFence(&segment->old_bases[i], sizeof(uint64_t));
}

void PoolMetaView::ClearTranslationTable() {
  for (const Segment& segment : segments_) {
    std::memset(segment.old_bases, 0, segment.header->num_members * sizeof(uint64_t));
    pmem::FlushFence(segment.old_bases, segment.header->num_members * sizeof(uint64_t));
  }
}

bool PoolMetaView::HasTranslations() const {
  for (const Segment& segment : segments_) {
    for (uint32_t i = 0; i < segment.header->num_members; ++i) {
      if (segment.old_bases[i] != 0) {
        return true;
      }
    }
  }
  return false;
}

puddles::Status PoolMetaView::AppendSegment(const Uuid& uuid, const Puddle& segment) {
  for (const Segment& seen : segments_) {
    if (seen.uuid == uuid) {
      return InvalidArgumentError("pool meta: segment already in the chain");
    }
  }
  RETURN_IF_ERROR(Format(segment, Uuid::Nil(), ""));
  ASSIGN_OR_RETURN(Segment attached, AttachSegment(uuid, segment));
  PoolMetaHeader* tail = segments_.back().header;
  tail->next_segment = uuid;
  pmem::FlushFence(&tail->next_segment, sizeof(Uuid));
  segments_.push_back(attached);
  return OkStatus();
}

void PoolMetaView::RenameSegment(uint32_t s, const Uuid& uuid) {
  segments_[s].uuid = uuid;
  if (s > 0) {
    PoolMetaHeader* prev = segments_[s - 1].header;
    prev->next_segment = uuid;
    pmem::FlushFence(&prev->next_segment, sizeof(Uuid));
  }
}

}  // namespace puddles
