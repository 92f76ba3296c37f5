#include "src/puddles/pool_meta.h"

#include <cstring>

namespace puddles {
namespace {

// The smallest heap that holds the header and one member.
constexpr size_t kMinHeap = sizeof(PoolMetaHeader) + sizeof(PoolMemberSlot);

}  // namespace

puddles::Status ValidatePtrMap(const PtrMapRecord& record) {
  if (record.object_size == 0) {
    return InvalidArgumentError("pointer map: object_size must be non-zero");
  }
  if (record.num_fields > kMaxPtrFields) {
    return InvalidArgumentError("pointer map: too many pointer fields");
  }
  const uint64_t capacity = record.object_size / sizeof(uint64_t);
  if (record.num_fields + static_cast<uint64_t>(record.repeat_count) > capacity) {
    return InvalidArgumentError("pointer map: field arity exceeds what sizeof(T) can hold");
  }
  if (record.repeat_count == 0 && record.repeat_offset != 0) {
    return InvalidArgumentError("pointer map: repeat offset without a repeat region");
  }
  const uint64_t repeat_end =
      record.repeat_offset + static_cast<uint64_t>(record.repeat_count) * sizeof(uint64_t);
  if (repeat_end > record.object_size) {
    return InvalidArgumentError("pointer map: pointer-array region outside object");
  }
  for (uint32_t i = 0; i < kMaxPtrFields; ++i) {
    const uint64_t offset = record.field_offsets[i];
    if (i < record.num_fields
            ? offset + sizeof(uint64_t) > record.object_size ||
                  (i > 0 && offset < record.field_offsets[i - 1] + sizeof(uint64_t)) ||
                  (offset + sizeof(uint64_t) > record.repeat_offset && offset < repeat_end)
            : offset != 0) {
      return InvalidArgumentError(
          "pointer map: field outside object, out of order, sharing a slot, or unused slot "
          "not zero");
    }
  }
  return OkStatus();
}

puddles::Status PoolMetaView::Format(const Puddle& puddle, const Uuid& pool_uuid,
                                     const char* name) {
  if (puddle.kind() != PuddleKind::kPoolMeta) {
    return InvalidArgumentError("pool meta must live in a kPoolMeta puddle");
  }
  if (puddle.heap_size() < kMinHeap) {
    return InvalidArgumentError("pool meta heap too small");
  }
  if (std::strlen(name) >= kPoolNameMax) {
    return InvalidArgumentError("pool name too long");
  }
  std::memset(puddle.heap(), 0, sizeof(PoolMetaHeader));  // On media: padding too.
  auto* header = reinterpret_cast<PoolMetaHeader*>(puddle.heap());
  header->magic = kPoolMetaMagic;
  header->pool_uuid = pool_uuid;
  std::strncpy(header->name, name, kPoolNameMax - 1);
  header->root_puddle = Uuid::Nil();
  header->next_segment = Uuid::Nil();
  pmem::FlushFence(header, sizeof(PoolMetaHeader));
  return OkStatus();
}

puddles::Result<PoolMetaView::Segment> PoolMetaView::AttachSegment(const Uuid& uuid,
                                                                   const Puddle& puddle) {
  if (puddle.kind() != PuddleKind::kPoolMeta) {
    return DataLossError("pool meta: segment is not a pool meta puddle");
  }
  if (puddle.heap_size() < kMinHeap) {
    return DataLossError("pool meta: segment heap too small");
  }
  Segment segment;
  segment.uuid = uuid;
  segment.header = reinterpret_cast<PoolMetaHeader*>(puddle.heap());
  if (segment.header->magic != kPoolMetaMagic) {
    return DataLossError("pool meta: bad magic");
  }
  segment.heap_size = puddle.heap_size();
  segment.table_bytes = segment.heap_size - sizeof(PoolMetaHeader);
  segment.members = reinterpret_cast<PoolMemberSlot*>(segment.header + 1);
  segment.maps_end = reinterpret_cast<PtrMapRecord*>(static_cast<uint8_t*>(puddle.heap()) +
                                                     segment.heap_size);
  if (uint64_t{segment.header->num_members} * sizeof(PoolMemberSlot) +
          uint64_t{segment.header->num_ptr_maps} * sizeof(PtrMapRecord) >
      segment.table_bytes) {
    return DataLossError("pool meta: members and pointer maps exceed the segment");
  }
  for (uint32_t k = 0; k < segment.header->num_ptr_maps; ++k) {
    if (puddles::Status valid = ValidatePtrMap(segment.maps_end[-1 - static_cast<ptrdiff_t>(k)]);
        !valid.ok()) {
      return DataLossError("pool meta: " + valid.message());
    }
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
    total += segment.header->num_members +
             static_cast<uint32_t>(segment.free_bytes() / sizeof(PoolMemberSlot));
  }
  return total;
}

Uuid PoolMetaView::member(uint32_t i) const {
  const Segment* segment = Locate(&i);
  return segment == nullptr ? Uuid::Nil() : segment->members[i].uuid;
}

bool PoolMetaView::full() const {
  return segments_.back().free_bytes() < sizeof(PoolMemberSlot);
}

puddles::Status PoolMetaView::AddMember(const Uuid& uuid) {
  if (full()) {
    return OutOfMemoryError("pool meta member list full");
  }
  // Publish ordering: slot first, count after.
  const Segment& tail = segments_.back();
  PoolMemberSlot& slot = tail.members[tail.header->num_members];
  slot.uuid = uuid;
  slot.old_base = 0;
  pmem::FlushFence(&slot, sizeof(slot));
  tail.header->num_members++;
  pmem::FlushFence(&tail.header->num_members, sizeof(tail.header->num_members));
  return OkStatus();
}

puddles::Status PoolMetaView::ReplaceMember(uint32_t i, const Uuid& uuid) {
  const Segment* segment = Locate(&i);
  if (segment == nullptr) {
    return OutOfRangeError("pool meta member index");
  }
  segment->members[i].uuid = uuid;
  pmem::FlushFence(&segment->members[i].uuid, sizeof(Uuid));
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
      if (segment.members[i].uuid == uuid) {
        return true;
      }
    }
  }
  return false;
}

uint64_t PoolMetaView::member_old_base(uint32_t i) const {
  const Segment* segment = Locate(&i);
  return segment == nullptr ? 0 : segment->members[i].old_base;
}

void PoolMetaView::SetMemberOldBase(uint32_t i, uint64_t old_base) {
  const Segment* segment = Locate(&i);
  if (segment == nullptr) {
    return;
  }
  segment->members[i].old_base = old_base;
  pmem::FlushFence(&segment->members[i].old_base, sizeof(uint64_t));
}

void PoolMetaView::ClearTranslationTable() {
  for (const Segment& segment : segments_) {
    for (uint32_t i = 0; i < segment.header->num_members; ++i) {
      segment.members[i].old_base = 0;
    }
    pmem::FlushFence(segment.members, segment.header->num_members * sizeof(PoolMemberSlot));
  }
}

bool PoolMetaView::HasTranslations() const {
  for (const Segment& segment : segments_) {
    for (uint32_t i = 0; i < segment.header->num_members; ++i) {
      if (segment.members[i].old_base != 0) {
        return true;
      }
    }
  }
  return false;
}

uint32_t PoolMetaView::num_ptr_maps() const {
  uint32_t total = 0;
  for (const Segment& segment : segments_) {
    total += segment.header->num_ptr_maps;
  }
  return total;
}

const PtrMapRecord& PoolMetaView::ptr_map(uint32_t i) const {
  size_t s = 0;
  while (i >= segments_[s].header->num_ptr_maps) {
    i -= segments_[s++].header->num_ptr_maps;
  }
  return segments_[s].maps_end[-1 - static_cast<ptrdiff_t>(i)];
}

puddles::Status PoolMetaView::AddPtrMap(const PtrMapRecord& record) {
  RETURN_IF_ERROR(ValidatePtrMap(record));
  const Segment& tail = segments_.back();
  if (tail.free_bytes() < sizeof(PtrMapRecord)) {
    return OutOfMemoryError("pool meta pointer-map table full");
  }
  // Publish ordering: record first, count after.
  PtrMapRecord& slot = tail.maps_end[-1 - static_cast<ptrdiff_t>(tail.header->num_ptr_maps)];
  slot = record;
  pmem::FlushFence(&slot, sizeof(slot));
  tail.header->num_ptr_maps++;
  pmem::FlushFence(&tail.header->num_ptr_maps, sizeof(tail.header->num_ptr_maps));
  return OkStatus();
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
