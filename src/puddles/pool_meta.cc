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

puddles::Status PoolMetaView::Format(const Puddle& meta_puddle, const Uuid& pool_uuid,
                                     const char* name) {
  if (meta_puddle.kind() != PuddleKind::kPoolMeta) {
    return InvalidArgumentError("pool meta must live in a kPoolMeta puddle");
  }
  if (std::strlen(name) >= kPoolNameMax) {
    return InvalidArgumentError("pool name too long");
  }
  auto* header = reinterpret_cast<PoolMetaHeader*>(meta_puddle.heap());
  std::memset(header, 0, sizeof(PoolMetaHeader));
  header->magic = kPoolMetaMagic;
  header->pool_uuid = pool_uuid;
  std::strncpy(header->name, name, kPoolNameMax - 1);
  header->root_puddle = Uuid::Nil();
  header->root_offset = 0;
  header->num_members = 0;
  // Zero the translation table region.
  const uint32_t capacity = CapacityFor(meta_puddle.heap_size());
  auto* members = reinterpret_cast<Uuid*>(header + 1);
  auto* old_bases = reinterpret_cast<uint64_t*>(members + capacity);
  std::memset(old_bases, 0, capacity * sizeof(uint64_t));
  pmem::FlushFence(header, sizeof(PoolMetaHeader));
  pmem::FlushFence(old_bases, capacity * sizeof(uint64_t));
  return OkStatus();
}

puddles::Result<PoolMetaView> PoolMetaView::Attach(const Puddle& meta_puddle) {
  if (meta_puddle.kind() != PuddleKind::kPoolMeta) {
    return InvalidArgumentError("not a pool meta puddle");
  }
  auto* header = reinterpret_cast<PoolMetaHeader*>(meta_puddle.heap());
  if (header->magic != kPoolMetaMagic) {
    return DataLossError("pool meta: bad magic");
  }
  const uint32_t capacity = CapacityFor(meta_puddle.heap_size());
  auto* members = reinterpret_cast<Uuid*>(header + 1);
  auto* old_bases = reinterpret_cast<uint64_t*>(members + capacity);
  if (header->num_members > capacity) {
    return DataLossError("pool meta: member count exceeds capacity");
  }
  return PoolMetaView(header, members, old_bases, capacity);
}

puddles::Status PoolMetaView::AddMember(const Uuid& uuid) {
  if (header_->num_members >= capacity_) {
    return OutOfMemoryError("pool meta member list full");
  }
  // Publish ordering: slot first, count after.
  members_[header_->num_members] = uuid;
  old_bases_[header_->num_members] = 0;
  pmem::Flush(&members_[header_->num_members], sizeof(Uuid));
  pmem::FlushFence(&old_bases_[header_->num_members], sizeof(uint64_t));
  header_->num_members++;
  pmem::FlushFence(&header_->num_members, sizeof(header_->num_members));
  return OkStatus();
}

puddles::Status PoolMetaView::ReplaceMember(uint32_t i, const Uuid& uuid) {
  if (i >= header_->num_members) {
    return OutOfRangeError("pool meta member index");
  }
  members_[i] = uuid;
  pmem::FlushFence(&members_[i], sizeof(Uuid));
  return OkStatus();
}

void PoolMetaView::SetRoot(const Uuid& puddle, uint64_t heap_offset) {
  header_->root_puddle = puddle;
  header_->root_offset = heap_offset;
  pmem::FlushFence(&header_->root_puddle, sizeof(Uuid) + sizeof(uint64_t));
}

void PoolMetaView::SetArenasActive(bool active) {
  header_->flags = active ? header_->flags | kPoolFlagArenas : header_->flags & ~kPoolFlagArenas;
  pmem::FlushFence(&header_->flags, sizeof(header_->flags));
}

bool PoolMetaView::HasMember(const Uuid& uuid) const {
  for (uint32_t i = 0; i < header_->num_members; ++i) {
    if (members_[i] == uuid) {
      return true;
    }
  }
  return false;
}

void PoolMetaView::SetMemberOldBase(uint32_t i, uint64_t old_base) {
  old_bases_[i] = old_base;
  pmem::FlushFence(&old_bases_[i], sizeof(uint64_t));
}

void PoolMetaView::ClearTranslationTable() {
  std::memset(old_bases_, 0, header_->num_members * sizeof(uint64_t));
  pmem::FlushFence(old_bases_, header_->num_members * sizeof(uint64_t));
}

bool PoolMetaView::HasTranslations() const {
  for (uint32_t i = 0; i < header_->num_members; ++i) {
    if (old_bases_[i] != 0) {
      return true;
    }
  }
  return false;
}

}  // namespace puddles
