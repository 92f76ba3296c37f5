#include "src/libpuddles/type_registry.h"

#include <algorithm>
#include <cstring>

namespace puddles {

TypeRegistry& TypeRegistry::Instance() {
  static TypeRegistry* registry = new TypeRegistry();
  return *registry;
}

puddles::Status TypeRegistry::Add(PtrMapRecord record) {
  uint32_t* fields = record.field_offsets;
  std::sort(fields, fields + std::min(record.num_fields, kMaxPtrFields));
  RETURN_IF_ERROR(ValidatePtrMap(record));
  std::lock_guard<std::mutex> lock(mu_);
  if (const PtrMapRecord* present = Lookup(record.type_id); present != nullptr) {
    if (std::memcmp(present, &record, sizeof(record)) != 0) {
      return AlreadyExistsError("conflicting pointer map for type");
    }
    return OkStatus();
  }
  Table* table = table_.load(std::memory_order_relaxed);
  const size_t count = table == nullptr ? 0 : table->count.load(std::memory_order_relaxed);
  if (table == nullptr || count == table->records.size()) {
    auto grown = std::make_unique<Table>(std::max<size_t>(4, 2 * count));
    if (table != nullptr) {
      std::copy_n(table->records.begin(), count, grown->records.begin());
    }
    grown->count.store(count, std::memory_order_relaxed);
    table = grown.get();
    tables_.push_back(std::move(grown));
    table_.store(table, std::memory_order_release);
  }
  table->records[count] = record;
  table->count.store(count + 1, std::memory_order_release);
  return OkStatus();
}

puddles::Status TypeRegistry::AddSpecs(TypeId type_id, size_t object_size,
                                       const std::vector<PtrFieldSpec>& specs) {
  PtrMapRecord record{};
  record.type_id = type_id;
  record.object_size = static_cast<uint32_t>(object_size);
  for (const PtrFieldSpec& spec : specs) {
    // Checked before the casts, which would wrap a value past 32 bits into range.
    if (spec.offset > UINT32_MAX || spec.repeat_count > UINT32_MAX) {
      return InvalidArgumentError("pointer field or pointer-array region outside object");
    }
    if (spec.repeat_count != 0) {
      if (record.repeat_count != 0) {
        return InvalidArgumentError("a pointer map holds at most one pointer-array region");
      }
      record.repeat_offset = static_cast<uint32_t>(spec.offset);
      record.repeat_count = static_cast<uint32_t>(spec.repeat_count);
    } else if (record.num_fields == kMaxPtrFields) {
      return InvalidArgumentError("too many pointer fields for one type");
    } else {
      record.field_offsets[record.num_fields++] = static_cast<uint32_t>(spec.offset);
    }
  }
  return Add(record);
}

const PtrMapRecord* TypeRegistry::Lookup(TypeId type_id) const {
  const Table* table = table_.load(std::memory_order_acquire);
  if (table == nullptr) {
    return nullptr;
  }
  const size_t count = table->count.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    if (table->records[i].type_id == type_id) {
      return &table->records[i];
    }
  }
  return nullptr;
}

}  // namespace puddles
