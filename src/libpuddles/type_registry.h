// Per-process registry of pointer maps (paper §4.2).
//
// "Puddles solve this problem by requiring the application to register
// pointer maps with Puddled for each persistent type used by the application.
// These pointer maps are simply a list, where each element contains the
// offset of a pointer within the object."
//
// Types register once per process (usually at static-init or startup); the
// Runtime uploads the registry to Puddled when pools are created or opened,
// so the daemon can export maps alongside pools and relocation can find every
// pointer.
//
// The declarative surface (DESIGN.md §9) derives offsets from member
// pointers, so maps cannot drift from the struct they describe:
//
//   PUDDLES_TYPE(Node, &Node::next, &Node::prev);   // scalar pointer fields
//   PUDDLES_TYPE(Node16, &Node16::children);        // pointer array ⇒ repeat
//                                                   // region, extent deduced
//
// A non-pointer member is a compile error; array extents come from the
// member's type, never a hand-typed count. The initializer_list-of-offsets
// overloads remain as the wire-level escape hatch (daemon Merge, tests).
#ifndef SRC_LIBPUDDLES_TYPE_REGISTRY_H_
#define SRC_LIBPUDDLES_TYPE_REGISTRY_H_

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/type_name.h"
#include "src/daemon/types.h"

namespace puddles {

// Byte offset of a member designated by pointer-to-member, the declarative
// replacement for offsetof() in pointer maps. (Materializes the offset from
// suitably aligned storage; valid for the standard-layout types the registry
// requires.)
template <typename T, typename M>
size_t MemberOffset(M T::*field) {
  alignas(T) static const unsigned char storage[sizeof(T)] = {};
  const T* object = reinterpret_cast<const T*>(storage);
  return static_cast<size_t>(
      reinterpret_cast<const unsigned char*>(std::addressof(object->*field)) - storage);
}

// One normalized pointer-map field: a scalar pointer member
// (repeat_count == 0) or a homogeneous pointer-array member.
struct PtrFieldSpec {
  size_t offset = 0;
  size_t repeat_count = 0;
};

// Visits every pointer slot of an object laid out by `map`: fn(offset) gets
// each slot's byte offset from the object's start. Arrays of T stride by
// sizeof(T); each element's fields come first, then its repeat region. The
// walk covers whole elements within the first `extent` bytes, and callers
// pass min(header size, allocation capacity): a corrupt or inflated size must
// not send the walk into allocator slack or a neighboring slot. A field or
// repeat region that a malformed map places past object_size is skipped.
// Relocation and reachability both walk objects through this one function.
template <typename Fn>
void ForEachPointerSlot(const puddled::PtrMapRecord& map, uint64_t extent, Fn&& fn) {
  if (map.object_size == 0 || (map.num_fields == 0 && map.repeat_count == 0)) {
    return;
  }
  const bool repeat_fits =
      map.repeat_count != 0 &&
      map.repeat_offset + static_cast<uint64_t>(map.repeat_count) * sizeof(uint64_t) <=
          map.object_size;
  const uint64_t count = extent / map.object_size;
  for (uint64_t element = 0; element < count; ++element) {
    const uint64_t start = element * map.object_size;
    for (uint32_t field = 0; field < map.num_fields; ++field) {
      if (map.field_offsets[field] + sizeof(uint64_t) <= map.object_size) {
        fn(start + map.field_offsets[field]);
      }
    }
    if (repeat_fits) {
      for (uint32_t r = 0; r < map.repeat_count; ++r) {
        fn(start + map.repeat_offset + r * sizeof(uint64_t));
      }
    }
  }
}

class TypeRegistry {
 public:
  static TypeRegistry& Instance();

  // ---- Declarative registration (preferred) ----
  //
  // Register<T>(&T::a, &T::b, ...): each argument is a pointer-to-member of
  // T. Plain members must be native pointers (compile-checked); a member of
  // array-of-pointer type becomes the record's repeat region with the array
  // extent as its count. Register<T>() with no fields declares a leaf.
  template <typename T, typename... M>
  puddles::Status Register(M T::*... fields) {
    static_assert(std::is_standard_layout_v<T>,
                  "persistent types must be standard-layout for pointer maps");
    return RegisterSpecs<T>({NormalizeField<T>(fields)...});
  }

  // ---- Offset-list registration (wire-level escape hatch) ----
  //
  // Registers T with the byte offsets of its pointer fields. Offsets come
  // from offsetof(); every field must hold a native pointer into puddle
  // space (or null). Re-registration with identical content is a no-op.
  // Prefer the member-pointer overload above: hand-written offsets drift.
  template <typename T>
  puddles::Status Register(std::initializer_list<size_t> pointer_offsets) {
    return RegisterWithArray<T>(pointer_offsets, 0, 0);
  }

  // Like Register, plus a homogeneous pointer-array region: `array_count`
  // consecutive pointer slots starting at byte `array_offset`. This is how
  // wide nodes whose fan-out exceeds kMaxPtrFields (ART Node48/Node256) stay
  // relocatable without bloating every record to the widest fan-out.
  template <typename T>
  puddles::Status RegisterWithArray(std::initializer_list<size_t> pointer_offsets,
                                    size_t array_offset, size_t array_count) {
    static_assert(std::is_standard_layout_v<T>,
                  "persistent types must be standard-layout for offsetof maps");
    puddled::PtrMapRecord record{};
    record.type_id = TypeIdOf<T>();
    record.object_size = sizeof(T);
    record.num_fields = 0;
    for (size_t offset : pointer_offsets) {
      if (record.num_fields >= puddled::kMaxPtrFields) {
        return InvalidArgumentError("too many pointer fields for one type");
      }
      if (offset + sizeof(void*) > sizeof(T)) {
        return InvalidArgumentError("pointer field offset outside object");
      }
      record.field_offsets[record.num_fields++] = static_cast<uint32_t>(offset);
    }
    if (array_count != 0) {
      if (array_offset + array_count * sizeof(void*) > sizeof(T)) {
        return InvalidArgumentError("pointer-array region outside object");
      }
      record.repeat_offset = static_cast<uint32_t>(array_offset);
      record.repeat_count = static_cast<uint32_t>(array_count);
    }
    return Add(record);
  }

  // A leaf type: no pointers. Registering leaves is optional but lets
  // relocation distinguish "no pointers" from "unknown type".
  template <typename T>
  puddles::Status RegisterLeaf() {
    puddled::PtrMapRecord record{};
    record.type_id = TypeIdOf<T>();
    record.object_size = sizeof(T);
    record.num_fields = 0;
    return Add(record);
  }

  // Validates the record (field/repeat bounds vs object_size, kMaxPtrFields,
  // arity vs sizeof) and inserts it. Registering a conflicting map for an
  // already-registered type is AlreadyExists; an identical map is a no-op.
  puddles::Status Add(const puddled::PtrMapRecord& record);
  puddles::Result<puddled::PtrMapRecord> Lookup(TypeId type_id) const;
  bool Contains(TypeId type_id) const;

  std::vector<puddled::PtrMapRecord> Snapshot() const;

  // Merges records fetched from the daemon (e.g. after import).
  puddles::Status Merge(const puddled::PtrMapRecord& record) { return Add(record); }

 private:
  TypeRegistry() = default;

  // Normalizes one member designator: scalar pointer member or
  // array-of-pointer member (⇒ repeat region with the deduced extent).
  template <typename T, typename M>
  static PtrFieldSpec NormalizeField(M T::*field) {
    if constexpr (std::is_array_v<M>) {
      static_assert(std::is_pointer_v<std::remove_extent_t<M>>,
                    "pointer-map array fields must be arrays of native pointers");
      return PtrFieldSpec{MemberOffset(field), std::extent_v<M>};
    } else {
      static_assert(std::is_pointer_v<M>,
                    "pointer-map fields must be native pointers (did you pass a "
                    "non-pointer member to PUDDLES_TYPE / Register<T>?)");
      return PtrFieldSpec{MemberOffset(field), 0};
    }
  }

  template <typename T>
  puddles::Status RegisterSpecs(std::initializer_list<PtrFieldSpec> specs) {
    puddled::PtrMapRecord record{};
    record.type_id = TypeIdOf<T>();
    record.object_size = sizeof(T);
    record.num_fields = 0;
    for (const PtrFieldSpec& spec : specs) {
      if (spec.repeat_count != 0) {
        if (record.repeat_count != 0) {
          return InvalidArgumentError("a pointer map holds at most one pointer-array region");
        }
        record.repeat_offset = static_cast<uint32_t>(spec.offset);
        record.repeat_count = static_cast<uint32_t>(spec.repeat_count);
        continue;
      }
      if (record.num_fields >= puddled::kMaxPtrFields) {
        return InvalidArgumentError("too many pointer fields for one type");
      }
      record.field_offsets[record.num_fields++] = static_cast<uint32_t>(spec.offset);
    }
    return Add(record);
  }

  mutable std::mutex mu_;
  std::unordered_map<TypeId, puddled::PtrMapRecord> maps_;
};

}  // namespace puddles

// Declarative pointer-map registration for application code:
//
//   PUDDLES_TYPE(TodoItem, &TodoItem::next);
//   PUDDLES_TYPE(Node256, &Node256::children);  // array ⇒ repeat region
//   PUDDLES_TYPE(Blob);                         // leaf: no pointers
//
// Every field is a pointer-to-member: offsets are derived, arity and bounds
// are validated against sizeof(T), and a non-pointer member fails to
// compile. Registration errors (e.g. conflicting re-registration) are
// swallowed here — use TypeRegistry::Instance().Register<T>(...) directly
// when the Status matters.
#define PUDDLES_TYPE(T, ...) \
  (void)::puddles::TypeRegistry::Instance().Register<T>(__VA_ARGS__)

#endif  // SRC_LIBPUDDLES_TYPE_REGISTRY_H_
