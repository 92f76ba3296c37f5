// Pointer-map registries (paper §4.2).
//
// "Puddles solve this problem by requiring the application to register
// pointer maps with Puddled for each persistent type used by the application.
// These pointer maps are simply a list, where each element contains the
// offset of a pointer within the object."
//
// Types register once per process (usually at static-init or startup) in
// TypeRegistry::Instance(). A pool records a registered type's map at the
// type's first allocation in it (DESIGN.md §7), and relocation and the arena
// GC read the pool's maps before this registry's. Each Pool keeps its
// recorded maps in a TypeRegistry of its own.
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
// overloads remain as the record-level escape hatch (tests).
#ifndef SRC_LIBPUDDLES_TYPE_REGISTRY_H_
#define SRC_LIBPUDDLES_TYPE_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "src/common/status.h"
#include "src/common/type_name.h"
#include "src/puddles/pool_meta.h"

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

// Visits every pointer slot of an object laid out by `map`, which passed
// ValidatePtrMap, as every map a TypeRegistry holds has: fn(offset) gets each
// slot's byte offset from the object's start. Arrays of T stride by
// sizeof(T); each element's fields come first, then its repeat region. The
// walk covers whole elements within the first `extent` bytes, and callers
// pass min(header size, allocation capacity): a corrupt or inflated size must
// not send the walk into allocator slack or a neighboring slot.
// Relocation and reachability both walk objects through this one function.
template <typename Fn>
void ForEachPointerSlot(const PtrMapRecord& map, uint64_t extent, Fn&& fn) {
  if (map.num_fields == 0 && map.repeat_count == 0) {
    return;
  }
  const uint64_t count = extent / map.object_size;
  for (uint64_t element = 0; element < count; ++element) {
    const uint64_t start = element * map.object_size;
    for (uint32_t field = 0; field < map.num_fields; ++field) {
      fn(start + map.field_offsets[field]);
    }
    for (uint32_t r = 0; r < map.repeat_count; ++r) {
      fn(start + map.repeat_offset + r * sizeof(uint64_t));
    }
  }
}

// Where relocation and reachability find a type's pointer map; nullptr when
// none is known. The runtime's is Pool::LookupPtrMap.
using PtrMapLookup = std::function<const PtrMapRecord*(TypeId)>;

class TypeRegistry {
 public:
  // The process registry, which Register and PUDDLES_TYPE fill.
  static TypeRegistry& Instance();

  // An empty registry: each Pool holds one for the maps it has recorded.
  TypeRegistry() = default;

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
    return AddSpecs(TypeIdOf<T>(), sizeof(T), {NormalizeField<T>(fields)...});
  }

  // ---- Offset-list registration (record-level escape hatch) ----
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
    std::vector<PtrFieldSpec> specs;
    for (size_t offset : pointer_offsets) {
      specs.push_back({offset, 0});
    }
    if (array_count != 0) {
      specs.push_back({array_offset, array_count});
    }
    return AddSpecs(TypeIdOf<T>(), sizeof(T), specs);
  }

  // A leaf type: no pointers. Registering leaves is optional but lets
  // relocation distinguish "no pointers" from "unknown type".
  template <typename T>
  puddles::Status RegisterLeaf() {
    return AddSpecs(TypeIdOf<T>(), sizeof(T), {});
  }

  // Sorts the field offsets (their order is not part of the map), validates
  // the record (ValidatePtrMap) and inserts it. A conflicting map for a
  // present type is AlreadyExists; an identical one is a no-op.
  puddles::Status Add(PtrMapRecord record);

  // The map for `type_id`, or nullptr. Lock-free, so the allocation path can
  // ask on every call; the record stays valid as long as the registry.
  const PtrMapRecord* Lookup(TypeId type_id) const;

 private:
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

  // Builds the record of a type of `object_size` bytes from its fields and
  // adds it (Add).
  puddles::Status AddSpecs(TypeId type_id, size_t object_size,
                           const std::vector<PtrFieldSpec>& specs);

  // An append-only record array published by its count: Add writes the
  // next slot, then release-stores the count, and Lookup acquire-loads the
  // count and scans. A full table is copied into one twice its size; the
  // old one stays allocated for lookups still scanning it.
  struct Table {
    explicit Table(size_t capacity) : records(capacity) {}
    std::vector<PtrMapRecord> records;
    std::atomic<size_t> count{0};
  };

  std::mutex mu_;  // Serializes Add.
  std::atomic<Table*> table_{nullptr};
  std::vector<std::unique_ptr<Table>> tables_;  // Every table published.
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
