// Alignment and size arithmetic shared by allocators, log layout, and the PM
// substrate.
#ifndef SRC_COMMON_ALIGN_H_
#define SRC_COMMON_ALIGN_H_

#include <cstddef>
#include <cstdint>

namespace puddles {

inline constexpr size_t kCacheLineSize = 64;
inline constexpr size_t kPageSize = 4096;

constexpr bool IsPowerOfTwo(uint64_t value) { return value != 0 && (value & (value - 1)) == 0; }

constexpr uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

constexpr uint64_t AlignDown(uint64_t value, uint64_t alignment) {
  return value & ~(alignment - 1);
}

constexpr bool IsAligned(uint64_t value, uint64_t alignment) {
  return (value & (alignment - 1)) == 0;
}

inline bool IsAligned(const void* ptr, uint64_t alignment) {
  return IsAligned(reinterpret_cast<uintptr_t>(ptr), alignment);
}

// Index of the highest set bit; Log2Floor(1) == 0. Undefined for 0.
constexpr int Log2Floor(uint64_t value) { return 63 - __builtin_clzll(value); }

constexpr int Log2Ceil(uint64_t value) {
  return IsPowerOfTwo(value) ? Log2Floor(value) : Log2Floor(value) + 1;
}

constexpr uint64_t NextPowerOfTwo(uint64_t value) {
  return IsPowerOfTwo(value) ? value : 1ULL << (Log2Floor(value) + 1);
}

}  // namespace puddles

#endif  // SRC_COMMON_ALIGN_H_
