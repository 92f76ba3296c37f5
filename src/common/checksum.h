// Checksums used by the log format (paper Fig. 6: "the checksum, like in PMDK,
// allows the recovery code to identify and skip any entry that only partially
// persisted because of a crash") and by the persistent hashmap.
#ifndef SRC_COMMON_CHECKSUM_H_
#define SRC_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace puddles {

// CRC-32C (Castagnoli); `seed` allows incremental computation over
// discontiguous buffers. On x86-64 it runs the SSE4.2 `crc32` instruction
// when cpuid reports it (checked once), and a slice-by-8 table otherwise.
// Both give the same values, so a checksum written by either validates
// under the other.
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

// The two implementations Crc32c chooses between, exposed for tests.
// Crc32cHardware may be called only when Crc32cHardwareAvailable().
uint32_t Crc32cTable(const void* data, size_t size, uint32_t seed = 0);
bool Crc32cHardwareAvailable();
uint32_t Crc32cHardware(const void* data, size_t size, uint32_t seed = 0);

// 64-bit FNV-1a. Used for type identifiers and hash table mixing.
constexpr uint64_t kFnv64OffsetBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnv64Prime = 0x100000001b3ULL;

constexpr uint64_t Fnv1a64(const char* data, size_t size, uint64_t seed = kFnv64OffsetBasis) {
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnv64Prime;
  }
  return hash;
}

uint64_t Fnv1a64(const void* data, size_t size);

}  // namespace puddles

#endif  // SRC_COMMON_CHECKSUM_H_
