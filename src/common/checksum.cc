#include "src/common/checksum.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

#include <cstring>

namespace puddles {
namespace {

// Slice-by-8 CRC-32C tables, generated once at static-init time.
struct Crc32cTables {
  uint32_t table[8][256];

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82f63b78;  // Reflected Castagnoli polynomial.
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      table[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int slice = 1; slice < 8; ++slice) {
        table[slice][i] = (table[slice - 1][i] >> 8) ^ table[0][table[slice - 1][i] & 0xff];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

bool DetectCrc32Instruction() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_SSE4_2) != 0;
#else
  return false;
#endif
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  return Crc32cHardwareAvailable() ? Crc32cHardware(data, size, seed)
                                   : Crc32cTable(data, size, seed);
}

bool Crc32cHardwareAvailable() {
  static const bool hardware = DetectCrc32Instruction();
  return hardware;
}

#if defined(__x86_64__)
// The instruction folds the reflected Castagnoli polynomial without the
// pre/post inversion, which stays here, as in the table path.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data, size_t size,
                                                          uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  while (size-- > 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
  }
  return ~crc32;
}
#else
uint32_t Crc32cHardware(const void* data, size_t size, uint32_t seed) {
  return Crc32cTable(data, size, seed);
}
#endif

uint32_t Crc32cTable(const void* data, size_t size, uint32_t seed) {
  const auto& t = Tables().table;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  while (size >= 8) {
    uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
                         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][(lo >> 24) & 0xff] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xff];
  }
  return ~crc;
}

uint64_t Fnv1a64(const void* data, size_t size) {
  return Fnv1a64(static_cast<const char*>(data), size);
}

}  // namespace puddles
