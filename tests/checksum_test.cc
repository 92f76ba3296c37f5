#include "src/common/checksum.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace puddles {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC-32C test vectors.
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  // 32 zero bytes (RFC 3720 test vector).
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // 32 0xff bytes.
  std::vector<uint8_t> ones(32, 0xff);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62a8ab43u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t one_shot = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t first = Crc32c(data.data(), split);
    uint32_t combined = Crc32c(data.data() + split, data.size() - split, first);
    EXPECT_EQ(combined, one_shot) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(256);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 17) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(Crc32c(data.data(), data.size()), clean)
          << "undetected flip at byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<uint8_t>(1u << bit);
    }
  }
}

TEST(Crc32cTest, UnalignedInputsAgree) {
  std::vector<uint8_t> buffer(300);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i);
  }
  // Checksumming the same bytes from differently aligned copies must agree.
  uint32_t expected = Crc32c(buffer.data() + 1, 256);
  std::vector<uint8_t> copy(buffer.begin() + 1, buffer.begin() + 257);
  EXPECT_EQ(Crc32c(copy.data(), 256), expected);
}

// The SSE4.2 path and the table path must agree byte for byte: log entries
// and pmhash slots written by either validate under the other.
TEST(Crc32cTest, HardwareMatchesTable) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  std::vector<uint8_t> buffer(256 + 8);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  for (uint32_t seed : {0u, 1u, 0xe3069283u, 0xffffffffu}) {
    for (size_t start = 0; start < 8; ++start) {
      for (size_t length = 0; length <= 256; ++length) {
        const uint8_t* p = buffer.data() + start;
        ASSERT_EQ(Crc32cHardware(p, length, seed), Crc32cTable(p, length, seed))
            << "seed " << seed << " start " << start << " length " << length;
      }
    }
  }
  EXPECT_EQ(Crc32cHardware("123456789", 9), 0xe3069283u);
}

TEST(Fnv1a64Test, KnownVectors) {
  EXPECT_EQ(Fnv1a64("", 0), kFnv64OffsetBasis);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64Test, ConstexprUsable) {
  constexpr uint64_t h = Fnv1a64("puddles", 7);
  static_assert(h != 0, "compile-time FNV must work");
  EXPECT_EQ(h, Fnv1a64(static_cast<const void*>("puddles"), 7));
}

TEST(Fnv1a64Test, DifferentStringsDiffer) {
  EXPECT_NE(Fnv1a64("node_t", 6), Fnv1a64("node_u", 6));
  EXPECT_NE(Fnv1a64("a", 1), Fnv1a64("b", 1));
}

}  // namespace
}  // namespace puddles
