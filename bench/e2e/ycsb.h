// Input generation owned by the benchmark: a seeded PRNG, YCSB's scrambled
// zipfian key chooser, and the key/value encodings. Vendored rather than
// taken from src/workloads/ycsb.h so that an edit there cannot change the
// inputs this benchmark measures.
#ifndef BENCH_E2E_YCSB_H_
#define BENCH_E2E_YCSB_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace e2e {

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// xoshiro256** seeded through SplitMix64 (Blackman & Vigna).
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& word : s_) {
      seed = SplitMix64(seed);
      word = seed;
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, n) (multiply-shift; bias below 2^-32 for the n used here).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

// YCSB's ScrambledZipfianGenerator: ranks drawn from a zipfian over `items`
// (Gray et al., constant theta), then hashed so the popular ranks scatter
// over the key space instead of clustering at its start.
class ScrambledZipfian {
 public:
  explicit ScrambledZipfian(uint64_t items, double theta = 0.99) : items_(items), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= items_; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1 - std::pow(2.0 / static_cast<double>(items_), 1 - theta_)) / (1 - zeta2 / zetan_);
    half_pow_theta_ = std::pow(0.5, theta_);
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    uint64_t rank = 0;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + half_pow_theta_) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(items_) *
                                   std::pow(eta_ * u - eta_ + 1, alpha_));
    }
    return Fnv64(rank) % items_;
  }

 private:
  static uint64_t Fnv64(uint64_t value) {
    uint64_t hash = 0xCBF29CE484222325ULL;
    for (int i = 0; i < 8; ++i) {
      hash ^= value & 0xFF;
      hash *= 0x100000001B3ULL;
      value >>= 8;
    }
    return hash;
  }

  uint64_t items_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0, half_pow_theta_ = 0;
};

// Keys are YCSB's "user" + 16 zero-padded decimal digits (20 bytes).
inline constexpr size_t kKeyLen = 20;

struct KeyBuf {
  char bytes[kKeyLen + 1];
  std::string_view view() const { return {bytes, kKeyLen}; }
};

inline KeyBuf KeyFor(uint64_t index) {
  KeyBuf key;
  std::memcpy(key.bytes, "user", 4);
  for (int i = 19; i >= 4; --i) {
    key.bytes[i] = static_cast<char>('0' + index % 10);
    index /= 10;
  }
  key.bytes[kKeyLen] = '\0';
  return key;
}

// A value encodes its key and a per-key version: words 0 and 1 hold them, the
// rest is a pseudo-random function of both. A stale, torn or misplaced value
// cannot pass as the expected one.
inline constexpr size_t kValueLen = 64;

inline void FillValue(uint64_t key_index, uint64_t version, char* out) {
  uint64_t words[kValueLen / 8];
  words[0] = key_index;
  words[1] = version;
  for (size_t i = 2; i < kValueLen / 8; ++i) {
    words[i] = SplitMix64(key_index * 0x9E3779B97F4A7C15ULL ^ (version << 8) ^ i);
  }
  std::memcpy(out, words, kValueLen);
}

inline bool ValueMatches(uint64_t key_index, uint64_t version, const char* value) {
  char expected[kValueLen];
  FillValue(key_index, version, expected);
  return std::memcmp(expected, value, kValueLen) == 0;
}

}  // namespace e2e

#endif  // BENCH_E2E_YCSB_H_
