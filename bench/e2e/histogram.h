// Log-linear latency histogram owned by the benchmark (not src/stats).
//
// Values (TSC ticks) land in 128 linear sub-buckets per power of two, so a
// bucket is at most 0.8% wide. Percentiles interpolate linearly by rank inside
// the bucket that holds them, so a reported p50 moves continuously with the
// data instead of snapping to bucket midpoints.
#ifndef BENCH_E2E_HISTOGRAM_H_
#define BENCH_E2E_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace e2e {

class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = 1ULL << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void Record(uint64_t value) {
    ++buckets_[BucketFor(value)];
    ++count_;
    sum_ += value;
    max_ = std::max(max_, value);
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
  }

  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Value at percentile p in [0, 100]; 0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) {
      return 0;
    }
    const double rank = std::clamp(p / 100.0, 0.0, 1.0) * static_cast<double>(count_);
    double seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) {
        continue;
      }
      const double n = static_cast<double>(buckets_[i]);
      if (seen + n >= rank) {
        const double lo = static_cast<double>(LowerBound(i));
        const double width = static_cast<double>(LowerBound(i + 1) - LowerBound(i));
        const double value = lo + width * std::clamp((rank - seen) / n, 0.0, 1.0);
        return std::min(value, static_cast<double>(max_));
      }
      seen += n;
    }
    return static_cast<double>(max_);
  }

 private:
  static size_t BucketFor(uint64_t value) {
    if (value < kSub) {
      return static_cast<size_t>(value);
    }
    const int msb = 63 - __builtin_clzll(value);
    const int octave = msb - kSubBits + 1;
    const uint64_t sub = (value >> (msb - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(octave) * kSub + static_cast<size_t>(sub);
  }

  static uint64_t LowerBound(size_t bucket) {
    if (bucket < kSub) {
      return bucket;
    }
    const uint64_t octave = bucket >> kSubBits;
    const uint64_t sub = bucket & (kSub - 1);
    return (kSub + sub) << (octave - 1);
  }

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

}  // namespace e2e

#endif  // BENCH_E2E_HISTOGRAM_H_
