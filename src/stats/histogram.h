// Fixed-bucket log-scale latency histogram (HdrHistogram-lite).
//
// Values land in log-linear buckets: 32 linear sub-buckets per power-of-two
// octave, so any recorded value is represented with ≤ 1/32 (~3.1%) relative
// error across the full uint64 range. The bucket array is fixed at compile
// time — recording is a branch, a bit-scan, and a bucket, sum and max
// update; no allocation ever. Histograms are mergeable (bucket-wise
// addition), which is how the process-wide recording set is read into a
// snapshot (src/stats/stats.h) and how bench shards combine.
//
// Units are whatever the caller records — the stats layer records raw TSC
// ticks and converts to nanoseconds at report time (stats::TicksToNanos), so
// the recording path never pays for clock scaling.
#ifndef SRC_STATS_HISTOGRAM_H_
#define SRC_STATS_HISTOGRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace puddles {
namespace stats {

// Log-linear bucket geometry, shared by the recording (atomic, shared) and
// snapshot (plain, mergeable) representations.
struct BucketScale {
  // 2^kSubBucketBits linear sub-buckets per octave → 1/32 relative error.
  static constexpr int kSubBucketBits = 5;
  static constexpr uint64_t kSubBuckets = 1ULL << kSubBucketBits;
  // Octave 0 holds values [0, 32) exactly; octaves 1..59 cover the rest of
  // the uint64 range at 32 sub-buckets each.
  static constexpr size_t kNumOctaves = 64 - kSubBucketBits;  // 59 + octave 0
  static constexpr size_t kNumBuckets = (kNumOctaves + 1) * kSubBuckets;

  static constexpr size_t BucketFor(uint64_t value) {
    if (value < kSubBuckets) {
      return static_cast<size_t>(value);  // Octave 0: exact.
    }
    // Octave o ≥ 1 covers [2^(o+4), 2^(o+5)); the top 5 bits below the
    // leading bit select the linear sub-bucket.
    const int msb = 63 - __builtin_clzll(value);
    const int octave = msb - kSubBucketBits + 1;
    const uint64_t sub = (value >> (msb - kSubBucketBits)) & (kSubBuckets - 1);
    return static_cast<size_t>(octave) * kSubBuckets + static_cast<size_t>(sub);
  }

  // Lowest value mapping to `bucket` (inverse of BucketFor).
  static constexpr uint64_t BucketLowerBound(size_t bucket) {
    if (bucket < kSubBuckets) {
      return bucket;
    }
    const uint64_t octave = bucket >> kSubBucketBits;
    const uint64_t sub = bucket & (kSubBuckets - 1);
    return (kSubBuckets + sub) << (octave - 1);
  }

  // Midpoint of the bucket's value range — the representative reported for
  // percentiles (halves the worst-case quantization error).
  static constexpr uint64_t BucketMidpoint(size_t bucket) {
    if (bucket < kSubBuckets) {
      return bucket;
    }
    const uint64_t lo = BucketLowerBound(bucket);
    const uint64_t width = 1ULL << ((bucket >> kSubBucketBits) - 1);
    return lo + width / 2;
  }
};

// Plain (non-atomic) histogram: the snapshot/merge/report representation,
// also usable directly by single-threaded recorders (bench_runner).
class Histogram {
 public:
  void Record(uint64_t value) { RecordN(value, 1); }

  void RecordN(uint64_t value, uint64_t count) {
    buckets_[BucketScale::BucketFor(value)] += count;
    count_ += count;
    sum_ += value * count;
    if (count > 0 && value > max_) {
      max_ = value;
    }
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < BucketScale::kNumBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) {
      max_ = other.max_;
    }
  }

  void Reset() { *this = Histogram(); }

  // Value at percentile p ∈ [0, 100]: the midpoint of the first bucket whose
  // cumulative count reaches ceil(p/100 · count). 0 when empty.
  uint64_t ValueAtPercentile(double p) const {
    if (count_ == 0) {
      return 0;
    }
    if (p < 0) p = 0;
    if (p > 100) p = 100;
    uint64_t target = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_) + 0.5);
    if (target == 0) {
      target = 1;
    }
    if (target > count_) {
      target = count_;
    }
    uint64_t seen = 0;
    for (size_t i = 0; i < BucketScale::kNumBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target) {
        // Clamp to the recorded max: the top bucket's midpoint can exceed it.
        const uint64_t mid = BucketScale::BucketMidpoint(i);
        return mid < max_ ? mid : max_;
      }
    }
    return max_;
  }

  uint64_t p50() const { return ValueAtPercentile(50); }
  uint64_t p90() const { return ValueAtPercentile(90); }
  uint64_t p99() const { return ValueAtPercentile(99); }
  uint64_t p999() const { return ValueAtPercentile(99.9); }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  uint64_t bucket(size_t i) const { return buckets_[i]; }

  // Raw-merge interface used by AtomicHistogram::MergeInto and stats::Delta:
  // bucket counts and the exact (sum, max) are transferred separately so
  // copies and differences stay exact instead of reconstructing sums from
  // bucket midpoints.
  void AddBucket(size_t i, uint64_t n) {
    buckets_[i] += n;
    count_ += n;
  }
  void AddSumMax(uint64_t sum, uint64_t max) {
    sum_ += sum;
    if (max > max_) {
      max_ = max;
    }
  }

 private:
  uint64_t buckets_[BucketScale::kNumBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

// Shared recording representation: any thread records, with relaxed
// fetch_add on the bucket and the sum and a CAS loop for the max, so records
// from many threads are all counted. These are locked instructions, paid
// only by the one operation in kSamplePeriod that is timed (stats.h), after
// its scope's fence. Snapshot totals are exact once writers have quiesced;
// mid-flight reads are a consistent-enough monitoring view (counts may trail
// sums by an in-progress record).
class AtomicHistogram {
 public:
  void Record(uint64_t value) {
    buckets_[BucketScale::BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t max = max_.load(std::memory_order_relaxed);
    while (value > max && !max_.compare_exchange_weak(max, value, std::memory_order_relaxed)) {
    }
  }

  void Reset() {
    for (size_t i = 0; i < BucketScale::kNumBuckets; ++i) {
      buckets_[i].store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  // Adds this histogram's contents into `out` (bucket-wise, exact sums).
  void MergeInto(Histogram* out) const {
    for (size_t i = 0; i < BucketScale::kNumBuckets; ++i) {
      const uint64_t n = buckets_[i].load(std::memory_order_relaxed);
      if (n != 0) {
        out->AddBucket(i, n);
      }
    }
    out->AddSumMax(sum_.load(std::memory_order_relaxed),
                   max_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> buckets_[BucketScale::kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};  // count is derivable from the buckets.
  std::atomic<uint64_t> max_{0};
};

}  // namespace stats
}  // namespace puddles

#endif  // SRC_STATS_HISTOGRAM_H_
