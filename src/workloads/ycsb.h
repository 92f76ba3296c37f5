// YCSB workload generator (Cooper et al., SoCC'10) for the Fig. 11 KV
// evaluation. Implements the standard core workloads A–F plus the paper's G:
//
//   A  50% read / 50% update          zipfian
//   B  95% read /  5% update          zipfian
//   C 100% read                       zipfian
//   D  95% read /  5% insert          latest
//   E  95% scan /  5% insert          zipfian
//   F  50% read / 50% read-modify-write  zipfian
//   G   5% read / 95% update          zipfian   (write-dominant; the standard
//      suite defines no G — this matches the paper's relative bar heights,
//      see DESIGN.md §4)
#ifndef SRC_WORKLOADS_YCSB_H_
#define SRC_WORKLOADS_YCSB_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/rng.h"

namespace workloads {

// Standard YCSB zipfian generator (Gray et al.'s algorithm): skewed item
// popularity with constant 0.99.
class ZipfianGenerator {
 public:
  explicit ZipfianGenerator(uint64_t items, double theta = 0.99)
      : items_(items), theta_(theta) {
    zetan_ = Zeta(items_);
    zeta2_ = Zeta(2);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1 - std::pow(2.0 / static_cast<double>(items_), 1 - theta_)) /
           (1 - zeta2_ / zetan_);
  }

  uint64_t Next(puddles::Xoshiro256& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
      return 1;
    }
    return static_cast<uint64_t>(static_cast<double>(items_) *
                                 std::pow(eta_ * u - eta_ + 1, alpha_));
  }

 private:
  double Zeta(uint64_t n) const {
    double sum = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    return sum;
  }

  uint64_t items_;
  double theta_;
  double zetan_, zeta2_, alpha_, eta_;
};

enum class YcsbOp { kRead, kUpdate, kInsert, kScan, kReadModifyWrite };

enum class YcsbWorkload : char { kA = 'A', kB = 'B', kC = 'C', kD = 'D', kE = 'E', kF = 'F', kG = 'G' };

struct YcsbRequest {
  YcsbOp op;
  uint64_t key_index;
  int scan_length;
};

// Generates the operation stream for one workload over `record_count` loaded
// records. Inserts extend the key space ("latest" distribution reads near the
// insertion frontier, as in workload D).
class YcsbStream {
 public:
  YcsbStream(YcsbWorkload workload, uint64_t record_count, uint64_t seed)
      : workload_(workload),
        record_count_(record_count),
        insert_cursor_(record_count),
        zipf_(record_count),
        rng_(seed) {}

  YcsbRequest Next() {
    YcsbRequest request{};
    const uint64_t dice = rng_.Below(100);
    switch (workload_) {
      case YcsbWorkload::kA:
        request.op = dice < 50 ? YcsbOp::kRead : YcsbOp::kUpdate;
        request.key_index = ZipfKey();
        break;
      case YcsbWorkload::kB:
        request.op = dice < 95 ? YcsbOp::kRead : YcsbOp::kUpdate;
        request.key_index = ZipfKey();
        break;
      case YcsbWorkload::kC:
        request.op = YcsbOp::kRead;
        request.key_index = ZipfKey();
        break;
      case YcsbWorkload::kD:
        if (dice < 95) {
          request.op = YcsbOp::kRead;
          request.key_index = LatestKey();
        } else {
          request.op = YcsbOp::kInsert;
          request.key_index = insert_cursor_++;
        }
        break;
      case YcsbWorkload::kE:
        if (dice < 95) {
          request.op = YcsbOp::kScan;
          request.key_index = ZipfKey();
          request.scan_length = static_cast<int>(1 + rng_.Below(100));
        } else {
          request.op = YcsbOp::kInsert;
          request.key_index = insert_cursor_++;
        }
        break;
      case YcsbWorkload::kF:
        request.op = dice < 50 ? YcsbOp::kRead : YcsbOp::kReadModifyWrite;
        request.key_index = ZipfKey();
        break;
      case YcsbWorkload::kG:
        request.op = dice < 5 ? YcsbOp::kRead : YcsbOp::kUpdate;
        request.key_index = ZipfKey();
        break;
    }
    return request;
  }

  static std::string KeyFor(uint64_t index) {
    char buf[kKvKeyMaxChars];
    std::snprintf(buf, sizeof(buf), "user%016llu", static_cast<unsigned long long>(index));
    return buf;
  }

 private:
  static constexpr size_t kKvKeyMaxChars = 25;  // "user", a u64's 20 digits, NUL.

  uint64_t ZipfKey() { return zipf_.Next(rng_) % record_count_; }

  // "Latest" distribution: skewed towards recently inserted keys.
  uint64_t LatestKey() {
    uint64_t offset = zipf_.Next(rng_) % record_count_;
    return (insert_cursor_ - 1) - offset % insert_cursor_;
  }

  YcsbWorkload workload_;
  uint64_t record_count_;
  uint64_t insert_cursor_;
  ZipfianGenerator zipf_;
  puddles::Xoshiro256 rng_;
};

}  // namespace workloads

#endif  // SRC_WORKLOADS_YCSB_H_
