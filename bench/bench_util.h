// Shared helpers for the figure/table benchmark binaries. Each binary
// regenerates one table or figure of the paper's evaluation; default sizes
// are scaled down from the paper's testbed runs so the whole suite completes
// in minutes — set PUDDLES_BENCH_SCALE=paper (or a number ≥ 1) for larger
// runs (see the PUDDLES_BENCH_SCALE paragraph in README.md).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

namespace bench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }
  double Nanos() const { return Seconds() * 1e9; }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Scale factor: 1 (default quick run) … N. "paper" selects the paper's sizes.
inline double ScaleFactor() {
  const char* env = std::getenv("PUDDLES_BENCH_SCALE");
  if (env == nullptr || *env == '\0') {
    return 1.0;
  }
  if (std::string(env) == "paper") {
    return 10.0;
  }
  return std::atof(env);
}

inline uint64_t Scaled(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * ScaleFactor());
}

// A fresh scratch directory for this benchmark run.
inline std::filesystem::path ScratchDir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() /
             ("puddles_bench_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n==========================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s   (scale=%.1f; PUDDLES_BENCH_SCALE to adjust)\n", paper_ref,
              ScaleFactor());
  std::printf("==========================================================================\n");
}

// Keeps the optimizer from eliding a computed value.
inline void DoNotOptimize(uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

}  // namespace bench

#endif  // BENCH_BENCH_UTIL_H_
