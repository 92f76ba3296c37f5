// The benchmark's own ruler: a TSC tick clock converted to nanoseconds with a
// ratio calibrated against CLOCK_MONOTONIC over the whole run. Owned here so
// that a change to src/stats cannot change how the benchmark measures.
#ifndef BENCH_E2E_CLOCK_H_
#define BENCH_E2E_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace e2e {

inline uint64_t Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
#endif
}

class TickClock {
 public:
  // The process-wide clock; the first call anchors the calibration.
  static TickClock& Get() {
    static TickClock clock;
    return clock;
  }

  // Nanoseconds per tick from the anchor to now. The longer the process has
  // run, the more exact the ratio; the constructor waits long enough that an
  // early call is already within ~0.1%.
  double NanosPerTick() const {
    const uint64_t ticks = Ticks() - anchor_ticks_;
    const double nanos = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - anchor_time_)
                             .count();
    return ticks == 0 ? 1.0 : nanos / static_cast<double>(ticks);
  }

  double ToNanos(uint64_t ticks) const { return static_cast<double>(ticks) * NanosPerTick(); }
  double ToSeconds(uint64_t ticks) const { return ToNanos(ticks) * 1e-9; }
  uint64_t FromSeconds(double seconds) const {
    return static_cast<uint64_t>(seconds * 1e9 / NanosPerTick());
  }

 private:
  TickClock() : anchor_ticks_(Ticks()), anchor_time_(std::chrono::steady_clock::now()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  const uint64_t anchor_ticks_;
  const std::chrono::steady_clock::time_point anchor_time_;
};

}  // namespace e2e

#endif  // BENCH_E2E_CLOCK_H_
