#include "src/pmem/flush.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>

#include "src/common/align.h"
#include "src/stats/stats.h"

namespace pmem {
namespace {

using puddles::stats::Counter;

std::atomic<PersistObserver*> g_observer{nullptr};
std::atomic<int> g_observer_inflight{0};

// Invokes the observer under an in-flight count so SetPersistObserver(nullptr)
// can drain concurrent callers before the observer is destroyed. The
// increment and the re-load must be seq_cst to pair with the clearing
// thread's seq_cst null store: with weaker orders the classic store-buffering
// outcome lets the drain read inflight==0 while this thread still reads the
// old observer pointer.
template <typename Fn>
inline void NotifyObserver(Fn&& fn) {
  if (g_observer.load(std::memory_order_acquire) == nullptr) {
    return;
  }
  g_observer_inflight.fetch_add(1, std::memory_order_seq_cst);
  if (PersistObserver* observer = g_observer.load(std::memory_order_seq_cst)) {
    fn(observer);
  }
  g_observer_inflight.fetch_sub(1, std::memory_order_release);
}

#if defined(__x86_64__)

// clwb is encoded as 66 0F AE /6 — i.e. xsaveopt with a 66 prefix — and
// clflushopt as 66 0F AE /7 — clflush with a 66 prefix. Using the prefixed
// aliases avoids requiring -mclwb/-mclflushopt at compile time while still
// emitting the genuine instructions (the same trick PMDK uses).
inline void ClwbLine(const void* p) {
  asm volatile(".byte 0x66; xsaveopt %0"
               : "+m"(*static_cast<volatile char*>(const_cast<void*>(p))));
}

inline void ClflushOptLine(const void* p) {
  asm volatile(".byte 0x66; clflush %0"
               : "+m"(*static_cast<volatile char*>(const_cast<void*>(p))));
}

inline void ClflushLine(const void* p) {
  asm volatile("clflush %0" : "+m"(*static_cast<volatile char*>(const_cast<void*>(p))));
}

FlushInstruction DetectFlushInstruction() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    if (ebx & (1u << 24)) {
      return FlushInstruction::kClwb;
    }
    if (ebx & (1u << 23)) {
      return FlushInstruction::kClflushOpt;
    }
  }
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) && (edx & (1u << 19))) {
    return FlushInstruction::kClflush;
  }
  return FlushInstruction::kNoop;
}

#else

FlushInstruction DetectFlushInstruction() { return FlushInstruction::kNoop; }

#endif  // __x86_64__

FlushInstruction CachedFlushInstruction() {
  static const FlushInstruction instruction = DetectFlushInstruction();
  return instruction;
}

}  // namespace

FlushInstruction ActiveFlushInstruction() { return CachedFlushInstruction(); }

const char* FlushInstructionName(FlushInstruction instruction) {
  switch (instruction) {
    case FlushInstruction::kClwb:
      return "clwb";
    case FlushInstruction::kClflushOpt:
      return "clflushopt";
    case FlushInstruction::kClflush:
      return "clflush";
    case FlushInstruction::kNoop:
      return "noop";
  }
  return "?";
}

void Flush(const void* addr, size_t size) {
  if (size == 0) {
    return;
  }
  const uintptr_t start = puddles::AlignDown(reinterpret_cast<uintptr_t>(addr),
                                             puddles::kCacheLineSize);
  const uintptr_t end = reinterpret_cast<uintptr_t>(addr) + size;
  uint64_t lines = 0;
#if defined(__x86_64__)
  switch (CachedFlushInstruction()) {
    case FlushInstruction::kClwb:
      for (uintptr_t line = start; line < end; line += puddles::kCacheLineSize, ++lines) {
        ClwbLine(reinterpret_cast<const void*>(line));
      }
      break;
    case FlushInstruction::kClflushOpt:
      for (uintptr_t line = start; line < end; line += puddles::kCacheLineSize, ++lines) {
        ClflushOptLine(reinterpret_cast<const void*>(line));
      }
      break;
    case FlushInstruction::kClflush:
      for (uintptr_t line = start; line < end; line += puddles::kCacheLineSize, ++lines) {
        ClflushLine(reinterpret_cast<const void*>(line));
      }
      break;
    case FlushInstruction::kNoop:
      lines = (end - start + puddles::kCacheLineSize - 1) / puddles::kCacheLineSize;
      std::atomic_thread_fence(std::memory_order_release);
      break;
  }
#else
  lines = (end - start + puddles::kCacheLineSize - 1) / puddles::kCacheLineSize;
  std::atomic_thread_fence(std::memory_order_release);
#endif
  // Counted in the calling thread's slot with a plain load+store: a
  // lock-prefixed RMW here would wait for the write-backs just issued, as an
  // sfence does, and would bounce one line between threads.
  puddles::stats::ThreadSlot& slot = puddles::stats::LocalSlot();
  slot.Bump(Counter::kFlushCalls, 1);
  slot.Bump(Counter::kFlushLinesPublished, lines);
  NotifyObserver([&](PersistObserver* observer) { observer->OnFlushRange(addr, size); });
}

void Fence() {
#if defined(__x86_64__)
  asm volatile("sfence" ::: "memory");
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  puddles::stats::Add(Counter::kFences, 1);  // A plain bump; see Flush.
  NotifyObserver([](PersistObserver* observer) { observer->OnFence(); });
}

void SetPersistObserver(PersistObserver* observer) {
  g_observer.store(observer, std::memory_order_seq_cst);
  if (observer == nullptr) {
    // Drain in-flight callbacks so the caller may destroy the observer the
    // moment this returns, even with other threads mid-Flush/Fence.
    while (g_observer_inflight.load(std::memory_order_seq_cst) != 0) {
    }
  }
}

void FlushFence(const void* addr, size_t size) {
  Flush(addr, size);
  Fence();
}

void PersistStore64(uint64_t* dst, uint64_t value) {
  *dst = value;
  FlushFence(dst, sizeof(*dst));
}

void FlushBatch::Add(const void* addr, size_t size) {
  if (size == 0) {
    return;
  }
  const uintptr_t start = puddles::AlignDown(reinterpret_cast<uintptr_t>(addr),
                                             puddles::kCacheLineSize);
  const uintptr_t end = puddles::AlignUp(reinterpret_cast<uintptr_t>(addr) + size,
                                         puddles::kCacheLineSize);
  PUDDLES_COUNT_N(kFlushLinesStaged, (end - start) / puddles::kCacheLineSize);
  staged_bytes_ += end - start;
  // A range that overlaps or abuts the previous one extends it, so a
  // sequential walk stages one run instead of one range per call.
  if (!ranges_.empty() && start <= ranges_.back().second && ranges_.back().first <= end) {
    ranges_.back().first = std::min(ranges_.back().first, start);
    ranges_.back().second = std::max(ranges_.back().second, end);
    return;
  }
  ranges_.push_back({start, end});
}

void FlushBatch::Splice(FlushBatch* from) {
  if (from->ranges_.empty()) {
    return;
  }
  if (ranges_.empty()) {
    ranges_.swap(from->ranges_);
  } else {
    ranges_.insert(ranges_.end(), from->ranges_.begin(), from->ranges_.end());
    from->ranges_.clear();
  }
  staged_bytes_ += from->staged_bytes_;
  from->staged_bytes_ = 0;
}

// Sorts by start and merges overlapping/adjacent ranges into maximal runs,
// so each staged line is represented (and later flushed) exactly once.
void FlushBatch::MergeRanges() {
  std::sort(ranges_.begin(), ranges_.end());
  size_t out = 0;
  for (size_t i = 0; i < ranges_.size(); ++i) {
    if (out > 0 && ranges_[i].first <= ranges_[out - 1].second) {
      ranges_[out - 1].second = std::max(ranges_[out - 1].second, ranges_[i].second);
    } else {
      ranges_[out++] = ranges_[i];
    }
  }
  ranges_.resize(out);
}

size_t FlushBatch::pending_lines() {
  MergeRanges();
  size_t lines = 0;
  for (const auto& [start, end] : ranges_) {
    lines += (end - start) / puddles::kCacheLineSize;
  }
  return lines;
}

void FlushBatch::FlushPending() {
  if (ranges_.empty()) {
    return;
  }
  PUDDLES_COUNT(kFlushBatchPublish);
  MergeRanges();
  for (const auto& [start, end] : ranges_) {
    Flush(reinterpret_cast<const void*>(start), end - start);
  }
  ranges_.clear();
  staged_bytes_ = 0;
}

PersistStats ReadPersistStats() {
  static constexpr Counter kCounters[] = {Counter::kFlushLinesPublished,
                                          Counter::kFlushCalls, Counter::kFences};
  uint64_t totals[3] = {};
  puddles::stats::SumCounters(kCounters, totals);
  return {.flushed_lines = totals[0], .flush_calls = totals[1], .fences = totals[2]};
}

}  // namespace pmem
