#include "src/stats/stats.h"

#include <time.h>

#include <algorithm>
#include <iterator>
#include <mutex>
#include <numeric>
#include <vector>

namespace puddles {
namespace stats {
namespace {

constexpr const char* kCounterNames[] = {
    "tx_begin",
    "tx_commit",
    "tx_abort",
    "undo_append",
    "undo_elided",
    "redo_append",
    "volatile_append",
    "log_bytes",
    "log_chain",
    "fences",
    "flush_calls",
    "flush_lines_published",
    "flush_lines_staged",
    "flush_batch_publish",
    "buddy_alloc",
    "buddy_free",
    "slab_alloc",
    "slab_free",
    "slab_carve",
    "slab_retire",
    "alloc_bytes",
    "free_bytes",
    "pool_grow",
    "epoch_advanced",
    "epoch_txs",
    "epoch_staged_bytes",
    "epoch_publish_cycles",
    "epoch_publish_waits",
    "epoch_sync_waits",
    "daemon_request",
    "daemon_conn_accepted",
    "daemon_conn_closed",
    "daemon_accept_retry",
    "arena_alloc",
    "arena_free",
    "arena_refill_slabs",
    "arena_flush_slabs",
    "arena_remote_free",
    "arena_orphan_adopt",
    "arena_gc_slabs",
    "arena_gc_reclaimed",
};
static_assert(sizeof(kCounterNames) / sizeof(kCounterNames[0]) == kNumCounters,
              "counter name table out of sync with the Counter enum");

constexpr const char* kHistNames[] = {
    "tx_commit_ns",
    "flush_publish_ns",
    "daemon_service_ns",
    "epoch_sync_wait_ns",
};
static_assert(sizeof(kHistNames) / sizeof(kHistNames[0]) == kNumHists,
              "histogram name table out of sync with the Hist enum");

uint64_t MonotonicNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Owns the live-slot list, the counter totals of exited threads and the
// process-wide histograms. Allocated on the heap and leaked on purpose
// (never destroyed) so thread-exit retirement and late records can never
// race static destruction order.
class Registry {
 public:
  static Registry& Instance() {
    static Registry* registry = new Registry();
    return *registry;
  }

  AtomicHistogram* histograms() { return hists_; }

  ThreadSlot* Register() {
    ThreadSlot* slot = new ThreadSlot();
    std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(slot);
    return slot;
  }

  void Retire(ThreadSlot* slot) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i] == slot) {
        slots_[i] = slots_.back();
        slots_.pop_back();
        AddCounters(*slot, retired_.counters, retired_.daemon_ops);
        ++retired_.threads;
        delete slot;
        return;
      }
    }
  }

  Snapshot Aggregate() {
    Snapshot out;
    std::lock_guard<std::mutex> lock(mu_);
    std::copy(std::begin(retired_.counters), std::end(retired_.counters), out.counters);
    std::copy(std::begin(retired_.daemon_ops), std::end(retired_.daemon_ops), out.daemon_ops);
    for (ThreadSlot* slot : slots_) {
      AddCounters(*slot, out.counters, out.daemon_ops);
    }
    for (size_t i = 0; i < kNumHists; ++i) {
      hists_[i].MergeInto(&out.hists[i]);
    }
    out.live_threads = slots_.size();
    out.retired_threads = retired_.threads;
    return out;
  }

  void SumCounters(std::span<const Counter> counters, std::span<uint64_t> out) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < counters.size(); ++i) {
      const size_t c = static_cast<size_t>(counters[i]);
      uint64_t total = retired_.counters[c];
      for (ThreadSlot* slot : slots_) {
        total += slot->counters[c].load(std::memory_order_relaxed);
      }
      out[i] = total;
    }
  }

  void ResetForTesting() {
    std::lock_guard<std::mutex> lock(mu_);
    retired_ = Retired();
    for (ThreadSlot* slot : slots_) {
      for (size_t i = 0; i < kNumCounters; ++i) {
        slot->counters[i].store(0, std::memory_order_relaxed);
      }
      for (size_t i = 0; i < kMaxDaemonOps; ++i) {
        slot->daemon_ops[i].store(0, std::memory_order_relaxed);
      }
    }
    for (AtomicHistogram& hist : hists_) {
      hist.Reset();
    }
  }

 private:
  // What exited threads leave behind: their counters. Their samples are
  // already in the process-wide histograms.
  struct Retired {
    uint64_t counters[kNumCounters] = {};
    uint64_t daemon_ops[kMaxDaemonOps] = {};
    uint64_t threads = 0;
  };

  static void AddCounters(const ThreadSlot& slot, uint64_t* counters, uint64_t* daemon_ops) {
    for (size_t i = 0; i < kNumCounters; ++i) {
      counters[i] += slot.counters[i].load(std::memory_order_relaxed);
    }
    for (size_t i = 0; i < kMaxDaemonOps; ++i) {
      daemon_ops[i] += slot.daemon_ops[i].load(std::memory_order_relaxed);
    }
  }

  std::mutex mu_;
  std::vector<ThreadSlot*> slots_;
  Retired retired_;
  AtomicHistogram hists_[kNumHists];
};

// Retires this thread's slot when the thread exits. A separate object from
// the fast-path pointer so the latter stays a trivial thread_local.
struct SlotOwner {
  ThreadSlot* slot = nullptr;
  ~SlotOwner() {
    if (slot != nullptr) {
      internal::tls_slot = nullptr;
      Registry::Instance().Retire(slot);
    }
  }
};

thread_local SlotOwner tls_owner;

}  // namespace

const char* CounterName(Counter counter) {
  const size_t i = static_cast<size_t>(counter);
  return i < kNumCounters ? kCounterNames[i] : "?";
}

const char* HistName(Hist hist) {
  const size_t i = static_cast<size_t>(hist);
  return i < kNumHists ? kHistNames[i] : "?";
}

namespace internal {

constinit thread_local ThreadSlot* tls_slot = nullptr;
constinit thread_local OpSampler tls_sampler;

uint32_t FirstCountdown() {
  // A stride coprime with the period visits every phase before any repeats.
  constexpr uint32_t kPhaseStride = 39;
  static_assert(std::gcd(kPhaseStride, kSamplePeriod) == 1);
  static std::atomic<uint32_t> next_phase{0};
  return 1 + next_phase.fetch_add(kPhaseStride, std::memory_order_relaxed) % kSamplePeriod;
}

ThreadSlot& Slot() {
  if (tls_slot == nullptr) {
    tls_owner.slot = Registry::Instance().Register();
    tls_slot = tls_owner.slot;
  }
  return *tls_slot;
}

AtomicHistogram* Histograms() { return Registry::Instance().histograms(); }

}  // namespace internal

Snapshot Aggregate() { return Registry::Instance().Aggregate(); }

void SumCounters(std::span<const Counter> counters, std::span<uint64_t> out) {
  Registry::Instance().SumCounters(counters, out);
}

Snapshot Delta(const Snapshot& after, const Snapshot& before) {
  Snapshot out;
  for (size_t i = 0; i < kNumCounters; ++i) {
    out.counters[i] = after.counters[i] - before.counters[i];
  }
  for (size_t i = 0; i < kMaxDaemonOps; ++i) {
    out.daemon_ops[i] = after.daemon_ops[i] - before.daemon_ops[i];
  }
  for (size_t h = 0; h < kNumHists; ++h) {
    // Bucket-wise difference; meaningful for quiesced before/after pairs.
    for (size_t b = 0; b < BucketScale::kNumBuckets; ++b) {
      const uint64_t n = after.hists[h].bucket(b) - before.hists[h].bucket(b);
      if (n != 0) {
        out.hists[h].AddBucket(b, n);
      }
    }
    out.hists[h].AddSumMax(after.hists[h].sum() - before.hists[h].sum(),
                           after.hists[h].max());
  }
  out.live_threads = after.live_threads;
  out.retired_threads = after.retired_threads - before.retired_threads;
  return out;
}

void ResetForTesting() { Registry::Instance().ResetForTesting(); }

#if defined(__x86_64__)

uint64_t NowTicks() {
  uint32_t lo, hi;
  asm volatile("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

namespace {
// (ticks, ns) pair captured at static-init; the tick→ns ratio is re-derived
// from the elapsed pair at every conversion, so it self-corrects over time
// and needs no upfront calibration spin.
struct TickBase {
  uint64_t ticks = NowTicks();
  uint64_t ns = MonotonicNanos();
};
const TickBase g_tick_base;
}  // namespace

uint64_t TicksToNanos(uint64_t ticks) {
  uint64_t elapsed_ticks = NowTicks() - g_tick_base.ticks;
  // Guard the ratio against a call in the first instants after base capture.
  while (elapsed_ticks < 100000) {
    elapsed_ticks = NowTicks() - g_tick_base.ticks;
  }
  const uint64_t elapsed_ns = MonotonicNanos() - g_tick_base.ns;
  const double ratio = static_cast<double>(elapsed_ns) / static_cast<double>(elapsed_ticks);
  return static_cast<uint64_t>(static_cast<double>(ticks) * ratio);
}

#else  // !__x86_64__

uint64_t NowTicks() { return MonotonicNanos(); }
uint64_t TicksToNanos(uint64_t ticks) { return ticks; }

#endif  // __x86_64__

}  // namespace stats
}  // namespace puddles
