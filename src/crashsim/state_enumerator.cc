#include "src/crashsim/state_enumerator.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "src/common/align.h"
#include "src/common/rng.h"

namespace crashsim {
namespace {

// Splits `seed` per (epoch, subset) so every spec's eviction choices are
// independent and reproducible in isolation.
uint64_t DeriveSeed(uint64_t seed, uint64_t epoch, uint32_t subset) {
  uint64_t z = seed ^ (epoch * 0x9e3779b97f4a7c15ULL) ^ (uint64_t{subset} << 32);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Threads with maybe-durable write-backs at a crash just before epoch
// `crash_epoch`'s closing fence: issuers of un-retired earlier flushes plus
// issuers of the open epoch's flushes.
std::set<uint32_t> ThreadsInFlight(const Trace& trace, const RetirementIndex& retirement,
                                   uint64_t crash_epoch) {
  std::set<uint32_t> threads;
  for (uint64_t e = 0; e < crash_epoch; ++e) {
    for (const FlushDelta& delta : trace.epochs[e].deltas) {
      if (!retirement.Retired(delta.thread, e, crash_epoch)) {
        threads.insert(delta.thread);
      }
    }
  }
  for (const FlushDelta& delta : trace.epochs[crash_epoch].deltas) {
    threads.insert(delta.thread);
  }
  return threads;
}

// Issue position of a flush delta: (epoch, index in the epoch's deltas).
using DeltaPosition = std::pair<uint64_t, size_t>;

// Position of the newest write-back of each line, keyed (region, offset),
// that is retired at a crash just before epoch `crash_epoch`'s closing fence.
std::map<std::pair<uint32_t, uint64_t>, DeltaPosition> NewestRetiredWriteBacks(
    const Trace& trace, const RetirementIndex& retirement, uint64_t crash_epoch) {
  std::map<std::pair<uint32_t, uint64_t>, DeltaPosition> newest;
  for (uint64_t e = 0; e < crash_epoch; ++e) {
    const std::vector<FlushDelta>& deltas = trace.epochs[e].deltas;
    for (size_t i = 0; i < deltas.size(); ++i) {
      if (retirement.Retired(deltas[i].thread, e, crash_epoch)) {
        for (size_t off = 0; off < deltas[i].bytes.size(); off += puddles::kCacheLineSize) {
          newest[{deltas[i].region, deltas[i].offset + off}] = {e, i};
        }
      }
    }
  }
  return newest;
}

}  // namespace

std::string CrashStateSpec::ToString() const {
  std::string s = "epoch=" + std::to_string(epoch);
  if (evict) {
    s += " evict(seed=" + std::to_string(eviction_seed) + ")";
  } else if (thread_mask != 0) {
    s += " thread-mask=0x";
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(thread_mask));
    s += buf;
  } else {
    s += " fence-boundary";
  }
  return s;
}

std::vector<CrashStateSpec> EnumerateCrashStates(const Trace& trace,
                                                 const EnumerationOptions& options) {
  std::vector<CrashStateSpec> specs;
  const RetirementIndex retirement(trace);
  for (uint64_t epoch = 0; epoch <= trace.epochs.size(); ++epoch) {
    CrashStateSpec boundary;
    boundary.epoch = epoch;
    specs.push_back(boundary);
    if (epoch == trace.epochs.size()) {
      break;  // Complete run: nothing in flight to evict.
    }
    const Epoch& open = trace.epochs[epoch];
    const bool any_unretired = retirement.AnyUnretired(trace, epoch);
    if (open.deltas.empty() && open.dirty_at_close.empty() && !any_unretired) {
      continue;
    }
    // Representative interleaving selection at this epoch boundary: each
    // thread's maybe-durable write-backs survive or vanish as a unit. Small
    // in-flight sets get every non-empty mask; larger ones get singletons plus
    // the all-threads mask (seeded eviction subsets cover the mixed cases).
    if (trace.num_threads > 1) {
      const std::set<uint32_t> threads = ThreadsInFlight(trace, retirement, epoch);
      std::vector<uint64_t> masks;
      if (threads.size() <= 3) {
        const std::vector<uint32_t> list(threads.begin(), threads.end());
        for (uint64_t bits = 1; bits < (uint64_t{1} << list.size()); ++bits) {
          uint64_t mask = 0;
          for (size_t i = 0; i < list.size(); ++i) {
            if (bits & (uint64_t{1} << i)) {
              mask |= uint64_t{1} << list[i];
            }
          }
          masks.push_back(mask);
        }
      } else {
        uint64_t full = 0;
        for (uint32_t t : threads) {
          masks.push_back(uint64_t{1} << t);
          full |= uint64_t{1} << t;
        }
        masks.push_back(full);
      }
      for (uint64_t mask : masks) {
        CrashStateSpec spec;
        spec.epoch = epoch;
        spec.thread_mask = mask;
        specs.push_back(spec);
      }
    }
    for (uint32_t subset = 0; subset < options.eviction_subsets_per_epoch; ++subset) {
      CrashStateSpec spec;
      spec.epoch = epoch;
      spec.evict = true;
      spec.eviction_seed = DeriveSeed(options.seed, epoch, subset);
      specs.push_back(spec);
    }
  }
  return specs;
}

void MaterializeCrashState(const Trace& trace, const CrashStateSpec& spec, const ApplyFn& apply) {
  const RetirementIndex retirement(trace);
  const uint64_t closed = std::min<uint64_t>(spec.epoch, trace.epochs.size());
  for (uint64_t e = 0; e < closed; ++e) {
    for (const FlushDelta& delta : trace.epochs[e].deltas) {
      if (retirement.Retired(delta.thread, e, spec.epoch)) {
        apply(delta.region, delta.offset, delta.bytes.data(), delta.bytes.size());
      }
    }
  }
  MaterializeInFlight(trace, spec, retirement, apply);
}

void ApplyCrashState(const Trace& trace, const CrashStateSpec& spec) {
  auto base = [&](uint32_t region) {
    return reinterpret_cast<uint8_t*>(trace.regions[region].base);
  };
  for (uint32_t i = 0; i < trace.regions.size(); ++i) {
    std::memcpy(base(i), trace.baseline[i].data(), trace.baseline[i].size());
  }
  MaterializeCrashState(trace, spec,
                        [&](uint32_t region, uint64_t offset, const uint8_t* data, size_t size) {
                          std::memcpy(base(region) + offset, data, size);
                        });
}

void MaterializeInFlight(const Trace& trace, const CrashStateSpec& spec,
                         const RetirementIndex& retirement, const ApplyFn& apply) {
  if (spec.epoch >= trace.epochs.size()) {
    return;  // Complete run: everything was retired; nothing is in flight.
  }
  const uint64_t closed = spec.epoch;
  const Epoch& open = trace.epochs[spec.epoch];
  // A line's durable content only moves forward in coherence order, so an
  // un-retired write-back (another thread's flush, not yet fenced) cannot
  // land over a retired write-back of the same line issued after it. Only
  // multi-threaded traces have un-retired write-backs: index on first use.
  std::optional<std::map<std::pair<uint32_t, uint64_t>, DeltaPosition>> newest_retired;
  auto superseded = [&](const FlushDelta& delta, DeltaPosition position, size_t off) {
    if (!newest_retired) {
      newest_retired = NewestRetiredWriteBacks(trace, retirement, spec.epoch);
    }
    const auto it = newest_retired->find({delta.region, delta.offset + off});
    return it != newest_retired->end() && it->second > position;
  };
  if (spec.evict) {
    // Each maybe-durable line survives independently. Un-retired earlier
    // flushes are drawn first (epoch order — in single-threaded traces there
    // are none, keeping the seeded draw sequence identical to the historical
    // one), then the open epoch's flushes in issue order line by line (a line
    // flushed twice can surface either write-back), then dirty lines, whose
    // fence-time content is applied last and wins when both were chosen,
    // modeling the later eviction.
    puddles::Xoshiro256 rng(spec.eviction_seed);
    for (uint64_t e = 0; e < closed; ++e) {
      const std::vector<FlushDelta>& deltas = trace.epochs[e].deltas;
      for (size_t i = 0; i < deltas.size(); ++i) {
        const FlushDelta& delta = deltas[i];
        if (retirement.Retired(delta.thread, e, spec.epoch)) {
          continue;
        }
        for (size_t off = 0; off < delta.bytes.size(); off += puddles::kCacheLineSize) {
          const size_t line = std::min(puddles::kCacheLineSize, delta.bytes.size() - off);
          if (rng.NextDouble() < kEvictionProbability && !superseded(delta, {e, i}, off)) {
            apply(delta.region, delta.offset + off, delta.bytes.data() + off, line);
          }
        }
      }
    }
    for (const FlushDelta& delta : open.deltas) {
      for (size_t off = 0; off < delta.bytes.size(); off += puddles::kCacheLineSize) {
        const size_t line = std::min(puddles::kCacheLineSize, delta.bytes.size() - off);
        if (rng.NextDouble() < kEvictionProbability) {
          apply(delta.region, delta.offset + off, delta.bytes.data() + off, line);
        }
      }
    }
    for (const DirtyLine& dirty : open.dirty_at_close) {
      if (rng.NextDouble() < kEvictionProbability) {
        apply(dirty.region, dirty.offset, dirty.live.data(), dirty.live.size());
      }
    }
    return;
  }
  if (spec.thread_mask == 0) {
    return;  // Strict fence-boundary state.
  }
  // Thread-mask state: the selected threads' maybe-durable write-backs all
  // complete (in issue order); everyone else's vanish. Dirty lines carry no
  // thread attribution and are excluded — seeded eviction subsets cover them.
  for (uint64_t e = 0; e < closed; ++e) {
    const std::vector<FlushDelta>& deltas = trace.epochs[e].deltas;
    for (size_t i = 0; i < deltas.size(); ++i) {
      const FlushDelta& delta = deltas[i];
      if (retirement.Retired(delta.thread, e, spec.epoch) || delta.thread >= 64 ||
          (spec.thread_mask & (uint64_t{1} << delta.thread)) == 0) {
        continue;
      }
      for (size_t off = 0; off < delta.bytes.size(); off += puddles::kCacheLineSize) {
        if (!superseded(delta, {e, i}, off)) {
          apply(delta.region, delta.offset + off, delta.bytes.data() + off,
                std::min(puddles::kCacheLineSize, delta.bytes.size() - off));
        }
      }
    }
  }
  for (const FlushDelta& delta : open.deltas) {
    if (delta.thread < 64 && (spec.thread_mask & (uint64_t{1} << delta.thread))) {
      apply(delta.region, delta.offset, delta.bytes.data(), delta.bytes.size());
    }
  }
}

}  // namespace crashsim
