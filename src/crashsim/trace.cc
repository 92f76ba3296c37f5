#include "src/crashsim/trace.h"

#include <algorithm>
#include <cstring>

#include "src/common/align.h"

namespace crashsim {
namespace {

// Intersects the absolute byte range [lo, hi) with the region
// [region_start, region_start + region_size) and expands the overlap to whole
// region-relative cache lines. Returns {offset, length} within the region;
// length 0 means no overlap. Region-relative lines equal absolute ones for
// page-aligned puddle mappings; for test buffers, which need not be
// line-aligned, they agree with the fence-time dirty scan's line walk.
struct LineSpan {
  size_t offset = 0;
  size_t length = 0;
};

LineSpan ClampToRegionLines(uintptr_t region_start, size_t region_size, uintptr_t lo,
                            uintptr_t hi) {
  const uintptr_t region_end = region_start + region_size;
  const uintptr_t clamped_lo = lo > region_start ? lo : region_start;
  const uintptr_t clamped_hi = hi < region_end ? hi : region_end;
  if (clamped_lo >= clamped_hi) {
    return {};
  }
  const size_t off_lo = puddles::AlignDown(clamped_lo - region_start, puddles::kCacheLineSize);
  size_t off_hi = puddles::AlignUp(clamped_hi - region_start, puddles::kCacheLineSize);
  if (off_hi > region_size) {
    off_hi = region_size;
  }
  return {off_lo, off_hi - off_lo};
}

}  // namespace

uint64_t Trace::TotalDeltaBytes() const {
  uint64_t total = 0;
  for (const Epoch& epoch : epochs) {
    for (const FlushDelta& delta : epoch.deltas) {
      total += delta.bytes.size();
    }
  }
  return total;
}

RetirementIndex::RetirementIndex(const Trace& trace) : num_epochs_(trace.epochs.size()) {
  fence_epochs_.resize(trace.num_threads);
  for (uint64_t e = 0; e < trace.epochs.size(); ++e) {
    const int32_t t = trace.epochs[e].fencing_thread;
    if (t >= 0 && static_cast<uint32_t>(t) < fence_epochs_.size()) {
      fence_epochs_[static_cast<uint32_t>(t)].push_back(e);  // Already in order.
    }
  }
}

bool RetirementIndex::Retired(uint32_t thread, uint64_t delta_epoch,
                              uint64_t crash_epoch) const {
  if (crash_epoch >= num_epochs_) {
    return true;  // Complete run: clean shutdown, everything durable.
  }
  if (thread >= fence_epochs_.size()) {
    return false;
  }
  // Retired iff `thread` fenced some epoch in [delta_epoch, crash_epoch).
  const std::vector<uint64_t>& fences = fence_epochs_[thread];
  auto it = std::lower_bound(fences.begin(), fences.end(), delta_epoch);
  return it != fences.end() && *it < crash_epoch;
}

bool RetirementIndex::AnyUnretired(const Trace& trace, uint64_t crash_epoch) const {
  const uint64_t closed = std::min<uint64_t>(crash_epoch, trace.epochs.size());
  for (uint64_t e = 0; e < closed; ++e) {
    for (const FlushDelta& delta : trace.epochs[e].deltas) {
      if (!Retired(delta.thread, e, crash_epoch)) {
        return true;
      }
    }
  }
  return false;
}

TraceRecorder::~TraceRecorder() {
  if (active()) {
    (void)Stop();
  }
}

void TraceRecorder::Start(std::vector<TracedRegion> regions) {
  std::lock_guard<std::mutex> lock(mu_);
  trace_ = Trace{};
  trace_.regions = std::move(regions);
  open_ = Epoch{};
  thread_ids_.clear();
  durable_.clear();
  durable_.reserve(trace_.regions.size());
  trace_.baseline.reserve(trace_.regions.size());
  for (const TracedRegion& region : trace_.regions) {
    const uint8_t* live = reinterpret_cast<const uint8_t*>(region.base);
    durable_.emplace_back(live, live + region.size);
    trace_.baseline.emplace_back(live, live + region.size);
  }
  active_ = true;
  pmem::SetPersistObserver(this);
}

Trace TraceRecorder::Stop() {
  pmem::SetPersistObserver(nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  if (active_) {
    CloseEpochLocked(Epoch::kNoFence);
    active_ = false;
  }
  durable_.clear();
  trace_.num_threads = std::max<uint32_t>(1, static_cast<uint32_t>(thread_ids_.size()));
  return std::move(trace_);
}

bool TraceRecorder::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

uint32_t TraceRecorder::ThreadIdLocked() {
  const auto [it, inserted] =
      thread_ids_.emplace(std::this_thread::get_id(), static_cast<uint32_t>(thread_ids_.size()));
  (void)inserted;
  return it->second;
}

void TraceRecorder::OnFlushRange(const void* addr, size_t size) {
  const uintptr_t flush_lo = reinterpret_cast<uintptr_t>(addr);
  const uintptr_t flush_hi = flush_lo + size;
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_) {
    return;
  }
  ++trace_.flush_calls;
  const uint32_t thread = ThreadIdLocked();
  for (uint32_t i = 0; i < trace_.regions.size(); ++i) {
    const TracedRegion& region = trace_.regions[i];
    // Expand to whole region-relative cache lines (the write-back unit).
    const LineSpan span = ClampToRegionLines(region.base, region.size, flush_lo, flush_hi);
    if (span.length == 0) {
      continue;
    }
    FlushDelta delta;
    delta.region = i;
    delta.offset = span.offset;
    delta.thread = thread;
    const uint8_t* live = reinterpret_cast<const uint8_t*>(region.base + span.offset);
    delta.bytes.assign(live, live + span.length);
    // The flushed lines are now (pending-)durable: fold them into the model so
    // the fence-time dirty scan reports only never-flushed lines.
    std::memcpy(durable_[i].data() + span.offset, delta.bytes.data(), delta.bytes.size());
    open_.deltas.push_back(std::move(delta));
  }
}

void TraceRecorder::OnFence() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_) {
    return;
  }
  ++trace_.fences;
  CloseEpochLocked(static_cast<int32_t>(ThreadIdLocked()));
}

void TraceRecorder::CloseEpochLocked(int32_t fencing_thread) {
  for (uint32_t i = 0; i < trace_.regions.size(); ++i) {
    const TracedRegion& region = trace_.regions[i];
    const uint8_t* live = reinterpret_cast<const uint8_t*>(region.base);
    const uint8_t* durable = durable_[i].data();
    for (size_t offset = 0; offset < region.size; offset += puddles::kCacheLineSize) {
      const size_t line = std::min(puddles::kCacheLineSize, region.size - offset);
      if (std::memcmp(live + offset, durable + offset, line) == 0) {
        continue;
      }
      DirtyLine dirty;
      dirty.region = i;
      dirty.offset = offset;
      dirty.live.assign(live + offset, live + offset + line);
      open_.dirty_at_close.push_back(std::move(dirty));
    }
  }
  open_.fencing_thread = fencing_thread;
  trace_.epochs.push_back(std::move(open_));
  open_ = Epoch{};
}

}  // namespace crashsim
