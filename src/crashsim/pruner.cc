#include "src/crashsim/pruner.h"

#include <algorithm>
#include <cstring>

#include "src/common/align.h"
#include "src/common/checksum.h"
#include "src/puddles/format.h"
#include "src/tx/log_space.h"
#include "src/tx/replay.h"

namespace crashsim {
namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Two independent 64-bit hashes of one line's content, keyed by its cell so
// equal bytes at different cells never cancel. Signatures are commutative
// wrapping sums of these, making single-line adjustment O(1).
struct LineHash {
  uint64_t a;
  uint64_t b;
};

LineHash HashLine(uint32_t region, uint64_t offset, const uint8_t* data, size_t size) {
  const uint64_t key = Mix((uint64_t{region} + 1) * 0x9e3779b97f4a7c15ULL ^ offset);
  const uint64_t h = puddles::Fnv1a64(data, size);
  const uint32_t c = puddles::Crc32c(data, size, static_cast<uint32_t>(key));
  LineHash out;
  out.a = Mix(h ^ key);
  out.b = Mix((h * 0x94d049bb133111ebULL) ^ ((uint64_t{c} << 32) | c) ^ ~key);
  return out;
}

}  // namespace

StateClassifier::StateClassifier(const Trace& trace, const PersistenceGraph& graph)
    : trace_(trace), graph_(graph), retirement_(trace) {}

puddles::Result<std::unique_ptr<StateClassifier>> StateClassifier::Create(
    const Trace& trace, const PersistenceGraph& graph) {
  if (trace.baseline.size() != trace.regions.size()) {
    return puddles::FailedPreconditionError("state classifier requires Trace::baseline");
  }
  std::unique_ptr<StateClassifier> classifier(new StateClassifier(trace, graph));
  classifier->image_ = trace.baseline;
  classifier->last_applied_.assign(graph.TouchedLines().size(), -1);
  for (uint32_t i = 0; i < graph.regions().size(); ++i) {
    const RegionInfo& info = graph.regions()[i];
    if (info.role == RegionRole::kLogPuddle) {
      classifier->log_regions_.emplace_back(info.uuid, i);
    } else if (info.role == RegionRole::kLogSpacePuddle) {
      classifier->logspace_regions_.push_back(i);
    }
    const uint64_t size = trace.regions[i].size;
    for (uint64_t offset = 0; offset < size; offset += puddles::kCacheLineSize) {
      const size_t line = std::min<uint64_t>(puddles::kCacheLineSize, size - offset);
      if (graph.IsLogHeapRange(i, offset, line)) {
        continue;
      }
      const LineHash h = HashLine(i, offset, classifier->image_[i].data() + offset, line);
      classifier->raw_a_ += h.a;
      classifier->raw_b_ += h.b;
    }
  }
  return classifier;
}

void StateClassifier::AdvanceBoundary(uint64_t epoch) {
  if (epoch == cur_epoch_) {
    return;
  }
  const auto& lines = graph_.TouchedLines();
  for (size_t i = 0; i < lines.size(); ++i) {
    const auto [region, offset] = lines[i];
    const std::vector<LineWrite>& timeline = *graph_.Timeline(region, offset);
    // The retired set only grows with the crash epoch, so the last retired
    // write can only move forward; scan newest-first down to the current one.
    for (int64_t j = static_cast<int64_t>(timeline.size()) - 1; j > last_applied_[i]; --j) {
      const LineWrite& write = timeline[static_cast<size_t>(j)];
      if (write.dirty || !retirement_.Retired(write.thread, write.epoch, epoch)) {
        continue;
      }
      const bool excluded = graph_.IsLogHeapRange(region, offset, write.size);
      uint8_t* cell = image_[region].data() + offset;
      if (!excluded) {
        const LineHash old_hash = HashLine(region, offset, cell, write.size);
        raw_a_ -= old_hash.a;
        raw_b_ -= old_hash.b;
      }
      std::memcpy(cell, write.bytes, write.size);
      if (!excluded) {
        const LineHash new_hash = HashLine(region, offset, cell, write.size);
        raw_a_ += new_hash.a;
        raw_b_ += new_hash.b;
      }
      last_applied_[i] = j;
      break;
    }
  }
  cur_epoch_ = epoch;
}

void StateClassifier::SnapshotLinesForWrite(uint32_t region, uint64_t offset, uint64_t size) {
  const uint64_t region_size = trace_.regions[region].size;
  uint64_t line_start = (offset / puddles::kCacheLineSize) * puddles::kCacheLineSize;
  for (; line_start < offset + size; line_start += puddles::kCacheLineSize) {
    const std::pair<uint32_t, uint64_t> key{region, line_start};
    auto it = std::lower_bound(touched_keys_.begin(), touched_keys_.end(), key);
    if (it != touched_keys_.end() && *it == key) {
      continue;  // Already snapshotted for this spec.
    }
    touched_keys_.insert(it, key);
    const size_t line = std::min<uint64_t>(puddles::kCacheLineSize, region_size - line_start);
    TouchedLine touched;
    touched.region = region;
    touched.offset = line_start;
    const uint8_t* cell = image_[region].data() + line_start;
    touched.saved.assign(cell, cell + line);
    touched_.push_back(std::move(touched));
  }
}

void StateClassifier::PatchWrite(uint32_t region, uint64_t offset, const uint8_t* data,
                                 size_t size) {
  if (size == 0) {
    return;
  }
  SnapshotLinesForWrite(region, offset, size);
  std::memcpy(image_[region].data() + offset, data, size);
}

bool StateClassifier::ModelReplay() {
  struct Target {
    uint32_t region;
    uint64_t offset;
    uint32_t size;
  };
  // Points replay into the projected image. Only traced data regions
  // resolve: a target in untraced, log or log-space bytes is either
  // signature-excluded or able to perturb a later chain's parse
  // order-dependently, so it fails the replay and the state falls back.
  // ReplayLogChain resolves every entry before it copies any, so each line
  // is snapshotted before its first write. Its flushes and fence land on
  // these DRAM buffers, after the harness has read the run's persist
  // counters.
  struct ImageResolver : puddles::AddressResolver {
    StateClassifier* self;
    std::vector<Target> targets;

    explicit ImageResolver(StateClassifier* classifier) : self(classifier) {}

    void* Resolve(uint64_t addr, uint32_t size) override {
      const int32_t region = self->graph_.RegionForAddr(addr, size);
      if (region < 0 || self->graph_.regions()[region].role != RegionRole::kData) {
        return nullptr;
      }
      const auto index = static_cast<uint32_t>(region);
      const uint64_t offset = addr - self->graph_.regions()[index].base_addr;
      self->SnapshotLinesForWrite(index, offset, size);
      targets.push_back({index, offset, size});
      return self->image_[index].data() + offset;
    }
  };
  std::vector<Target> prior_targets;  // Applied by earlier chains.

  for (uint32_t ls_region : logspace_regions_) {
    auto ls_puddle =
        puddles::Puddle::Attach(image_[ls_region].data(), trace_.regions[ls_region].size);
    if (!ls_puddle.ok()) {
      return false;  // Cannot enumerate chains for this state.
    }
    auto view = puddles::LogSpaceView::Attach(*ls_puddle);
    if (!view.ok()) {
      return false;
    }
    for (uint32_t entry = 0; entry < view->num_entries(); ++entry) {
      // Open the chain over the projected image. A link leaving the traced
      // set falls back: the content of an untraced log varies nothing, but
      // its existence and linkage cannot be checked. Any other failure is a
      // chain recovery skips, and so does the model.
      bool untraced = false;
      auto chain = puddles::OpenLogChain(
          view->entry(entry),
          [&](const puddles::Uuid& uuid) -> puddles::Result<puddles::LogRegion> {
            const auto it = std::find_if(log_regions_.begin(), log_regions_.end(),
                                         [&](const auto& log) { return log.first == uuid; });
            if (it == log_regions_.end()) {
              untraced = true;
              return puddles::NotFoundError("untraced log puddle");
            }
            ASSIGN_OR_RETURN(puddles::Puddle puddle,
                             puddles::Puddle::Attach(image_[it->second].data(),
                                                     trace_.regions[it->second].size));
            return puddles::LogRegion::Attach(puddle.heap(), puddle.heap_size());
          });
      if (untraced) {
        return false;
      }
      if (!chain.ok() || chain->empty() ||
          puddles::RetiredByEpoch(chain->front(), view->retired_epoch())) {
        continue;
      }
      ++stats_.chains_modeled;

      ImageResolver resolver(this);
      auto replayed = puddles::ReplayLogChain(*chain, resolver);
      if (!replayed.ok()) {
        return false;
      }
      stats_.entries_modeled += replayed->applied;

      // Replay order *across* chains is the daemon's registry order, which
      // the model does not reproduce — overlapping targets from different
      // chains are therefore order-dependent and fall back.
      for (const Target& t : resolver.targets) {
        for (const Target& p : prior_targets) {
          if (t.region == p.region && t.offset < p.offset + p.size &&
              p.offset < t.offset + t.size) {
            return false;
          }
        }
      }
      prior_targets.insert(prior_targets.end(), resolver.targets.begin(),
                           resolver.targets.end());
    }
  }
  return true;
}

ClassSignature StateClassifier::SignatureFromTouched() {
  ClassSignature sig;
  sig.a = raw_a_;
  sig.b = raw_b_;
  for (const TouchedLine& touched : touched_) {
    if (graph_.IsLogHeapRange(touched.region, touched.offset, touched.saved.size())) {
      continue;
    }
    const LineHash old_hash =
        HashLine(touched.region, touched.offset, touched.saved.data(), touched.saved.size());
    const LineHash new_hash = HashLine(touched.region, touched.offset,
                                       image_[touched.region].data() + touched.offset,
                                       touched.saved.size());
    sig.a += new_hash.a - old_hash.a;
    sig.b += new_hash.b - old_hash.b;
  }
  return sig;
}

void StateClassifier::RevertTouched() {
  for (const TouchedLine& touched : touched_) {
    std::memcpy(image_[touched.region].data() + touched.offset, touched.saved.data(),
                touched.saved.size());
  }
  touched_.clear();
  touched_keys_.clear();
}

puddles::Result<ClassSignature> StateClassifier::Classify(const CrashStateSpec& spec) {
  if (spec.epoch < cur_epoch_) {
    return puddles::InternalError("state classifier requires non-decreasing epoch order");
  }
  AdvanceBoundary(spec.epoch);
  MaterializeInFlight(trace_, spec, retirement_,
                      [this](uint32_t region, uint64_t offset, const uint8_t* data,
                             size_t size) { PatchWrite(region, offset, data, size); });
  ++stats_.classified;
  ClassSignature sig;
  if (ModelReplay()) {
    sig = SignatureFromTouched();
  } else {
    ++stats_.fallback_unique;
    sig.unique = true;
    sig.a = ++unique_counter_;
    sig.b = ~sig.a;
  }
  RevertTouched();
  return sig;
}

}  // namespace crashsim
