// Pointer translation for relocated puddles (paper §4.2).
//
// A Translator holds the pool's old-range → new-base mapping (one entry per
// moved member) as a sorted interval table: Add keeps entries ordered by
// old_lo (rejecting overlaps and wraparound), Translate binary-searches the
// table and short-circuits through a one-entry MRU range cache — O(log E)
// per pointer, amortized ~O(1) on pointer-locality-heavy heaps, versus the
// O(E) linear scan kept as TranslateLinear for differential testing.
//
// RewritePuddle streams the rewrite: it walks the live objects in address
// order via the allocator metadata, rewrites every pointer field that falls
// inside a moved old range, flushes only the cache lines it dirtied, and —
// every batch_objects objects — fences and persists a rewrite frontier in the
// puddle header. A crash mid-rewrite resumes from the frontier instead of
// re-walking (and re-flushing) the entire heap.
//
// Idempotence under crashes: objects below the persisted frontier are never
// revisited, so they cannot be double-translated even if a new base happens
// to land inside another member's old range. Objects at or above the frontier
// may have individual slots durable from the open batch; re-translating those
// relies on new ranges being allocated from free address space (they match no
// old range). The needs-rewrite flag clears (flushed) only after the final
// frontier is durable.
#ifndef SRC_LIBPUDDLES_RELOCATION_H_
#define SRC_LIBPUDDLES_RELOCATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/libpuddles/type_registry.h"
#include "src/puddles/format.h"

namespace puddles {

struct TranslationEntry {
  uint64_t old_lo;  // Old file-base range [old_lo, old_hi).
  uint64_t old_hi;
  int64_t delta;  // new_base - old_base.
};

class Translator {
 public:
  // Registers a moved range. Rejects zero-size and address-wrapping ranges
  // and any overlap (including duplicates) with a previously added range —
  // an overlapping table would make translation order-dependent, and a
  // wrapped [old_lo, old_hi) would swallow almost the whole address space
  // (same hardening as RangeResolver::Resolve, §4.6).
  puddles::Status Add(uint64_t old_base, uint64_t size, uint64_t new_base) {
    if (size == 0) {
      return InvalidArgumentError("translator: zero-size range");
    }
    if (old_base + size < old_base) {
      return InvalidArgumentError("translator: old range wraps the address space");
    }
    if (old_base == new_base) {
      return OkStatus();  // Identity: nothing to translate.
    }
    // Sorted insert; neighbors are the only possible overlaps.
    size_t pos = LowerBound(old_base);
    if (pos > 0 && entries_[pos - 1].old_hi > old_base) {
      return AlreadyExistsError("translator: overlapping old ranges");
    }
    if (pos < entries_.size() && entries_[pos].old_lo < old_base + size) {
      return AlreadyExistsError("translator: overlapping old ranges");
    }
    entries_.insert(entries_.begin() + pos,
                    {old_base, old_base + size,
                     static_cast<int64_t>(new_base) - static_cast<int64_t>(old_base)});
    mru_ = 0;
    return OkStatus();
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  // Translates `addr` if it falls in a moved old range; returns false if the
  // address is not covered (already-new or foreign pointers pass through).
  // Not safe for concurrent callers (the MRU cache is unsynchronized); the
  // runtime always translates under its mapping lock.
  bool Translate(uint64_t addr, uint64_t* out) const {
    if (entries_.empty()) {
      return false;
    }
    const TranslationEntry& cached = entries_[mru_];
    if (addr >= cached.old_lo && addr < cached.old_hi) {
      *out = static_cast<uint64_t>(static_cast<int64_t>(addr) + cached.delta);
      return true;
    }
    size_t pos = LowerBound(addr + 1);  // First entry with old_lo > addr.
    if (pos == 0) {
      return false;
    }
    const TranslationEntry& entry = entries_[pos - 1];
    if (addr >= entry.old_hi) {
      return false;
    }
    mru_ = pos - 1;
    *out = static_cast<uint64_t>(static_cast<int64_t>(addr) + entry.delta);
    return true;
  }

  // Reference O(E) implementation, kept for differential tests and the
  // before/after benchmark in bench_reloc_primitives.
  bool TranslateLinear(uint64_t addr, uint64_t* out) const {
    for (const TranslationEntry& entry : entries_) {
      if (addr >= entry.old_lo && addr < entry.old_hi) {
        *out = static_cast<uint64_t>(static_cast<int64_t>(addr) + entry.delta);
        return true;
      }
    }
    return false;
  }

 private:
  // Index of the first entry with old_lo >= key.
  size_t LowerBound(uint64_t key) const {
    size_t lo = 0, hi = entries_.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (entries_[mid].old_lo < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::vector<TranslationEntry> entries_;  // Sorted by old_lo, non-overlapping.
  mutable size_t mru_ = 0;                 // Last-hit entry index.
};

struct RewriteOptions {
  // Objects per persistence batch: after this many visited objects the
  // dirtied lines are fenced and the header frontier advances. Smaller
  // batches bound post-crash re-work (and widen crashsim's explored state
  // space) at the cost of more fences.
  uint32_t batch_objects = 64;
};

struct RewriteStats {
  uint64_t objects_visited = 0;
  uint64_t objects_skipped_resume = 0;  // Below the persisted frontier.
  uint64_t pointers_visited = 0;
  uint64_t pointers_rewritten = 0;
  uint64_t lines_flushed = 0;      // Dirtied cache lines streamed out.
  uint64_t frontier_advances = 0;  // Persisted batch boundaries.
};

// Rewrites all pointers in `puddle`'s heap (which must be mapped writable and
// attached), resuming from the persisted frontier after a crash. Marks the
// puddle clean (CompleteRewrite) on success. `maps` supplies pointer maps
// (the runtime passes Pool::LookupPtrMap). The walk stops at the first
// object whose type has none: it persists the frontier at that object and
// returns FailedPrecondition with the rewrite flag still set, so the puddle
// is never marked clean while one of its objects may hold an untranslated
// pointer.
puddles::Result<RewriteStats> RewritePuddle(Puddle& puddle, const Translator& translator,
                                            const PtrMapLookup& maps,
                                            const RewriteOptions& options = {});

}  // namespace puddles

#endif  // SRC_LIBPUDDLES_RELOCATION_H_
