#include "src/libpuddles/relocation.h"

#include <algorithm>
#include <cstring>

#include "src/common/align.h"
#include "src/pmem/flush.h"

namespace puddles {

puddles::Result<RewriteStats> RewritePuddle(Puddle& puddle, const Translator& translator,
                                            const TypeRegistry& registry,
                                            const RewriteOptions& options) {
  RewriteStats stats;
  if (puddle.kind() != PuddleKind::kData) {
    // Non-data puddles (logs, pool meta) hold no heap pointers by format.
    puddle.CompleteRewrite();
    return stats;
  }
  if (translator.empty()) {
    puddle.CompleteRewrite();
    return stats;
  }

  ASSIGN_OR_RETURN(ObjectHeap heap, puddle.object_heap());

  const uint32_t batch = options.batch_objects == 0 ? 1 : options.batch_objects;
  const uint64_t resume_from = puddle.rewrite_frontier();
  uint64_t index = 0;  // Walk index of the current object.
  uint64_t durable_frontier = resume_from;
  bool dirty_since_fence = false;  // Unfenced flushes outstanding.
  // One-line write-combining buffer: a dirtied line is flushed only once we
  // move past it (flushing before the line's last store would leave that
  // store dirty-but-unflushed at the batch fence). The walk is address-
  // ordered, so revisits of a pending line are the common adjacent-slot case.
  uintptr_t pending_line = 0;
  bool has_pending_line = false;

  auto flush_line = [&](uintptr_t line) {
    pmem::Flush(reinterpret_cast<const void*>(line), kCacheLineSize);
    dirty_since_fence = true;
    ++stats.lines_flushed;
  };
  auto note_dirty = [&](const void* slot) {
    const uintptr_t line = AlignDown(reinterpret_cast<uintptr_t>(slot), kCacheLineSize);
    if (has_pending_line && line == pending_line) {
      return;
    }
    if (has_pending_line) {
      flush_line(pending_line);
    }
    pending_line = line;
    has_pending_line = true;
  };

  // Fences the open batch (if it dirtied anything) and persists the frontier
  // at `next_index`: afterwards, every object below next_index is durably
  // translated and will never be revisited.
  auto persist_progress = [&](uint64_t next_index) {
    if (next_index <= durable_frontier) {
      return;  // No new progress (or resuming past the walk's end).
    }
    if (has_pending_line) {
      flush_line(pending_line);
      has_pending_line = false;
    }
    if (dirty_since_fence) {
      pmem::Fence();
      dirty_since_fence = false;
    }
    puddle.AdvanceRewriteFrontier(next_index);
    durable_frontier = next_index;
    ++stats.frontier_advances;
  };

  heap.ForEachObject([&](void* payload, const ObjectHeader& header, size_t capacity) {
    const uint64_t my_index = index++;
    if (my_index < resume_from) {
      ++stats.objects_skipped_resume;
      return;
    }
    ++stats.objects_visited;
    auto translate_object = [&]() {
      if (header.type_id == kRawBytesTypeId) {
        return;  // Raw byte buffers carry no pointers by contract.
      }
      auto map = registry.Lookup(header.type_id);
      if (!map.ok()) {
        ++stats.objects_without_map;
        return;
      }
      auto* bytes = static_cast<uint8_t*>(payload);
      ForEachPointerSlot(*map, std::min<uint64_t>(header.size, capacity), [&](uint64_t offset) {
        auto* slot = reinterpret_cast<uint64_t*>(bytes + offset);
        ++stats.pointers_visited;
        const uint64_t value = *slot;
        if (value == 0) {
          return;
        }
        uint64_t translated;
        if (!translator.Translate(value, &translated)) {
          return;
        }
        *slot = translated;
        ++stats.pointers_rewritten;
        note_dirty(slot);
      });
    };
    translate_object();
    if (index - durable_frontier >= batch) {
      persist_progress(index);
    }
  });

  // Persist the final frontier before clearing the rewrite obligation: a
  // crash between the two leaves (flag set, frontier = object count), and the
  // re-run skips every object — byte-stable even if a new base coincidentally
  // lands inside another member's old range.
  persist_progress(index);
  puddle.CompleteRewrite();
  return stats;
}

}  // namespace puddles
