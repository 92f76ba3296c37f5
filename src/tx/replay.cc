#include "src/tx/replay.h"

#include <algorithm>
#include <cstring>

#include "src/pmem/flush.h"

namespace puddles {

puddles::Result<std::vector<LogRegion>> OpenLogChain(const Uuid& head, const LogOpener& open) {
  std::vector<LogRegion> chain;
  std::vector<Uuid> visited;
  for (Uuid cursor = head; !cursor.is_nil();) {
    if (std::find(visited.begin(), visited.end(), cursor) != visited.end()) {
      return DataLossError("log chain links back to one of its own puddles");
    }
    visited.push_back(cursor);
    ASSIGN_OR_RETURN(LogRegion region, open(cursor));
    cursor = region.next_log();
    chain.push_back(region);
  }
  return chain;
}

bool RetiredByEpoch(const LogRegion& head, uint64_t retired_epoch) {
  const uint64_t tag = head.epoch_tag();
  return tag != 0 && tag <= retired_epoch;
}

puddles::Result<ReplayStats> ReplayLogChain(const std::vector<LogRegion>& chain,
                                            AddressResolver& resolver) {
  ReplayStats stats;

  struct PendingEntry {
    uint64_t addr;
    const uint8_t* data;
    uint32_t size;
    void* target;
  };
  std::vector<PendingEntry> reverse_entries;  // Undo-style.
  std::vector<PendingEntry> forward_entries;  // Redo-style.

  if (chain.empty()) {
    return stats;
  }
  // A chained log is *one* log: the head region's sequence range governs
  // validity for every region in the chain (the range is the single word the
  // committer toggles to switch stages atomically).
  const auto [seq_lo, seq_hi] = chain.front().seq_range();

  for (const LogRegion& region : chain) {
    bool intact = region.ForEachEntry([&](const LogRegion::EntryView& view) {
      if (!view.checksum_ok) {
        // Torn append — single or batched (DESIGN.md §10): the entry never
        // finished persisting before the crash. Either way it was by
        // construction never acted upon: an undo entry publishes (fence)
        // before its target's first in-place store, and a redo entry's
        // target is untouched until after the commit flip is durable. Skip.
        ++stats.skipped_checksum;
        return;
      }
      if (!(view.header->seq > seq_lo && view.header->seq < seq_hi)) {
        ++stats.skipped_out_of_range;
        return;
      }
      if ((view.header->flags & kLogEntryVolatile) != 0) {
        ++stats.skipped_volatile;
        return;
      }
      PendingEntry entry{view.header->addr, view.data, view.header->size, nullptr};
      if (static_cast<ReplayOrder>(view.header->order) == ReplayOrder::kReverse) {
        reverse_entries.push_back(entry);
      } else {
        forward_entries.push_back(entry);
      }
    });
    if (!intact) {
      // A corrupt length field ended iteration early; everything before the
      // corruption was parsed and is safe to use, the tail never persisted.
      break;
    }
  }

  // Resolve everything first so a permission failure can poison the log
  // before any byte is copied.
  for (auto* entries : {&reverse_entries, &forward_entries}) {
    for (PendingEntry& entry : *entries) {
      entry.target = resolver.Resolve(entry.addr, entry.size);
      if (entry.target == nullptr) {
        return PermissionDeniedError("log entry targets unwritable address");
      }
    }
  }

  auto apply = [&](const PendingEntry& entry) {
    std::memcpy(entry.target, entry.data, entry.size);
    pmem::Flush(entry.target, entry.size);
    ++stats.applied;
  };
  // Roll back: undo entries newest-first (Fig. 7 recovery stage 1).
  std::for_each(reverse_entries.rbegin(), reverse_entries.rend(), apply);
  // Roll forward: redo entries oldest-first (Fig. 7 recovery stage 2).
  std::for_each(forward_entries.begin(), forward_entries.end(), apply);
  pmem::Fence();
  return stats;
}

}  // namespace puddles
