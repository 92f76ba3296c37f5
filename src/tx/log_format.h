// Puddles' log and log-entry format (paper Fig. 6).
//
// A log lives in the raw heap of a log puddle. Its header carries:
//   * the sequence range — entries are *valid* iff seq_lo < seq < seq_hi,
//     letting the committer atomically enable/disable whole classes of
//     entries (undo seq=1, redo seq=3; Fig. 7 drives the range through
//     (0,2) → (2,4) → (4,4)),
//   * next-free / last-entry pointers for allocation,
//   * an optional link to a continuation log puddle (Fig. 5: "the application
//     [can] link multiple puddles to a log when it runs out of space").
// Each entry records checksum, target address, size, sequence number, replay
// order (undo entries replay in reverse), flags (volatile entries are ignored
// by post-crash recovery), and the data to copy. Applying an entry is always
// a plain memcpy to the address — old data for undo, new data for redo.
//
// Append ordering contract (DESIGN.md §10): the hot path is AppendStaged(),
// which writes the entry and updates the header but persists NOTHING — it only
// stages the touched cache lines into the caller's pmem::FlushBatch. The
// staged batch becomes durable at a publication point: FlushPending() plus one
// pmem::Fence(), issued by the transaction runtime immediately before the
// first in-place store that depends on the batch (or at commit, for entries
// whose targets are never stored in place before commit — redo, volatile, and
// fresh-object entries). Any number of staged appends share that single fence.
// A batch torn by a crash is discarded at replay exactly like a torn single
// append: an entry whose bytes never fully persisted fails its
// generation-bound checksum, and a header update that never persisted leaves
// the staged entries invisible (num_entries/next_free still exclude them).
//
// The legacy Append() wrapper keeps the old one-fence-per-append contract
// (entry + header persisted, fence retired, before it returns) for callers
// without a transaction-scoped batch — baselines, tools, and tests.
#ifndef SRC_TX_LOG_FORMAT_H_
#define SRC_TX_LOG_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/common/status.h"
#include "src/common/uuid.h"
#include "src/pmem/flush.h"

namespace puddles {

// Format version 3: entry checksums are bound to LogHeader::generation
// (since v2), and the header carries an epoch tag for epoch-based group
// commit (docs/epoch.md). Version-1/2 logs must be rejected at Attach, not
// silently invalidated entry-by-entry at recovery.
inline constexpr uint64_t kLogMagic = 0x33474f4c44555000ULL;  // "\0PUDLOG3"

enum class ReplayOrder : uint8_t {
  kForward = 0,  // Redo semantics: replay in append order.
  kReverse = 1,  // Undo semantics: replay newest-first.
};

enum LogEntryFlags : uint8_t {
  // Target is volatile memory: applied on in-process abort to keep DRAM state
  // consistent with PM, but skipped by post-crash recovery (§4.1).
  kLogEntryVolatile = 1u << 0,
};

// Sequence numbers used by the hybrid commit protocol (Fig. 7).
inline constexpr uint32_t kUndoSeq = 1;
inline constexpr uint32_t kRedoSeq = 3;

struct LogHeader {
  uint64_t magic;
  uint32_t seq_lo;  // Valid entries: seq_lo < seq < seq_hi.
  uint32_t seq_hi;
  uint64_t next_free;   // Offset of the next free byte (starts at sizeof(LogHeader)).
  uint64_t last_entry;  // Offset of the most recently appended entry; 0 = none.
  uint64_t capacity;
  uint32_t num_entries;
  // Bumped by every Reset and mixed into each entry's checksum, so a stale
  // entry from a previous log incarnation can never validate. Without it, a
  // crash that persists an Append's header update (num_entries++) but not the
  // entry bytes resurrects the complete, checksum-valid entry a *previous*
  // transaction left at that offset — found by crashsim eviction-subset
  // exploration (DESIGN.md §3).
  uint32_t generation;
  Uuid next_log;  // Continuation log puddle; nil if none.
  // Epoch-based group commit (docs/epoch.md): 0 in immediate mode; otherwise
  // the persistence epoch whose transactions' entries this log holds. Replay
  // of a tagged log chain is gated on the log space's retirement record — a
  // chain whose head tag is already retired is reset without replay, so a
  // retired epoch's rollback entries can never fire, and a crash inside an
  // unretired epoch rolls back *every* transaction of that epoch. The tag is
  // written volatile and rides to durability with the epoch's first delegated
  // publication (the whole header is staged by every AppendStaged).
  uint64_t epoch_tag;
};

struct LogEntryHeader {
  uint32_t checksum;  // CRC-32C over the fields below plus the data bytes.
  uint32_t size;      // Data bytes.
  uint64_t addr;      // Target virtual address in the global puddle space.
  uint32_t seq;
  uint8_t order;  // ReplayOrder.
  uint8_t flags;
  uint16_t reserved;
  // size bytes of data follow; entries are 8-byte aligned.
};

// View over one log region (a log puddle's heap).
class LogRegion {
 public:
  static puddles::Status Format(void* base, size_t capacity);
  static puddles::Result<LogRegion> Attach(void* base, size_t capacity);

  LogRegion() = default;

  // Appends an entry and persists it (entry bytes + header flushed, one
  // fence) before returning — the legacy standalone contract. Returns
  // kOutOfMemory when the entry does not fit.
  puddles::Status Append(uint64_t addr, const void* data, uint32_t size, uint32_t seq,
                         ReplayOrder order, uint8_t flags = 0);

  // Batched hot path: writes the entry and updates the header in place, but
  // issues NO flush and NO fence — every touched line (entry span + header)
  // is staged into `batch` instead. The append is durable only after the
  // caller runs batch->FlushPending() and fences (see the file header for the
  // publication contract and why a torn batch is safe). This function must
  // stay free of pmem::Flush/Fence calls — CI greps for it.
  puddles::Status AppendStaged(uint64_t addr, const void* data, uint32_t size, uint32_t seq,
                               ReplayOrder order, uint8_t flags, pmem::FlushBatch* batch);

  // Persistently updates the sequence range (flush + fence): the atomic
  // stage-switch primitive of the commit protocol.
  void SetSeqRange(uint32_t lo, uint32_t hi);
  std::pair<uint32_t, uint32_t> seq_range() const {
    return {header_->seq_lo, header_->seq_hi};
  }

  // Empties the log and re-opens the given range, ordered so a crash at any
  // point leaves either the old-but-invalidated or the new-and-empty state.
  // Three ordering points; safe from any starting state.
  void Reset(uint32_t lo, uint32_t hi);

  // One-fence log retirement for the undo-only commit path (DESIGN.md §10):
  // clears allocation state and bumps the generation in a single header
  // write + flush + fence, leaving the (0,2) range open. Callable only when
  // the range is already (0,2) and the log has no continuation — under those
  // preconditions every 8-byte-granular subset of the header update yields
  // either "entries still valid" (clean rollback; the transaction aborts) or
  // "entries all dead" (clean commit; targets were persisted by stage 1).
  // The caller (commit) treats this write as the commit point. Returns false
  // — without touching the header — if the preconditions do not hold, in
  // which case the caller must use the general Reset().
  bool Rearm();

  // One-fence log retirement for the hybrid commit tail: merges the (4,4)
  // "committed" flip with the clear + generation bump into a single header
  // write + flush + fence. Safe because every partial-durability subset of
  // that write either marks the log committed, empties it, or kills every
  // entry's checksum — and post-stage-2 the remaining replay work (redo
  // roll-forward) is idempotent, so "entries still valid under (2,4)" is
  // also consistent. The caller reopens the range afterwards. Returns false
  // — without touching the header — when a continuation log is linked (a
  // partially-persisted chain cut is not crash-atomic); the caller must then
  // use SetSeqRange(4,4) + Reset().
  bool RetireCommitted();

  // Volatile-only log retirement for epoch mode (docs/epoch.md): clears
  // allocation state, bumps the generation, unlinks any continuation, and
  // zeroes the epoch tag with plain stores — NO flush, NO fence. Callable by
  // the owning thread only after the epoch tagged on this log has been
  // persistently retired: from then on the durable header (tag <= retirement
  // record) gates the whole chain out of replay, so it does not matter which
  // of these stores ever reach PM — a crash recovers either the stale gated
  // header (reset without replay) or a later incarnation's published header.
  // Requires the range to be (0,2) — epoch-mode commit never moves it.
  void RearmVolatile();

  // Persistently links a continuation log.
  void SetNextLog(const Uuid& uuid);
  const Uuid& next_log() const { return header_->next_log; }

  // Epoch tag (epoch-based group commit; see the LogHeader field comment).
  // The setter is volatile on purpose: durability rides the next staged
  // append's header publication, which is fenced by the epoch advancer
  // before any of the epoch's in-place mutations can start.
  uint64_t epoch_tag() const { return header_->epoch_tag; }
  void SetEpochTagVolatile(uint64_t tag) { header_->epoch_tag = tag; }

  struct EntryView {
    const LogEntryHeader* header;
    const uint8_t* data;
    uint64_t offset;
    bool valid;          // seq within range and checksum OK.
    bool checksum_ok;
  };

  // Iterates entries in append order; stops early (returning false) if a
  // corrupt length field would walk out of bounds.
  bool ForEachEntry(const std::function<void(const EntryView&)>& fn) const;

  bool IsValid(const LogEntryHeader& entry) const;

  size_t free_bytes() const { return header_->capacity - header_->next_free; }
  uint64_t next_free() const { return header_->next_free; }
  uint32_t num_entries() const { return header_->num_entries; }
  bool empty() const { return header_->num_entries == 0; }
  uint64_t capacity() const { return header_->capacity; }
  void* base() const { return header_; }

  // Bytes an entry with `size` data bytes occupies.
  static size_t EntrySpan(uint32_t size);

 private:
  explicit LogRegion(LogHeader* header) : header_(header) {}

  static uint32_t EntryChecksum(const LogEntryHeader& entry, const void* data,
                                uint32_t generation, uint64_t epoch_tag);

  LogHeader* header_ = nullptr;
};

}  // namespace puddles

#endif  // SRC_TX_LOG_FORMAT_H_
