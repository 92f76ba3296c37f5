// On-PM puddle layout (paper §4.3).
//
// A puddle is one file: | PuddleHeader page | allocator metadata | heap |.
// "A puddle has two parts, a header, and a heap. The header stores the
// puddle's metadata information like the puddle's UUID, its size, and
// allocation metadata." Everything in the header is offset/UUID-based so a
// puddle file can be copied between machines byte-for-byte; only heap
// *pointers* need rewriting, and those are found through the allocator
// metadata plus pointer maps.
#ifndef SRC_PUDDLES_FORMAT_H_
#define SRC_PUDDLES_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "src/alloc/object_heap.h"
#include "src/common/status.h"
#include "src/common/uuid.h"

namespace puddles {

inline constexpr uint64_t kPuddleMagic = 0x454c44445550ULL;  // "PUDDLE"
// Version 2 added rewrite_frontier (resumable streaming relocation, DESIGN.md
// §7). Version-1 files predate any persisted deployment of this codebase, so
// Attach rejects them instead of upgrading in place.
inline constexpr uint32_t kPuddleVersion = 2;

// Default geometry: 4 KiB header page; 2 MiB heap (paper §4.3 configures
// "4 KiB of header space for every 2 MiB of heap"; our allocator metadata is
// byte-per-256B so the metadata region scales with the heap — ~0.4 %
// overhead, documented in DESIGN.md).
inline constexpr size_t kDefaultHeapSize = 2ULL << 20;
inline constexpr size_t kPuddleHeaderPage = 4096;

enum class PuddleKind : uint32_t {
  kData = 1,      // Object heap managed by ObjectHeap.
  kLog = 2,       // Crash-consistency log (raw heap, src/tx/log_format.h).
  kLogSpace = 3,  // Directory of logs (raw heap).
  kPoolMeta = 4,  // Pool membership metadata (raw heap).
};

// False for any value outside the enum above, such as a u32 off the wire.
inline bool IsKnownPuddleKind(PuddleKind kind) {
  switch (kind) {
    case PuddleKind::kData:
    case PuddleKind::kLog:
    case PuddleKind::kLogSpace:
    case PuddleKind::kPoolMeta:
      return true;
  }
  return false;
}

// Relocation / recovery state bits.
enum PuddleFlags : uint32_t {
  // The heap still contains pointers expressed relative to prev_base_addr;
  // they must be rewritten to base_addr before the application may see the
  // puddle (frontier state, §4.2).
  kPuddleNeedsRewrite = 1u << 0,
};

struct PuddleHeader {
  uint64_t magic;
  uint32_t version;
  PuddleKind kind;
  Uuid uuid;
  Uuid pool_uuid;  // Nil when the puddle is not part of a pool.
  uint64_t file_size;
  uint64_t heap_size;
  uint64_t meta_offset;  // Allocator metadata region (0 for raw-heap kinds).
  uint64_t meta_size;
  uint64_t heap_offset;
  // Current address of the *file start* in the global puddle space. The heap
  // lives at base_addr + heap_offset. Pointers in this puddle's heap are
  // meaningful relative to this assignment.
  uint64_t base_addr;
  // During relocation: the address the heap's embedded pointers still assume.
  uint64_t prev_base_addr;
  // Rewrite frontier (§4.2, DESIGN.md §7): while kPuddleNeedsRewrite is set,
  // every live heap object with walk index < rewrite_frontier has been fully
  // translated AND its dirtied lines fenced durable. A crash mid-rewrite
  // resumes from here instead of re-walking the whole heap; the index is over
  // ObjectHeap::ForEachObject's address-ordered walk, which is stable because
  // the heap is quiesced during relocation. Meaningless when the flag is
  // clear.
  uint64_t rewrite_frontier;
  uint32_t flags;
  uint32_t reserved;
};
static_assert(sizeof(PuddleHeader) <= kPuddleHeaderPage, "header must fit its page");

struct PuddleParams {
  PuddleKind kind = PuddleKind::kData;
  size_t heap_size = kDefaultHeapSize;
  Uuid uuid;       // Required.
  Uuid pool_uuid;  // Optional.
  uint64_t base_addr = 0;
};

// A mapped view over one puddle file.
class Puddle {
 public:
  // Total file size for a puddle formatted with the given heap (power of
  // two).
  static size_t FileSizeFor(PuddleKind kind, size_t heap_size);

  // Formats a freshly created file mapping of `file_size` bytes.
  static puddles::Status Format(void* base, size_t file_size, const PuddleParams& params);

  // Validates and attaches to an existing mapping.
  static puddles::Result<Puddle> Attach(void* base, size_t file_size);

  Puddle() = default;

  PuddleHeader* header() const { return header_; }
  const Uuid& uuid() const { return header_->uuid; }
  PuddleKind kind() const { return header_->kind; }
  uint8_t* heap() const {
    return reinterpret_cast<uint8_t*>(header_) + header_->heap_offset;
  }
  size_t heap_size() const { return header_->heap_size; }
  uint64_t base_addr() const { return header_->base_addr; }
  size_t file_size() const { return header_->file_size; }

  // The heap's address when mapped at `base_addr` (even if this view is
  // mapped elsewhere, e.g. inside the daemon).
  uint64_t heap_addr_at_base() const { return header_->base_addr + header_->heap_offset; }

  bool needs_rewrite() const { return (header_->flags & kPuddleNeedsRewrite) != 0; }
  uint64_t rewrite_frontier() const { return header_->rewrite_frontier; }

  // Object allocator over this puddle's heap (data puddles only).
  puddles::Result<ObjectHeap> object_heap(LogSink sink = {}) const;

  // Checks the geometry every data puddle has, on an untrusted header
  // (import, §4.6): a heap of one or more whole pages (Format makes a power
  // of two, TrimHeap cuts an export's copy at a page), a metadata region
  // that holds its allocator state, the heap right after that region and
  // ending at the file's end, and an object heap that attaches.
  puddles::Status CheckDataGeometry() const;

  // Cuts a data puddle's heap at `heap_size`, the ObjectHeap::TailCut of
  // the same bytes (ObjectHeap::CutAt), and records the smaller heap_size
  // and file_size in the header; meta_offset, meta_size and heap_offset
  // stay, so no heap offset or pointer changes. Nothing past the new
  // file_size is read, so it cuts a copy of just those bytes. The caller
  // truncates the file to file_size() afterwards. Meant for an export's
  // private copy, whose live extent is all an importer needs.
  puddles::Status TrimHeap(size_t heap_size);

  // Updates the persistent base-address assignment, recording the previous
  // one, setting the needs-rewrite flag, and resetting the rewrite frontier
  // (relocation step 1, §4.2).
  void AssignNewBase(uint64_t new_base);

  // Persists rewrite progress: all objects with walk index < next_index are
  // translated. The caller must have fenced every heap line it dirtied for
  // those objects BEFORE calling — the frontier may never claim more progress
  // than is durable.
  void AdvanceRewriteFrontier(uint64_t next_index);

  // Clears the rewrite state after all pointers were translated. Ordering:
  // the flag clears durably before the frontier resets, so a crash inside
  // this call either leaves (flag set, frontier = final) — a resume that
  // skips everything — or a clean puddle; never (flag set, frontier = 0).
  void CompleteRewrite();

 private:
  explicit Puddle(PuddleHeader* header) : header_(header) {}

  PuddleHeader* header_ = nullptr;
};

}  // namespace puddles

#endif  // SRC_PUDDLES_FORMAT_H_
