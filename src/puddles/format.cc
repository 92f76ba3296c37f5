#include "src/puddles/format.h"

#include <cstring>

#include "src/common/align.h"
#include "src/pmem/flush.h"

namespace puddles {
namespace {

bool KindUsesObjectHeap(PuddleKind kind) { return kind == PuddleKind::kData; }

}  // namespace

size_t Puddle::FileSizeFor(PuddleKind kind, size_t heap_size) {
  size_t meta = KindUsesObjectHeap(kind)
                    ? AlignUp(ObjectHeap::MetaSize(heap_size), kPageSize)
                    : 0;
  return kPuddleHeaderPage + meta + heap_size;
}

puddles::Status Puddle::Format(void* base, size_t file_size, const PuddleParams& params) {
  if (!IsPowerOfTwo(params.heap_size)) {
    return InvalidArgumentError("puddle heap size must be a power of two");
  }
  if (params.uuid.is_nil()) {
    return InvalidArgumentError("puddle needs a UUID");
  }
  const size_t expected = FileSizeFor(params.kind, params.heap_size);
  if (file_size != expected) {
    return InvalidArgumentError("puddle file size does not match geometry");
  }

  std::memset(base, 0, sizeof(PuddleHeader));  // On media: padding too.
  auto* header = static_cast<PuddleHeader*>(base);
  header->magic = kPuddleMagic;
  header->version = kPuddleVersion;
  header->kind = params.kind;
  header->uuid = params.uuid;
  header->pool_uuid = params.pool_uuid;
  header->file_size = file_size;
  header->heap_size = params.heap_size;
  header->base_addr = params.base_addr;
  header->prev_base_addr = 0;
  header->rewrite_frontier = 0;
  header->flags = 0;

  const size_t meta_size = KindUsesObjectHeap(params.kind)
                               ? AlignUp(ObjectHeap::MetaSize(params.heap_size), kPageSize)
                               : 0;
  header->meta_offset = meta_size != 0 ? kPuddleHeaderPage : 0;
  header->meta_size = meta_size;
  header->heap_offset = kPuddleHeaderPage + meta_size;

  auto* bytes = static_cast<uint8_t*>(base);
  if (KindUsesObjectHeap(params.kind)) {
    RETURN_IF_ERROR(ObjectHeap::Format(bytes + header->meta_offset,
                                       bytes + header->heap_offset, params.heap_size));
  }
  pmem::FlushFence(base, kPuddleHeaderPage + meta_size);
  return OkStatus();
}

puddles::Result<Puddle> Puddle::Attach(void* base, size_t file_size) {
  auto* header = static_cast<PuddleHeader*>(base);
  if (header->magic != kPuddleMagic) {
    return DataLossError("not a puddle: bad magic");
  }
  if (header->version != kPuddleVersion) {
    return DataLossError("puddle format version mismatch");
  }
  if (header->file_size != file_size) {
    return DataLossError("puddle file size mismatch");
  }
  // Overflow-safe: both fields come from the file, and an export's file is
  // outside input (§4.6).
  if (header->heap_offset > file_size || header->heap_size > file_size - header->heap_offset) {
    return DataLossError("puddle heap extends past file end");
  }
  return Puddle(header);
}

puddles::Result<ObjectHeap> Puddle::object_heap(LogSink sink) const {
  if (header_->kind != PuddleKind::kData) {
    return FailedPreconditionError("only data puddles have object heaps");
  }
  auto* bytes = reinterpret_cast<uint8_t*>(header_);
  return ObjectHeap::Attach(bytes + header_->meta_offset, bytes + header_->heap_offset,
                            header_->heap_size, sink);
}

puddles::Status Puddle::CheckDataGeometry() const {
  const PuddleHeader& h = *header_;
  if (h.kind != PuddleKind::kData) {
    return DataLossError("not a data puddle");
  }
  if (h.heap_size < kPageSize || h.heap_size % kPageSize != 0) {
    return DataLossError("data puddle heap is not a whole number of pages");
  }
  if (h.meta_offset != kPuddleHeaderPage || h.meta_size >= h.file_size ||
      h.meta_size < AlignUp(ObjectHeap::MetaSize(h.heap_size), kPageSize)) {
    return DataLossError("data puddle metadata region does not fit its heap");
  }
  if (h.heap_offset != kPuddleHeaderPage + h.meta_size || h.heap_size > h.file_size ||
      h.heap_offset != h.file_size - h.heap_size) {
    return DataLossError("data puddle heap does not span metadata end to file end");
  }
  return object_heap().status();
}

puddles::Status Puddle::TrimHeap(size_t heap_size) {
  ASSIGN_OR_RETURN(ObjectHeap heap, object_heap());
  RETURN_IF_ERROR(heap.CutAt(heap_size));
  header_->heap_size = heap_size;
  header_->file_size = header_->heap_offset + heap_size;
  pmem::FlushFence(header_, header_->heap_offset);
  return OkStatus();
}

void Puddle::AssignNewBase(uint64_t new_base) {
  // Ordering: record the old base, the rewrite obligation, and a zeroed
  // frontier *before* the new assignment becomes durable, so a crash can
  // never leave a puddle claiming a base its pointers do not match without
  // (flag set, frontier = 0) forcing a full rewrite against it.
  header_->prev_base_addr = header_->base_addr;
  header_->rewrite_frontier = 0;
  header_->flags |= kPuddleNeedsRewrite;
  pmem::FlushFence(header_, sizeof(PuddleHeader));
  header_->base_addr = new_base;
  pmem::FlushFence(&header_->base_addr, sizeof(header_->base_addr));
}

void Puddle::AdvanceRewriteFrontier(uint64_t next_index) {
  header_->rewrite_frontier = next_index;
  pmem::FlushFence(&header_->rewrite_frontier, sizeof(header_->rewrite_frontier));
}

void Puddle::CompleteRewrite() {
  // The flag must clear durably before the frontier resets: a crash between
  // the two fences leaves a clean puddle with a stale (ignored) frontier,
  // whereas the reverse order could leave (flag set, frontier = 0) after a
  // finished rewrite and force a full — possibly no-longer-idempotent —
  // re-translation.
  header_->flags &= ~kPuddleNeedsRewrite;
  pmem::FlushFence(&header_->flags, sizeof(header_->flags));
  header_->prev_base_addr = 0;
  header_->rewrite_frontier = 0;
  pmem::FlushFence(header_, sizeof(PuddleHeader));
}

}  // namespace puddles
