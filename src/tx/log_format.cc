#include "src/tx/log_format.h"

#include <cstring>

#include "src/common/align.h"
#include "src/common/bug_hooks.h"
#include "src/common/checksum.h"
#include "src/pmem/flush.h"

namespace puddles {

size_t LogRegion::EntrySpan(uint32_t size) {
  return AlignUp(sizeof(LogEntryHeader) + size, 8);
}

uint32_t LogRegion::EntryChecksum(const LogEntryHeader& entry, const void* data,
                                  uint32_t generation, uint64_t epoch_tag) {
  // Checksum covers the log generation and epoch tag, everything after the
  // checksum field, then the data. Binding the generation means entries
  // validate only in the log incarnation that wrote them — a slot's stale
  // previous-generation content can never masquerade as a fresh append.
  // Binding the epoch tag hardens the volatile epoch rearm (RearmVolatile):
  // its generation bump and tag store live in different 8-byte pieces of the
  // header, so a crash can land the new tag (defeating the retirement gate)
  // while the durable header still carries the old generation and counts.
  // With the tag in the checksum, the retired epoch's entries are invalid
  // under the new tag no matter which rearm pieces persisted — found by the
  // crashsim epoch workload's eviction-subset exploration.
  if (bug_hooks::torn_append_unbound_checksum.load(std::memory_order_relaxed)) {
    generation = 0;  // Seeded bug (crashsim differential tests): unbound checksum.
  }
  uint32_t crc = Crc32c(&generation, sizeof(generation));
  crc = Crc32c(&epoch_tag, sizeof(epoch_tag), crc);
  crc = Crc32c(reinterpret_cast<const uint8_t*>(&entry) + sizeof(uint32_t),
               sizeof(LogEntryHeader) - sizeof(uint32_t), crc);
  return Crc32c(data, entry.size, crc);
}

puddles::Status LogRegion::Format(void* base, size_t capacity) {
  if (capacity < sizeof(LogHeader) + 64) {
    return InvalidArgumentError("log region too small");
  }
  std::memset(base, 0, sizeof(LogHeader));  // On media: padding too.
  auto* header = static_cast<LogHeader*>(base);
  header->magic = kLogMagic;
  header->seq_lo = 0;
  header->seq_hi = 2;  // Undo entries (seq 1) are live from the first append.
  header->next_free = sizeof(LogHeader);
  header->last_entry = 0;
  header->capacity = capacity;
  header->num_entries = 0;
  header->generation = 1;
  header->next_log = Uuid::Nil();
  header->epoch_tag = 0;  // Immediate mode until an epoch-mode tx tags it.
  pmem::FlushFence(header, sizeof(LogHeader));
  return OkStatus();
}

puddles::Result<LogRegion> LogRegion::Attach(void* base, size_t capacity) {
  auto* header = static_cast<LogHeader*>(base);
  if (header->magic != kLogMagic) {
    return DataLossError("log region: bad magic");
  }
  if (header->capacity != capacity) {
    return DataLossError("log region: capacity mismatch");
  }
  if (header->next_free < sizeof(LogHeader) || header->next_free > capacity) {
    return DataLossError("log region: corrupt next_free");
  }
  return LogRegion(header);
}

puddles::Status LogRegion::AppendStaged(uint64_t addr, const void* data, uint32_t size,
                                        uint32_t seq, ReplayOrder order, uint8_t flags,
                                        pmem::FlushBatch* batch) {
  const size_t span = EntrySpan(size);
  if (header_->next_free + span > header_->capacity) {
    return OutOfMemoryError("log region full");
  }
  const uint64_t offset = header_->next_free;
  auto* bytes = reinterpret_cast<uint8_t*>(header_);
  auto* entry = reinterpret_cast<LogEntryHeader*>(bytes + offset);
  entry->size = size;
  entry->addr = addr;
  entry->seq = seq;
  entry->order = static_cast<uint8_t>(order);
  entry->flags = flags;
  entry->reserved = 0;
  std::memcpy(entry + 1, data, size);
  entry->checksum = EntryChecksum(*entry, data, header_->generation, header_->epoch_tag);
  header_->next_free = offset + span;
  header_->last_entry = offset;
  header_->num_entries++;
  // No persistence here — only staging. Until the batch's publication fence,
  // a crash sees either the old header (staged entries invisible) or, via
  // eviction, a header that admits entries whose bytes are torn — which the
  // generation-bound checksum discards at replay.
  batch->Add(entry, sizeof(LogEntryHeader) + size);
  batch->Add(header_, sizeof(LogHeader));
  return OkStatus();
}

puddles::Status LogRegion::Append(uint64_t addr, const void* data, uint32_t size, uint32_t seq,
                                  ReplayOrder order, uint8_t flags) {
  // Standalone contract: stage, then publish under one fence before
  // returning, so an undo-logging caller may modify the target immediately.
  pmem::FlushBatch batch;
  RETURN_IF_ERROR(AppendStaged(addr, data, size, seq, order, flags, &batch));
  batch.FlushPending();
  pmem::Fence();
  return OkStatus();
}

void LogRegion::SetSeqRange(uint32_t lo, uint32_t hi) {
  header_->seq_lo = lo;
  header_->seq_hi = hi;
  pmem::FlushFence(&header_->seq_lo, sizeof(uint32_t) * 2);
}

void LogRegion::Reset(uint32_t lo, uint32_t hi) {
  // First close the range so no stale entry can be considered valid, then
  // clear allocation state, then open the new range.
  SetSeqRange(hi, hi);
  header_->next_free = sizeof(LogHeader);
  header_->last_entry = 0;
  header_->num_entries = 0;
  // New incarnation: entries the dead transaction left behind (and any stale
  // bytes beyond next_free) can never checksum-validate again. Durable before
  // the range reopens, so no fresh append can race it.
  header_->generation++;
  header_->next_log = Uuid::Nil();
  pmem::FlushFence(header_, sizeof(LogHeader));
  SetSeqRange(lo, hi);
}

bool LogRegion::Rearm() {
  if (header_->seq_lo != 0 || header_->seq_hi != 2 || !header_->next_log.is_nil()) {
    return false;
  }
  header_->next_free = sizeof(LogHeader);
  header_->last_entry = 0;
  header_->num_entries = 0;
  // Partial-durability subsets of this one-line write (8-byte granularity on
  // real PM): {num_entries=0} and {generation+1} each kill every entry;
  // {next_free reset} truncates the walk; the empty set leaves the old
  // entries valid, i.e. a clean pre-commit rollback. No subset can kill only
  // SOME entries, so there is no torn middle ground.
  header_->generation++;
  pmem::FlushFence(header_, sizeof(LogHeader));
  return true;
}

void LogRegion::RearmVolatile() {
  // Plain stores only — see the header comment for why no subset of them
  // needs to be durable once the tagged epoch is retired. This must stay free
  // of pmem::Flush/Fence calls (epoch-discipline CI gate).
  header_->next_free = sizeof(LogHeader);
  header_->last_entry = 0;
  header_->num_entries = 0;
  header_->generation++;
  header_->next_log = Uuid::Nil();
  header_->epoch_tag = 0;
}

bool LogRegion::RetireCommitted() {
  if (!header_->next_log.is_nil()) {
    return false;
  }
  header_->seq_lo = 4;
  header_->seq_hi = 4;
  header_->next_free = sizeof(LogHeader);
  header_->last_entry = 0;
  header_->num_entries = 0;
  header_->generation++;
  pmem::FlushFence(header_, sizeof(LogHeader));
  return true;
}

void LogRegion::SetNextLog(const Uuid& uuid) {
  header_->next_log = uuid;
  pmem::FlushFence(&header_->next_log, sizeof(Uuid));
}

bool LogRegion::IsValid(const LogEntryHeader& entry) const {
  return entry.seq > header_->seq_lo && entry.seq < header_->seq_hi;
}

bool LogRegion::ForEachEntry(const std::function<void(const EntryView&)>& fn) const {
  const auto* bytes = reinterpret_cast<const uint8_t*>(header_);
  uint64_t offset = sizeof(LogHeader);
  for (uint32_t i = 0; i < header_->num_entries; ++i) {
    if (offset + sizeof(LogEntryHeader) > header_->next_free) {
      return false;  // Truncated: header claims more entries than bytes.
    }
    const auto* entry = reinterpret_cast<const LogEntryHeader*>(bytes + offset);
    const size_t span = EntrySpan(entry->size);
    if (offset + span > header_->next_free) {
      return false;  // Corrupt size field.
    }
    EntryView view;
    view.header = entry;
    view.data = reinterpret_cast<const uint8_t*>(entry + 1);
    view.offset = offset;
    view.checksum_ok = EntryChecksum(*entry, view.data, header_->generation,
                                     header_->epoch_tag) == entry->checksum;
    view.valid = view.checksum_ok && IsValid(*entry);
    fn(view);
    offset += span;
  }
  return true;
}

}  // namespace puddles
