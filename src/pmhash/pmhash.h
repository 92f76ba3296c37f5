// Crash-consistent open-addressing hash table on persistent memory.
//
// Puddled keeps its metadata — the puddle registry, pool directory and
// log-space registrations — in instances of this map. Pointer maps, which the
// paper keeps here too (§4.2), live in each pool's meta segments instead
// (DESIGN.md §7).
//
// Crash safety without a general transaction system:
//   * Insert: write key/value/crc, flush, fence, then publish with the state
//     byte, flush, fence. A crash before publication loses the insert
//     atomically.
//   * Update: journaled. The new slot image is written to a single-slot
//     journal in the header, made valid, copied into place, then retired. A
//     crash replays or discards the journal on Attach.
//   * Erase: single state-byte store (atomic).
//   * Torn slots (possible only under adversarial cache eviction) are fenced
//     off by the per-slot CRC and demoted to tombstones on Attach, which
//     keeps probe chains intact.
//
// Keys and values must be trivially copyable. Capacity is fixed at Format
// time (a power of two); the daemon sizes its tables generously.
#ifndef SRC_PMHASH_PMHASH_H_
#define SRC_PMHASH_PMHASH_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>

#include "src/common/align.h"
#include "src/common/checksum.h"
#include "src/common/status.h"
#include "src/pmem/flush.h"

namespace puddles {

template <typename K, typename V, typename HashFn = std::hash<K>,
          typename EqFn = std::equal_to<K>>
class PersistentHashMap {
  static_assert(std::is_trivially_copyable_v<K>, "keys must be trivially copyable");
  static_assert(std::is_trivially_copyable_v<V>, "values must be trivially copyable");

 public:
  // "PDMAP02D": v2 added Header::slot_size so a value-layout change (e.g.
  // PtrMapRecord growing its repeat region) is an explicit format error at
  // Attach, not a misleading capacity failure. v1 files are rejected.
  static constexpr uint64_t kMagic = 0x50444d4150303244ULL;  // "PDMAP02D"

  static constexpr size_t RequiredBytes(uint64_t capacity) {
    return sizeof(Header) + capacity * sizeof(Slot);
  }

  // Formats `mem`, whatever it holds: every slot is zeroed and flushed.
  static puddles::Status Format(void* mem, size_t bytes, uint64_t capacity) {
    RETURN_IF_ERROR(CheckGeometry(bytes, capacity));
    std::memset(mem, 0, RequiredBytes(capacity));
    WriteHeader(mem, capacity);
    pmem::FlushFence(mem, RequiredBytes(capacity));
    return OkStatus();
  }

  // Formats memory whose slots already read as kEmpty (0), such as a file
  // just extended with ftruncate, and attaches to it: only the header is
  // written and flushed, and no slot is read, so the table starts empty
  // without faulting in its slot pages.
  static puddles::Result<PersistentHashMap> FormatZeroed(void* mem, size_t bytes,
                                                         uint64_t capacity) {
    RETURN_IF_ERROR(CheckGeometry(bytes, capacity));
    std::memset(mem, 0, sizeof(Header));
    WriteHeader(mem, capacity);
    pmem::FlushFence(mem, sizeof(Header));
    return PersistentHashMap(static_cast<Header*>(mem));
  }

  // Attaches to a formatted region, replaying the update journal if a crash
  // interrupted a Put, and demoting torn slots to tombstones.
  static puddles::Result<PersistentHashMap> Attach(void* mem, size_t bytes) {
    auto* header = static_cast<Header*>(mem);
    if (header->magic != kMagic) {
      return DataLossError("pmhash: bad magic (or pre-v2 table; reformat)");
    }
    if (header->slot_size != sizeof(Slot)) {
      return DataLossError("pmhash: slot size mismatch — key/value layout changed");
    }
    if (bytes < RequiredBytes(header->capacity)) {
      return DataLossError("pmhash: buffer smaller than recorded capacity");
    }
    PersistentHashMap map(header);
    map.RecoverJournal();
    map.ScrubAndCount();
    return map;
  }

  // Inserts or updates. Fails with kOutOfMemory when the table is beyond its
  // safe load factor.
  puddles::Status Put(const K& key, const V& value) {
    uint64_t index;
    bool found = Locate(key, &index);
    if (found) {
      // Journaled in-place update.
      Slot image;
      image.state = kUsed;
      image.key = key;
      image.value = value;
      image.crc = SlotCrc(image);
      Journal* journal = &header_->journal;
      journal->slot_index = index;
      std::memcpy(journal->image, &image, sizeof(Slot));
      pmem::FlushFence(journal, sizeof(Journal));
      journal->valid = 1;
      pmem::FlushFence(&journal->valid, sizeof(journal->valid));
      std::memcpy(&slots()[index], &image, sizeof(Slot));
      pmem::FlushFence(&slots()[index], sizeof(Slot));
      journal->valid = 0;
      pmem::FlushFence(&journal->valid, sizeof(journal->valid));
      return OkStatus();
    }
    if ((size_ + 1) * 10 > header_->capacity * 9) {
      return OutOfMemoryError("pmhash: table full");
    }
    // `index` is the first free (empty or tombstone) slot on the probe path.
    Slot* slot = &slots()[index];
    slot->key = key;
    slot->value = value;
    slot->crc = SlotCrcOf(key, value);
    pmem::FlushFence(slot, sizeof(Slot));
    slot->state = kUsed;  // Publication point.
    pmem::FlushFence(&slot->state, sizeof(slot->state));
    ++size_;
    return OkStatus();
  }

  puddles::Result<V> Get(const K& key) const {
    uint64_t index;
    if (!Locate(key, &index)) {
      return NotFoundError("pmhash: key not found");
    }
    return slots()[index].value;
  }

  bool Contains(const K& key) const {
    uint64_t index;
    return Locate(key, &index);
  }

  puddles::Status Erase(const K& key) {
    uint64_t index;
    if (!Locate(key, &index)) {
      return NotFoundError("pmhash: key not found");
    }
    slots()[index].state = kTombstone;  // Single-byte store: atomic.
    pmem::FlushFence(&slots()[index].state, sizeof(uint8_t));
    --size_;
    return OkStatus();
  }

  void ForEach(const std::function<void(const K&, const V&)>& fn) const {
    if (size_ == 0) {
      return;  // An empty table reads no slot page.
    }
    for (uint64_t i = 0; i < header_->capacity; ++i) {
      const Slot& slot = slots()[i];
      if (slot.state == kUsed) {
        fn(slot.key, slot.value);
      }
    }
  }

  uint64_t size() const { return size_; }
  uint64_t capacity() const { return header_->capacity; }

 private:
  enum SlotState : uint8_t { kEmpty = 0, kUsed = 1, kTombstone = 2 };

  struct Slot {
    uint8_t state;
    K key;
    V value;
    uint32_t crc;
  };

  struct Journal {
    uint64_t slot_index;
    uint32_t valid;
    uint32_t reserved;
    alignas(8) uint8_t image[sizeof(Slot)];
  };

  struct Header {
    uint64_t magic;
    uint64_t capacity;
    uint64_t slot_size;  // sizeof(Slot); layout drift is detected at Attach.
    Journal journal;
  };

  explicit PersistentHashMap(Header* header) : header_(header) {}

  static puddles::Status CheckGeometry(size_t bytes, uint64_t capacity) {
    if (!IsPowerOfTwo(capacity)) {
      return InvalidArgumentError("pmhash capacity must be a power of two");
    }
    if (bytes < RequiredBytes(capacity)) {
      return InvalidArgumentError("pmhash buffer too small for capacity");
    }
    return OkStatus();
  }

  // Fills in a zeroed header; the caller flushes it.
  static void WriteHeader(void* mem, uint64_t capacity) {
    auto* header = static_cast<Header*>(mem);
    header->magic = kMagic;
    header->capacity = capacity;
    header->slot_size = sizeof(Slot);
  }

  Slot* slots() const { return reinterpret_cast<Slot*>(header_ + 1); }

  static uint32_t SlotCrcOf(const K& key, const V& value) {
    uint32_t crc = Crc32c(&key, sizeof(K));
    return Crc32c(&value, sizeof(V), crc);
  }
  static uint32_t SlotCrc(const Slot& slot) { return SlotCrcOf(slot.key, slot.value); }

  // Finds `key`. Returns true with its index, or false with the index of the
  // first insertable slot along the probe path (capacity if none).
  bool Locate(const K& key, uint64_t* index) const {
    const uint64_t mask = header_->capacity - 1;
    uint64_t i = HashFn{}(key)&mask;
    uint64_t first_free = header_->capacity;
    for (uint64_t probes = 0; probes < header_->capacity; ++probes, i = (i + 1) & mask) {
      const Slot& slot = slots()[i];
      if (slot.state == kEmpty) {
        *index = first_free != header_->capacity ? first_free : i;
        return false;
      }
      if (slot.state == kTombstone) {
        if (first_free == header_->capacity) {
          first_free = i;
        }
        continue;
      }
      if (EqFn{}(slot.key, key)) {
        *index = i;
        return true;
      }
    }
    *index = first_free;
    return false;
  }

  void RecoverJournal() {
    Journal* journal = &header_->journal;
    if (journal->valid != 0 && journal->slot_index < header_->capacity) {
      std::memcpy(&slots()[journal->slot_index], journal->image, sizeof(Slot));
      pmem::FlushFence(&slots()[journal->slot_index], sizeof(Slot));
      journal->valid = 0;
      pmem::FlushFence(&journal->valid, sizeof(journal->valid));
    }
  }

  void ScrubAndCount() {
    size_ = 0;
    for (uint64_t i = 0; i < header_->capacity; ++i) {
      Slot& slot = slots()[i];
      if (slot.state != kUsed) {
        continue;
      }
      if (SlotCrc(slot) != slot.crc) {
        // Torn publication (state byte persisted ahead of the payload under
        // simulated eviction). Demote to tombstone so probe chains through
        // this slot stay valid.
        slot.state = kTombstone;
        pmem::FlushFence(&slot.state, sizeof(uint8_t));
        continue;
      }
      ++size_;
    }
  }

  Header* header_ = nullptr;
  uint64_t size_ = 0;  // Volatile; recomputed on Attach.
};

}  // namespace puddles

#endif  // SRC_PMHASH_PMHASH_H_
