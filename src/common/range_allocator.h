// Pure-bookkeeping interval allocator over [base, base+size). Puddled uses one
// to hand out non-overlapping base addresses in the global puddle space, and
// pmem::AddressReservation keeps its process-local claims in one. It never
// touches memory itself: the reservation owns the PROT_NONE mapping.
#ifndef SRC_COMMON_RANGE_ALLOCATOR_H_
#define SRC_COMMON_RANGE_ALLOCATOR_H_

#include <cstdint>
#include <map>

#include "src/common/align.h"
#include "src/common/status.h"

namespace puddles {

class RangeAllocator {
 public:
  RangeAllocator() = default;
  RangeAllocator(uint64_t base, uint64_t size) : base_(base), size_(size) {}

  uint64_t base() const { return base_; }
  uint64_t size() const { return size_; }

  // First-fit allocation of a page-aligned range.
  puddles::Result<uint64_t> Allocate(uint64_t size) {
    size = AlignUp(size, kPageSize);
    uint64_t cursor = base_;
    for (const auto& [start, len] : claimed_) {
      if (start - cursor >= size) {
        claimed_[cursor] = size;
        return cursor;
      }
      cursor = start + len;
    }
    if (base_ + size_ - cursor >= size) {
      claimed_[cursor] = size;
      return cursor;
    }
    return OutOfMemoryError("address range exhausted");
  }

  puddles::Status Claim(uint64_t addr, uint64_t size) {
    size = AlignUp(size, kPageSize);
    if (!Within(addr, size)) {
      return OutOfRangeError("claim outside managed range");
    }
    if (!IsFree(addr, size)) {
      return AlreadyExistsError("range already claimed");
    }
    claimed_[addr] = size;
    return OkStatus();
  }

  bool IsFree(uint64_t addr, uint64_t size) const {
    if (!Within(addr, size)) {
      return false;
    }
    auto it = claimed_.upper_bound(addr);
    if (it != claimed_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second > addr) {
        return false;
      }
    }
    return it == claimed_.end() || it->first >= addr + size;
  }

  puddles::Status Free(uint64_t addr) {
    auto it = claimed_.find(addr);
    if (it == claimed_.end()) {
      return NotFoundError("range not claimed");
    }
    claimed_.erase(it);
    return OkStatus();
  }

  // The claimed range containing `addr`, if any: returns {start, size}.
  puddles::Result<std::pair<uint64_t, uint64_t>> Containing(uint64_t addr) const {
    auto it = claimed_.upper_bound(addr);
    if (it == claimed_.begin()) {
      return NotFoundError("no range contains address");
    }
    auto prev = std::prev(it);
    if (addr >= prev->first + prev->second) {
      return NotFoundError("no range contains address");
    }
    return std::make_pair(prev->first, prev->second);
  }

  size_t count() const { return claimed_.size(); }

 private:
  // [addr, addr+size) lies inside the managed range. Written without
  // addr + size, which a hostile base near 2^64 would wrap.
  bool Within(uint64_t addr, uint64_t size) const {
    return addr >= base_ && addr - base_ <= size_ && size <= size_ - (addr - base_);
  }

  uint64_t base_ = 0;
  uint64_t size_ = 0;
  std::map<uint64_t, uint64_t> claimed_;
};

}  // namespace puddles

#endif  // SRC_COMMON_RANGE_ALLOCATOR_H_
