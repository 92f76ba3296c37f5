#include "src/pmem/reservation.h"

#include <sys/mman.h>

#include <cerrno>

#include "src/common/align.h"
#include "src/common/log.h"

namespace pmem {

AddressReservation::~AddressReservation() { Release(); }

puddles::Status AddressReservation::Reserve(uintptr_t base_hint, size_t size) {
  if (reserved()) {
    return puddles::FailedPreconditionError("address space already reserved");
  }
  if (!puddles::IsAligned(base_hint, puddles::kPageSize) ||
      !puddles::IsAligned(size, puddles::kPageSize)) {
    return puddles::InvalidArgumentError("reservation base/size must be page aligned");
  }
  // Try the fixed hint first without clobbering existing mappings.
  void* base = ::mmap(reinterpret_cast<void*>(base_hint), size, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED_NOREPLACE, -1, 0);
  if (base == MAP_FAILED) {
    PUD_LOG_WARN("puddle space hint %p unavailable (%d); falling back to kernel placement",
                 reinterpret_cast<void*>(base_hint), errno);
    base = ::mmap(nullptr, size, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      return puddles::ErrnoError("reserve puddle space", errno);
    }
  }
  base_ = reinterpret_cast<uintptr_t>(base);
  size_ = size;
  std::lock_guard<std::mutex> lock(mu_);
  claims_ = puddles::RangeAllocator(base_, size_);
  return puddles::OkStatus();
}

void AddressReservation::Release() {
  if (reserved()) {
    ::munmap(reinterpret_cast<void*>(base_), size_);
    base_ = 0;
    size_ = 0;
    std::lock_guard<std::mutex> lock(mu_);
    claims_ = puddles::RangeAllocator();
  }
}

puddles::Status AddressReservation::ClaimRange(uintptr_t addr, size_t size) {
  if (!reserved()) {
    return puddles::FailedPreconditionError("no reservation");
  }
  std::lock_guard<std::mutex> lock(mu_);
  return claims_.Claim(addr, size);
}

puddles::Status AddressReservation::FreeRange(uintptr_t addr) {
  std::lock_guard<std::mutex> lock(mu_);
  auto range = claims_.Containing(addr);
  if (!range.ok() || range->first != addr) {
    return puddles::NotFoundError("range not claimed");
  }
  // Return the pages to PROT_NONE so stray pointers fault rather than read
  // stale puddle contents.
  void* remapped = ::mmap(reinterpret_cast<void*>(addr), range->second, PROT_NONE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1, 0);
  if (remapped == MAP_FAILED) {
    return puddles::ErrnoError("remap range to PROT_NONE", errno);
  }
  return claims_.Free(addr);
}

puddles::Status AddressReservation::MapFileAt(int fd, uintptr_t addr, size_t size,
                                              bool writable) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto range = claims_.Containing(addr);
    if (!range.ok()) {
      return puddles::FailedPreconditionError("mapping target not claimed");
    }
    if (addr + size > range->first + range->second) {
      return puddles::FailedPreconditionError("mapping exceeds claimed range");
    }
  }
  int prot = PROT_READ | (writable ? PROT_WRITE : 0);
  void* base = ::mmap(reinterpret_cast<void*>(addr), size, prot, MAP_SHARED | MAP_FIXED, fd, 0);
  if (base == MAP_FAILED) {
    return puddles::ErrnoError("map puddle file", errno);
  }
  return puddles::OkStatus();
}

puddles::Status AddressReservation::UnmapToReserved(uintptr_t addr, size_t size) {
  void* remapped = ::mmap(reinterpret_cast<void*>(addr), size, PROT_NONE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1, 0);
  if (remapped == MAP_FAILED) {
    return puddles::ErrnoError("unmap to reserved", errno);
  }
  return puddles::OkStatus();
}

size_t AddressReservation::claimed_ranges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return claims_.count();
}

}  // namespace pmem
