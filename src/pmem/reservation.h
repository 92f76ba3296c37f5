// The global puddle address space (paper §3.4).
//
// "We reserve 1 TiB of address space as the global puddle space at a fixed
// virtual address, disregarding Linux's ASLR for the address range."
//
// AddressReservation mmaps a PROT_NONE / MAP_NORESERVE region at a fixed base
// hint, claims the page-aligned sub-ranges the daemon assigned to puddles,
// maps puddle files into them with MAP_FIXED, and returns ranges to PROT_NONE
// when puddles are unmapped. Any access to a reserved-but-unmapped range
// raises SIGSEGV, which the fault handler (src/libpuddles/fault_handler.h)
// turns into on-demand puddle mapping — the cascading relocation mechanism of
// §4.2.
#ifndef SRC_PMEM_RESERVATION_H_
#define SRC_PMEM_RESERVATION_H_

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "src/common/range_allocator.h"
#include "src/common/status.h"

namespace pmem {

inline constexpr uintptr_t kDefaultPuddleSpaceBase = 0x10000000000ULL;  // 1 TiB mark.
inline constexpr size_t kDefaultPuddleSpaceSize = 1ULL << 36;           // 64 GiB reserved.

class AddressReservation {
 public:
  AddressReservation() = default;
  ~AddressReservation();

  AddressReservation(const AddressReservation&) = delete;
  AddressReservation& operator=(const AddressReservation&) = delete;

  // Reserves [base_hint, base_hint+size) PROT_NONE. If the hint is taken
  // (e.g. two processes in one test binary), falls back to a kernel-chosen
  // address — pointers are relocatable anyway, that is the whole point.
  puddles::Status Reserve(uintptr_t base_hint = kDefaultPuddleSpaceBase,
                          size_t size = kDefaultPuddleSpaceSize);

  void Release();

  bool reserved() const { return base_ != 0; }
  uintptr_t base() const { return base_; }
  size_t size() const { return size_; }

  bool Contains(uintptr_t addr) const { return addr >= base_ && addr < base_ + size_; }
  bool Contains(const void* addr) const { return Contains(reinterpret_cast<uintptr_t>(addr)); }

  // Claims the sub-range a puddle was assigned, rounded up to whole pages.
  // Fails if any part is already claimed or lies outside the reservation.
  // The range stays PROT_NONE until MapFileAt.
  puddles::Status ClaimRange(uintptr_t addr, size_t size);

  // Returns a claimed range to PROT_NONE and unclaims it (must exactly match
  // a prior ClaimRange).
  puddles::Status FreeRange(uintptr_t addr);

  // Maps `fd` (whole file of `size` bytes) at `addr`, which must be a claimed
  // range of at least `size` bytes.
  puddles::Status MapFileAt(int fd, uintptr_t addr, size_t size, bool writable);

  // Returns [addr, addr+size) to PROT_NONE (the range stays claimed).
  puddles::Status UnmapToReserved(uintptr_t addr, size_t size);

  // Number of currently claimed ranges (diagnostics).
  size_t claimed_ranges() const;

 private:
  uintptr_t base_ = 0;
  size_t size_ = 0;

  mutable std::mutex mu_;
  puddles::RangeAllocator claims_;
};

}  // namespace pmem

#endif  // SRC_PMEM_RESERVATION_H_
