// File-backed persistent memory. Each puddle is one file (paper §4.3:
// "For each puddle, Puddled creates a file in the filesystem"); PmemFile owns
// the descriptor and mapping lifecycle.
//
// On DAX filesystems mmap gives direct media access; on regular filesystems
// (this repo's emulation) the page cache stands in for the PM media. The
// crash-consistency work is all expressed through pmem::Flush ordering, which
// crashsim's trace recorder interprets — see DESIGN.md §1.
#ifndef SRC_PMEM_MAPPED_FILE_H_
#define SRC_PMEM_MAPPED_FILE_H_

#include <cstddef>
#include <string>

#include "src/common/status.h"

namespace pmem {

class PmemFile {
 public:
  PmemFile() = default;
  ~PmemFile();

  PmemFile(PmemFile&& other) noexcept;
  PmemFile& operator=(PmemFile&& other) noexcept;
  PmemFile(const PmemFile&) = delete;
  PmemFile& operator=(const PmemFile&) = delete;

  // Creates a new file of `size` bytes (fails if it exists) with mode 0600.
  static puddles::Result<PmemFile> Create(const std::string& path, size_t size);

  // Opens an existing file; size is taken from the file.
  static puddles::Result<PmemFile> Open(const std::string& path, bool writable = true);

  // Adopts an already-open descriptor (e.g. one received over SCM_RIGHTS from
  // puddled). Takes ownership of `fd`.
  static puddles::Result<PmemFile> FromFd(int fd, bool writable = true);

  // Maps the whole file MAP_SHARED. If `fixed_addr` is non-null the mapping is
  // placed exactly there with MAP_FIXED (the caller must own that range, e.g.
  // via AddressReservation). Returns the mapping address.
  puddles::Result<void*> Map(void* fixed_addr = nullptr);

  // Unmaps (if mapped). The file stays open.
  void Unmap();

  // msync the mapping — only needed when real file durability (not just crash
  // simulation) is wanted, e.g. before shipping an exported pool.
  puddles::Status Sync();

  bool mapped() const { return map_base_ != nullptr; }
  void* data() const { return map_base_; }
  size_t size() const { return size_; }
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }
  bool writable() const { return writable_; }

  // Releases and returns the descriptor without closing it (for fd passing).
  int ReleaseFd();

 private:
  int fd_ = -1;
  size_t size_ = 0;
  void* map_base_ = nullptr;
  bool writable_ = true;
  std::string path_;
};

}  // namespace pmem

#endif  // SRC_PMEM_MAPPED_FILE_H_
