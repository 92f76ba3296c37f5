#include "src/daemon/daemon.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/sendfile.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "src/common/log.h"
#include "src/ipc/wire.h"
#include "src/pmem/global_space.h"
#include "src/puddles/pool_meta.h"
#include "src/tx/log_format.h"
#include "src/tx/log_space.h"
#include "src/tx/replay.h"

namespace puddled {
namespace {

namespace fs = std::filesystem;

// Version 2 lists the pool meta's segment chain before the data members;
// version 3 drops the pointer-map section (the maps ride in the segments).
constexpr uint64_t kManifestMagic = 0x3354464e414d4450ULL;  // "PDMANFT3"

// Registry capacities (slots; powers of two).
constexpr uint64_t kPuddleTableSlots = 1 << 14;
constexpr uint64_t kPoolTableSlots = 1 << 10;
constexpr uint64_t kLogSpaceTableSlots = 1 << 10;
// Lock/table shards for the hot per-key path (the puddle registry). Each
// shard owns slots/shards table slots in its own file, so the shard count is
// part of the on-disk layout.
constexpr uint32_t kShards = 8;
static_assert(puddles::IsPowerOfTwo(kShards), "shard routing masks the key hash");
static_assert(kPuddleTableSlots % kShards == 0, "table slots must divide evenly across shards");

uint64_t NameKey(const std::string& name) {
  return puddles::Fnv1a64(name.data(), name.size());
}

// A pool name must fit PoolRecord::name with its terminator. OpenPool
// compares the stored name with the full requested one, so a longer name
// could be created or imported but never opened.
puddles::Status CheckPoolName(const std::string& name) {
  if (name.size() >= sizeof(PoolRecord::name)) {
    return puddles::InvalidArgumentError("pool name too long");
  }
  return puddles::OkStatus();
}

// Copies a stored name, at most sizeof(PoolInfo::name) - 1 bytes of it, into
// a fresh (zero-filled) PoolInfo, which keeps its last byte as terminator.
void CopyPoolName(const char (&name)[sizeof(PoolRecord::name)], PoolInfo* info) {
  static_assert(sizeof(PoolRecord::name) == sizeof(PoolInfo::name));
  std::memcpy(info->name, name, ::strnlen(name, sizeof(info->name) - 1));
}

// Reads a u32-counted UUID list from an export manifest, refusing a count
// longer than the bytes left could hold.
puddles::Status GetUuidList(puddles::WireReader* reader, std::vector<Uuid>* out) {
  uint32_t count = 0;
  RETURN_IF_ERROR(reader->GetU32(&count));
  if (count > reader->remaining() / sizeof(Uuid)) {
    return puddles::DataLossError("export manifest: list longer than the manifest");
  }
  out->resize(count);
  for (Uuid& uuid : *out) {
    RETURN_IF_ERROR(reader->GetUuid(&uuid));
  }
  return puddles::OkStatus();
}

// Copies the first `bytes` of `from` to the same offsets of `to`, a fresh
// file (its offset starts at 0), without leaving the kernel.
puddles::Status CopyPrefix(int from, int to, size_t bytes) {
  off_t offset = 0;
  while (static_cast<size_t>(offset) < bytes) {
    const ssize_t n = ::sendfile(to, from, &offset, bytes - static_cast<size_t>(offset));
    if (n < 0 && errno != EINTR) {
      return puddles::ErrnoError("copy exported puddle", errno);
    }
    if (n == 0) {
      return puddles::IoError("copy exported puddle: file shorter than its heap");
    }
  }
  return puddles::OkStatus();
}

// Runs `undo` when it leaves scope: a multi-step mutation arms one after
// its first claim and sets the flag `undo` checks once every step is done.
struct UndoUnlessComplete {
  std::function<void()> undo;
  ~UndoUnlessComplete() { undo(); }
};

// Maps puddle files for PoolMetaView::Attach, keeping each mapping alive as
// long as the opener.
class FileSegmentOpener {
 public:
  puddles::Result<puddles::Puddle> Open(const std::string& path) {
    ASSIGN_OR_RETURN(pmem::PmemFile file, pmem::PmemFile::Open(path));
    ASSIGN_OR_RETURN(void* base, file.Map());
    ASSIGN_OR_RETURN(puddles::Puddle puddle, puddles::Puddle::Attach(base, file.size()));
    files_.push_back(std::move(file));
    return puddle;
  }

 private:
  std::vector<pmem::PmemFile> files_;
};

// Creates-or-opens one registry table file. A created file is extended by
// ftruncate, so its slots already read as empty and only the header is
// written. Its slots are reached by hash, so its mapping is advised random:
// the header store's fault would otherwise read around it and fill the
// file's holes with zero pages.
template <typename Table>
puddles::Status OpenTable(const std::string& path, uint64_t slots, pmem::PmemFile* file,
                          std::unique_ptr<Table>* table) {
  const size_t bytes = puddles::AlignUp(Table::RequiredBytes(slots), puddles::kPageSize);
  bool fresh = !fs::exists(path);
  if (fresh) {
    ASSIGN_OR_RETURN(*file, pmem::PmemFile::Create(path, bytes));
  } else {
    ASSIGN_OR_RETURN(*file, pmem::PmemFile::Open(path));
  }
  ASSIGN_OR_RETURN(void* base, file->Map());
  if (fresh) {
    (void)::madvise(base, file->size(), MADV_RANDOM);  // Advice only: failure changes no result.
  }
  auto attached = fresh ? Table::FormatZeroed(base, file->size(), slots)
                        : Table::Attach(base, file->size());
  RETURN_IF_ERROR(attached.status());
  *table = std::make_unique<Table>(std::move(*attached));
  return puddles::OkStatus();
}

}  // namespace

Credentials Credentials::Self() {
  Credentials creds;
  creds.uid = ::geteuid();
  creds.gid = ::getegid();
  return creds;
}

Daemon::~Daemon() = default;

puddles::Result<std::unique_ptr<Daemon>> Daemon::Start(const Options& options) {
  if (options.root_dir.empty()) {
    return puddles::InvalidArgumentError("daemon needs a root directory");
  }
  std::unique_ptr<Daemon> daemon(new Daemon(options));
  RETURN_IF_ERROR(daemon->Initialize());
  if (options.run_recovery) {
    auto report = daemon->RunRecovery();
    RETURN_IF_ERROR(report.status());
    if (report->entries_applied > 0 || report->logs_marked_invalid > 0) {
      PUD_LOG_INFO("recovery: %llu entries applied, %llu logs invalidated",
                   static_cast<unsigned long long>(report->entries_applied),
                   static_cast<unsigned long long>(report->logs_marked_invalid));
    }
  }
  return daemon;
}

puddles::Status Daemon::Initialize() {
  std::error_code ec;
  fs::create_directories(options_.root_dir, ec);
  if (ec) {
    return puddles::IoError("create root dir: " + ec.message());
  }
  RETURN_IF_ERROR(OpenTables());
  return RebuildAddressMap();
}

puddles::Status Daemon::OpenTables() {
  const std::string root = options_.root_dir + "/";
  const uint64_t puddle_slots = kPuddleTableSlots / kShards;
  // Shard choice is part of the on-disk layout: hash routing and file naming
  // both depend on it. A reopen with a different count must fail loudly —
  // opening a subset (or expecting extra shards) would silently hide the
  // records living in the other files.
  if (fs::exists(root + "puddles.0.tbl")) {
    const bool extra = fs::exists(root + "puddles." + std::to_string(kShards) + ".tbl");
    const bool missing = !fs::exists(root + "puddles." + std::to_string(kShards - 1) + ".tbl");
    if (extra || missing) {
      return puddles::FailedPreconditionError(
          "daemon root was created with a different shard count");
    }
  }
  shards_.clear();
  for (uint32_t i = 0; i < kShards; ++i) {
    auto shard = std::make_unique<Shard>();
    const std::string suffix = "." + std::to_string(i) + ".tbl";
    RETURN_IF_ERROR(OpenTable(root + "puddles" + suffix, puddle_slots, &shard->puddle_file,
                              &shard->puddles));
    shards_.push_back(std::move(shard));
  }
  RETURN_IF_ERROR(OpenTable(root + "pools.tbl", kPoolTableSlots, &pool_table_file_, &pools_));
  RETURN_IF_ERROR(OpenTable(root + "logspaces.tbl", kLogSpaceTableSlots,
                            &logspace_table_file_, &logspaces_));
  return puddles::OkStatus();
}

Daemon::Shard& Daemon::ShardFor(const Uuid& uuid) {
  return *shards_[puddles::UuidHash{}(uuid) & (shards_.size() - 1)];
}

void Daemon::ForEachPuddle(bool exclusive,
                           const std::function<void(const Uuid&, const PuddleRecord&)>& fn) {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock;
    if (!exclusive) {
      lock = std::unique_lock<std::mutex>(shard->mu);
    }
    shard->puddles->ForEach(fn);
  }
}

puddles::Status Daemon::RebuildAddressMap() {
  // Startup only: single-threaded, so no locks (exclusive iteration).
  addr_alloc_ = puddles::RangeAllocator(pmem::ConfiguredSpaceBase(),
                                        pmem::ConfiguredSpaceSize());
  by_base_.clear();
  // Pass 1: real base assignments. These must all claim cleanly — an actual
  // overlap between two live puddles is registry corruption.
  puddles::Status status = puddles::OkStatus();
  ForEachPuddle(/*exclusive=*/true, [&](const Uuid& uuid, const PuddleRecord& record) {
    if (!status.ok()) {
      return;
    }
    puddles::Status claim = addr_alloc_.Claim(record.base_addr, record.file_size);
    if (!claim.ok()) {
      status = puddles::DataLossError("overlapping base assignments in registry: " +
                                      uuid.ToString());
      return;
    }
    by_base_[record.base_addr] = uuid;
  });
  RETURN_IF_ERROR(status);
  // Pass 2: frontier holds. An unfinished relocation keeps its old range
  // reserved so stale pointers can never alias a new puddle (§4.2). Best
  // effort: when the conflict that forced the relocation is a live puddle
  // (the import-next-to-original case), its base claim from pass 1 already
  // covers the range — a hold claimed in hash order before that puddle's own
  // record would make pass 1 falsely report corruption, which is exactly the
  // restart-after-crashed-import bug crashsim found.
  ForEachPuddle(/*exclusive=*/true, [&](const Uuid&, const PuddleRecord& record) {
    if (record.prev_base != 0 && record.prev_base != record.base_addr) {
      (void)addr_alloc_.Claim(record.prev_base, record.file_size);
    }
  });
  return status;
}

std::string Daemon::PuddlePath(const Uuid& uuid) const {
  return options_.root_dir + "/" + uuid.ToString() + ".pud";
}

puddles::Status Daemon::CheckAccess(uint32_t owner_uid, uint32_t owner_gid, uint32_t mode,
                                    const Credentials& creds, bool write) {
  uint32_t bits;
  if (creds.uid == owner_uid) {
    bits = (mode >> 6) & 7;
  } else if (creds.gid == owner_gid) {
    bits = (mode >> 3) & 7;
  } else {
    bits = mode & 7;
  }
  const uint32_t needed = write ? 0b010 : 0b100;
  if ((bits & needed) != needed) {
    return puddles::PermissionDeniedError(write ? "write access denied"
                                                : "read access denied");
  }
  return puddles::OkStatus();
}

puddles::Result<PuddleRecord> Daemon::LookupPuddle(const Uuid& uuid) {
  Shard& shard = ShardFor(uuid);
  std::lock_guard<std::mutex> lock(shard.mu);
  return LookupPuddleUnlocked(uuid);
}

puddles::Result<PuddleRecord> Daemon::LookupPuddleUnlocked(const Uuid& uuid) {
  auto record = ShardFor(uuid).puddles->Get(uuid);
  if (!record.ok()) {
    return puddles::NotFoundError("unknown puddle " + uuid.ToString());
  }
  return *record;
}

puddles::Status Daemon::UpdatePuddleRecordUnlocked(const PuddleRecord& record) {
  return ShardFor(record.uuid).puddles->Put(record.uuid, record);
}

void Daemon::RollbackPuddle(const Uuid& uuid) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  Shard& shard = ShardFor(uuid);
  PuddleRecord record{};
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto found = shard.puddles->Get(uuid);
    if (!found.ok()) {
      return;
    }
    record = *found;
    (void)shard.puddles->Erase(uuid);
  }
  {
    std::lock_guard<std::mutex> lock(addr_mu_);
    (void)addr_alloc_.Free(record.base_addr);
    by_base_.erase(record.base_addr);
  }
  ::unlink(PuddlePath(uuid).c_str());
}

puddles::Result<std::pair<PuddleInfo, int>> Daemon::CreatePuddle(PuddleKind kind,
                                                                 size_t heap_size,
                                                                 const Credentials& creds,
                                                                 const Uuid& pool_uuid,
                                                                 uint32_t mode) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  // The kind may come off the wire as any u32 (§4.6).
  if (!puddles::IsKnownPuddleKind(kind)) {
    return puddles::InvalidArgumentError("unknown puddle kind");
  }
  if (!puddles::IsPowerOfTwo(heap_size)) {
    return puddles::InvalidArgumentError("puddle heap size must be a power of two");
  }
  const Uuid uuid = Uuid::Generate();
  const size_t file_size = puddles::Puddle::FileSizeFor(kind, heap_size);

  uint64_t base = 0;
  {
    std::lock_guard<std::mutex> lock(addr_mu_);
    ASSIGN_OR_RETURN(base, addr_alloc_.Allocate(file_size));
  }
  // A failed create leaves nothing behind: the range is freed and the file,
  // if it was made, unlinked.
  bool complete = false;
  UndoUnlessComplete undo_unless_complete{[&] {
    if (complete) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(addr_mu_);
      (void)addr_alloc_.Free(base);
    }
    ::unlink(PuddlePath(uuid).c_str());
  }};
  ASSIGN_OR_RETURN(pmem::PmemFile file, pmem::PmemFile::Create(PuddlePath(uuid), file_size));
  ASSIGN_OR_RETURN(void* mapped, file.Map());
  puddles::PuddleParams params;
  params.kind = kind;
  params.heap_size = heap_size;
  params.uuid = uuid;
  params.pool_uuid = pool_uuid;
  params.base_addr = base;
  RETURN_IF_ERROR(puddles::Puddle::Format(mapped, file_size, params));
  file.Unmap();

  PuddleRecord record{};
  record.uuid = uuid;
  record.pool_uuid = pool_uuid;
  record.kind = static_cast<uint32_t>(kind);
  record.mode = mode;
  record.owner_uid = creds.uid;
  record.owner_gid = creds.gid;
  record.base_addr = base;
  record.file_size = file_size;
  record.heap_size = heap_size;
  {
    Shard& shard = ShardFor(uuid);
    std::lock_guard<std::mutex> lock(shard.mu);
    RETURN_IF_ERROR(shard.puddles->Put(uuid, record));
  }
  {
    std::lock_guard<std::mutex> lock(addr_mu_);
    by_base_[base] = uuid;
  }
  complete = true;
  return std::make_pair(PuddleInfo::FromRecord(record), file.ReleaseFd());
}

puddles::Result<std::pair<PuddleInfo, int>> Daemon::GetPuddle(const Uuid& uuid,
                                                              const Credentials& creds,
                                                              bool write) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  ASSIGN_OR_RETURN(PuddleRecord record, LookupPuddle(uuid));
  RETURN_IF_ERROR(CheckAccess(record.owner_uid, record.owner_gid, record.mode, creds, write));
  int fd = ::open(PuddlePath(uuid).c_str(), write ? O_RDWR : O_RDONLY);
  if (fd < 0) {
    return puddles::ErrnoError("open puddle file", errno);
  }
  return std::make_pair(PuddleInfo::FromRecord(record), fd);
}

puddles::Result<PuddleInfo> Daemon::StatPuddle(const Uuid& uuid, const Credentials& creds) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  ASSIGN_OR_RETURN(PuddleRecord record, LookupPuddle(uuid));
  RETURN_IF_ERROR(
      CheckAccess(record.owner_uid, record.owner_gid, record.mode, creds, /*write=*/false));
  return PuddleInfo::FromRecord(record);
}

puddles::Result<PuddleInfo> Daemon::FindPuddleByAddr(uint64_t addr, const Credentials& creds) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  Uuid uuid;
  {
    std::lock_guard<std::mutex> lock(addr_mu_);
    auto range = addr_alloc_.Containing(addr);
    if (!range.ok()) {
      return puddles::NotFoundError("address not in any puddle");
    }
    auto it = by_base_.find(range->first);
    if (it == by_base_.end()) {
      return puddles::NotFoundError("address in a frontier hold, not a live puddle");
    }
    uuid = it->second;
  }
  ASSIGN_OR_RETURN(PuddleRecord record, LookupPuddle(uuid));
  RETURN_IF_ERROR(
      CheckAccess(record.owner_uid, record.owner_gid, record.mode, creds, /*write=*/false));
  return PuddleInfo::FromRecord(record);
}

puddles::Status Daemon::DeletePuddle(const Uuid& uuid, const Credentials& creds) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  PuddleRecord record{};
  {
    Shard& shard = ShardFor(uuid);
    std::lock_guard<std::mutex> lock(shard.mu);
    ASSIGN_OR_RETURN(record, LookupPuddleUnlocked(uuid));
    RETURN_IF_ERROR(
        CheckAccess(record.owner_uid, record.owner_gid, record.mode, creds, /*write=*/true));
    RETURN_IF_ERROR(shard.puddles->Erase(uuid));
  }
  {
    std::lock_guard<std::mutex> lock(addr_mu_);
    (void)addr_alloc_.Free(record.base_addr);
    by_base_.erase(record.base_addr);
  }
  ::unlink(PuddlePath(uuid).c_str());
  return puddles::OkStatus();
}

puddles::Result<PoolInfo> Daemon::CreatePool(const std::string& name, const Credentials& creds,
                                             uint32_t mode) {
  RETURN_IF_ERROR(CheckPoolName(name));
  {
    std::shared_lock<std::shared_mutex> structure(structure_mu_);
    std::lock_guard<std::mutex> lock(pools_mu_);
    if (pools_->Contains(NameKey(name))) {
      return puddles::AlreadyExistsError("pool exists: " + name);
    }
  }
  const Uuid pool_uuid = Uuid::Generate();
  // The pool's metadata puddle (member directory + translation table): its
  // first segment, one page; Pool::AddDataPuddle chains more when it fills.
  ASSIGN_OR_RETURN(auto created, CreatePuddle(PuddleKind::kPoolMeta, puddles::kPoolMetaHeapSize,
                                              creds, pool_uuid, mode));
  auto [meta_info, fd] = created;
  auto format_meta = [&]() -> puddles::Status {
    auto file = pmem::PmemFile::FromFd(fd);
    RETURN_IF_ERROR(file.status());
    ASSIGN_OR_RETURN(void* base, file->Map());
    ASSIGN_OR_RETURN(puddles::Puddle meta_puddle,
                     puddles::Puddle::Attach(base, file->size()));
    return puddles::PoolMetaView::Format(meta_puddle, pool_uuid, name.c_str());
  };
  if (puddles::Status formatted = format_meta(); !formatted.ok()) {
    RollbackPuddle(meta_info.uuid);
    return formatted;
  }

  PoolRecord record{};
  record.pool_uuid = pool_uuid;
  record.meta_puddle = meta_info.uuid;
  std::strncpy(record.name, name.c_str(), sizeof(record.name) - 1);
  record.owner_uid = creds.uid;
  record.owner_gid = creds.gid;
  record.mode = mode;

  bool lost_race = false;
  {
    std::shared_lock<std::shared_mutex> structure(structure_mu_);
    std::lock_guard<std::mutex> lock(pools_mu_);
    // Re-check under the lock: another CreatePool for the same name may have
    // won between the pre-check above and here.
    if (pools_->Contains(NameKey(name))) {
      lost_race = true;
    } else {
      RETURN_IF_ERROR(pools_->Put(NameKey(name), record));
    }
  }
  if (lost_race) {
    RollbackPuddle(meta_info.uuid);
    return puddles::AlreadyExistsError("pool exists: " + name);
  }

  PoolInfo info;
  info.pool_uuid = pool_uuid;
  info.meta_puddle = meta_info.uuid;
  CopyPoolName(record.name, &info);
  return info;
}

puddles::Result<PoolInfo> Daemon::OpenPool(const std::string& name, const Credentials& creds) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  std::lock_guard<std::mutex> lock(pools_mu_);
  auto record = pools_->Get(NameKey(name));
  if (!record.ok() || std::strncmp(record->name, name.c_str(), sizeof(record->name)) != 0) {
    return puddles::NotFoundError("unknown pool: " + name);
  }
  RETURN_IF_ERROR(CheckAccess(record->owner_uid, record->owner_gid, record->mode, creds,
                              /*write=*/false));
  PoolInfo info;
  info.pool_uuid = record->pool_uuid;
  info.meta_puddle = record->meta_puddle;
  CopyPoolName(record->name, &info);
  return info;
}

puddles::Status Daemon::RegisterLogSpace(const Uuid& uuid, const Credentials& creds) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  ASSIGN_OR_RETURN(PuddleRecord record, LookupPuddle(uuid));
  if (record.kind != static_cast<uint32_t>(PuddleKind::kLogSpace)) {
    return puddles::InvalidArgumentError("not a log space puddle");
  }
  RETURN_IF_ERROR(
      CheckAccess(record.owner_uid, record.owner_gid, record.mode, creds, /*write=*/true));
  LogSpaceRecord ls{};
  ls.uuid = uuid;
  ls.owner_uid = creds.uid;
  ls.owner_gid = creds.gid;
  std::lock_guard<std::mutex> lock(logspaces_mu_);
  return logspaces_->Put(uuid, ls);
}

puddles::Status Daemon::CompleteRewrite(const Uuid& uuid, const Credentials& creds) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  Shard& shard = ShardFor(uuid);
  std::lock_guard<std::mutex> lock(shard.mu);
  ASSIGN_OR_RETURN(PuddleRecord record, LookupPuddleUnlocked(uuid));
  RETURN_IF_ERROR(
      CheckAccess(record.owner_uid, record.owner_gid, record.mode, creds, /*write=*/true));
  record.flags &= ~puddles::kPuddleNeedsRewrite;
  record.prev_base = 0;
  RETURN_IF_ERROR(UpdatePuddleRecordUnlocked(record));
  // Note: the old range is NOT freed here. In the conflict case it belongs to
  // the live puddle that caused the conflict; in the foreign-import case it
  // was never claimed. Still-flagged members translate pointers through the
  // pool meta's persistent old-base table, which outlives this flag.
  return puddles::OkStatus();
}

uint64_t Daemon::puddle_count() {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  uint64_t total = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->puddles->size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Recovery (§4.1, §4.6)
// ---------------------------------------------------------------------------

namespace {

// Maps data puddles at their assigned bases on demand and confines writes to
// puddles the crashed owner could modify.
class RecoveryResolver : public puddles::AddressResolver {
 public:
  struct MappedPuddle {
    pmem::PmemFile file;
    uint64_t base;
    uint64_t size;
  };

  RecoveryResolver(puddles::RangeAllocator* alloc,
                   std::unordered_map<uint64_t, Uuid>* by_base,
                   std::function<puddles::Result<PuddleRecord>(const Uuid&)> lookup,
                   std::function<std::string(const Uuid&)> path_of, Credentials owner)
      : alloc_(alloc),
        by_base_(by_base),
        lookup_(std::move(lookup)),
        path_of_(std::move(path_of)),
        owner_(owner) {}

  ~RecoveryResolver() {
    auto& space = pmem::GlobalPuddleSpace();
    for (auto& [base, mapped] : mapped_) {
      (void)space.UnmapToReserved(mapped.base, mapped.size);
      (void)space.FreeRange(mapped.base);
    }
  }

  void* Resolve(uint64_t addr, uint32_t size) override {
    auto range = alloc_->Containing(addr);
    if (!range.ok()) {
      return nullptr;
    }
    auto it = by_base_->find(range->first);
    if (it == by_base_->end()) {
      return nullptr;  // Frontier hold or freed puddle: not writable.
    }
    auto record = lookup_(it->second);
    if (!record.ok()) {
      return nullptr;
    }
    if (addr + size > record->base_addr + record->file_size) {
      return nullptr;
    }
    if (!Daemon::CheckAccess(record->owner_uid, record->owner_gid, record->mode,
                                       owner_, /*write=*/true)
             .ok()) {
      return nullptr;
    }
    if (mapped_.find(record->base_addr) == mapped_.end()) {
      if (!MapAtBase(*record).ok()) {
        return nullptr;
      }
    }
    return reinterpret_cast<void*>(addr);
  }

 private:
  puddles::Status MapAtBase(const PuddleRecord& record) {
    auto& space = pmem::GlobalPuddleSpace();
    auto file = pmem::PmemFile::Open(path_of_(record.uuid));
    RETURN_IF_ERROR(file.status());
    RETURN_IF_ERROR(space.ClaimRange(record.base_addr, record.file_size));
    puddles::Status mapped = space.MapFileAt(file->fd(), record.base_addr, record.file_size,
                                             /*writable=*/true);
    if (!mapped.ok()) {
      (void)space.FreeRange(record.base_addr);
      return mapped;
    }
    MappedPuddle entry;
    entry.file = std::move(*file);
    entry.base = record.base_addr;
    entry.size = record.file_size;
    mapped_.emplace(record.base_addr, std::move(entry));
    return puddles::OkStatus();
  }

  puddles::RangeAllocator* alloc_;
  std::unordered_map<uint64_t, Uuid>* by_base_;
  std::function<puddles::Result<PuddleRecord>(const Uuid&)> lookup_;
  std::function<std::string(const Uuid&)> path_of_;
  Credentials owner_;
  std::unordered_map<uint64_t, MappedPuddle> mapped_;
};

}  // namespace

puddles::Result<RecoveryReport> Daemon::RunRecovery() {
  // Recovery rewrites client-visible state wholesale: take the structure lock
  // exclusively and access every registry without fine-grained locks.
  std::unique_lock<std::shared_mutex> structure(structure_mu_);
  return RunRecoveryLocked();
}

puddles::Result<RecoveryReport> Daemon::RunRecoveryLocked() {
  RecoveryReport report;

  std::vector<LogSpaceRecord> spaces;
  logspaces_->ForEach(
      [&](const Uuid&, const LogSpaceRecord& record) { spaces.push_back(record); });

  for (const LogSpaceRecord& space_record : spaces) {
    ++report.log_spaces_scanned;
    auto ls_record = LookupPuddleUnlocked(space_record.uuid);
    if (!ls_record.ok()) {
      continue;  // Log space puddle vanished; nothing to recover.
    }
    auto ls_file = pmem::PmemFile::Open(PuddlePath(space_record.uuid));
    if (!ls_file.ok()) {
      continue;
    }
    auto ls_base = ls_file->Map();
    if (!ls_base.ok()) {
      continue;
    }
    auto ls_puddle = puddles::Puddle::Attach(*ls_base, ls_file->size());
    if (!ls_puddle.ok()) {
      continue;
    }
    auto ls_view = puddles::LogSpaceView::Attach(*ls_puddle);
    if (!ls_view.ok()) {
      continue;
    }

    Credentials owner{space_record.owner_uid, space_record.owner_gid};

    for (uint32_t i = 0; i < ls_view->num_entries(); ++i) {
      ++report.logs_scanned;
      // Follow the chain of log puddles (Fig. 5). A broken or cyclic chain
      // is skipped whole.
      std::vector<pmem::PmemFile> chain_files;
      auto chain = puddles::OpenLogChain(
          ls_view->entry(i), [&](const Uuid& uuid) -> puddles::Result<puddles::LogRegion> {
            ASSIGN_OR_RETURN(PuddleRecord record, LookupPuddleUnlocked(uuid));
            if (record.kind != static_cast<uint32_t>(PuddleKind::kLog)) {
              return puddles::FailedPreconditionError("log chain links a non-log puddle");
            }
            ASSIGN_OR_RETURN(pmem::PmemFile file, pmem::PmemFile::Open(PuddlePath(uuid)));
            ASSIGN_OR_RETURN(void* base, file.Map());
            ASSIGN_OR_RETURN(puddles::Puddle puddle, puddles::Puddle::Attach(base, file.size()));
            chain_files.push_back(std::move(file));
            return puddles::LogRegion::Attach(puddle.heap(), puddle.heap_size());
          });
      if (!chain.ok() || chain->empty()) {
        continue;
      }
      if (puddles::RetiredByEpoch(chain->front(), ls_view->retired_epoch())) {
        // Its epoch is durable whole: replay would roll committed work back.
        ++report.logs_gated_retired;
        chain->front().Reset(0, 2);
        continue;
      }

      RecoveryResolver resolver(
          &addr_alloc_, &by_base_,
          [this](const Uuid& uuid) { return LookupPuddleUnlocked(uuid); },
          [this](const Uuid& uuid) { return PuddlePath(uuid); }, owner);
      auto stats = puddles::ReplayLogChain(*chain, resolver);
      if (!stats.ok()) {
        // Poisoned log: mark invalid, never replay (§4.6). Range (0,0) keeps
        // all entries out of range until the owner resets it.
        chain->front().SetSeqRange(0, 0);
        ++report.logs_marked_invalid;
        continue;
      }
      report.entries_applied += stats->applied;
      report.volatile_skipped += stats->skipped_volatile;
      if (stats->applied > 0) {
        ++report.logs_replayed;
      }
      chain->front().Reset(0, 2);
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Export / import (§4.2)
// ---------------------------------------------------------------------------

puddles::Status Daemon::ExportPool(const std::string& pool_name, const std::string& dest_dir,
                                   const Credentials& creds) {
  // Exports read a consistent whole-pool snapshot: exclusive structure lock,
  // registries accessed without fine-grained locks below.
  std::unique_lock<std::shared_mutex> structure(structure_mu_);
  auto pool = pools_->Get(NameKey(pool_name));
  if (!pool.ok()) {
    return puddles::NotFoundError("unknown pool: " + pool_name);
  }
  RETURN_IF_ERROR(
      CheckAccess(pool->owner_uid, pool->owner_gid, pool->mode, creds, /*write=*/false));

  std::error_code ec;
  fs::create_directories(dest_dir, ec);
  if (ec) {
    return puddles::IoError("create export dir: " + ec.message());
  }

  // Read the member list from the pool meta's segment chain.
  FileSegmentOpener segment_files;
  ASSIGN_OR_RETURN(puddles::PoolMetaView meta,
                   puddles::PoolMetaView::Attach(pool->meta_puddle, [&](const Uuid& uuid) {
                     return segment_files.Open(PuddlePath(uuid));
                   }));

  puddles::WireWriter manifest;
  manifest.PutU64(kManifestMagic);
  manifest.PutString(pool_name);
  manifest.PutUuid(pool->pool_uuid);

  // Copy files byte-for-byte: "Exporting pools in Puddles does not require
  // any serialization and exports the raw in-memory data structures."
  auto copy_puddle = [&](const Uuid& uuid) -> puddles::Status {
    fs::copy_file(PuddlePath(uuid), fs::path(dest_dir) / (uuid.ToString() + ".pud"),
                  fs::copy_options::overwrite_existing, ec);
    if (ec) {
      return puddles::IoError("copy puddle: " + ec.message());
    }
    return puddles::OkStatus();
  };
  // A data member ships only its live extent: its heap is cut at the first
  // page above its highest allocated block. The cut is read from the
  // member's validated allocator state (ObjectHeap::TailCut), mapped
  // read-only; only the bytes below it are copied, into a file of the
  // member's size whose tail stays a hole, and the copy is cut there
  // (Puddle::TrimHeap) and truncated to match. Offsets and pointers are
  // unchanged.
  auto copy_member = [&](const Uuid& uuid) -> puddles::Status {
    ASSIGN_OR_RETURN(pmem::PmemFile source,
                     pmem::PmemFile::Open(PuddlePath(uuid), /*writable=*/false));
    ASSIGN_OR_RETURN(void* source_base, source.Map());
    ASSIGN_OR_RETURN(puddles::Puddle member, puddles::Puddle::Attach(source_base, source.size()));
    ASSIGN_OR_RETURN(const puddles::ObjectHeap member_heap, member.object_heap());
    ASSIGN_OR_RETURN(const size_t heap_size, member_heap.TailCut());
    const size_t shipped = member.header()->heap_offset + heap_size;
    const fs::path dest = fs::path(dest_dir) / (uuid.ToString() + ".pud");
    std::error_code stale;
    fs::remove(dest, stale);  // A re-export replaces the old copy; Create fails if it stays.
    ASSIGN_OR_RETURN(pmem::PmemFile file, pmem::PmemFile::Create(dest.string(), source.size()));
    RETURN_IF_ERROR(CopyPrefix(source.fd(), file.fd(), shipped));
    if (shipped == source.size()) {
      return puddles::OkStatus();  // An imported copy is cut already.
    }
    ASSIGN_OR_RETURN(void* base, file.Map());
    ASSIGN_OR_RETURN(puddles::Puddle puddle, puddles::Puddle::Attach(base, file.size()));
    RETURN_IF_ERROR(puddle.TrimHeap(heap_size));
    file.Unmap();
    if (::ftruncate(file.fd(), static_cast<off_t>(shipped)) != 0) {
      return puddles::ErrnoError("truncate exported puddle", errno);
    }
    return puddles::OkStatus();
  };

  manifest.PutU32(meta.num_segments());
  for (uint32_t s = 0; s < meta.num_segments(); ++s) {
    manifest.PutUuid(meta.segment(s));
    RETURN_IF_ERROR(copy_puddle(meta.segment(s)));
  }
  manifest.PutU32(meta.num_members());
  for (uint32_t i = 0; i < meta.num_members(); ++i) {
    manifest.PutUuid(meta.member(i));
    RETURN_IF_ERROR(copy_member(meta.member(i)));
  }

  // Manifest written last: a partial export without a manifest is invisible.
  // fwrite only buffers the bytes; fclose flushes them, so its result is the
  // write's, and a manifest that failed to reach the file is removed.
  std::string manifest_path = (fs::path(dest_dir) / "manifest.bin").string();
  FILE* f = std::fopen(manifest_path.c_str(), "wb");
  if (f == nullptr) {
    return puddles::ErrnoError("write manifest", errno);
  }
  const auto& bytes = manifest.bytes();
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  if (std::fclose(f) != 0 || written != bytes.size()) {
    const int error = errno;
    std::remove(manifest_path.c_str());
    return puddles::ErrnoError("write manifest", error);
  }
  return puddles::OkStatus();
}

puddles::Result<ImportResult> Daemon::ImportPool(const std::string& src_dir,
                                                 const std::string& new_name,
                                                 const Credentials& creds, uint32_t mode) {
  RETURN_IF_ERROR(CheckPoolName(new_name));
  // Imports mutate the address map, multiple shards, and the pool directory
  // as one logical step: exclusive structure lock, no fine-grained locks.
  std::unique_lock<std::shared_mutex> structure(structure_mu_);
  if (pools_->Contains(NameKey(new_name))) {
    return puddles::AlreadyExistsError("pool exists: " + new_name);
  }

  // Parse the manifest.
  std::string manifest_path = (fs::path(src_dir) / "manifest.bin").string();
  auto manifest_file = pmem::PmemFile::Open(manifest_path, /*writable=*/false);
  RETURN_IF_ERROR(manifest_file.status());
  ASSIGN_OR_RETURN(void* mbase, manifest_file->Map());
  puddles::WireReader reader(static_cast<const uint8_t*>(mbase), manifest_file->size());

  uint64_t magic = 0;
  RETURN_IF_ERROR(reader.GetU64(&magic));
  if (magic != kManifestMagic) {
    return puddles::DataLossError("bad export manifest");
  }
  std::string old_name;
  Uuid old_pool_uuid;
  std::vector<Uuid> old_segments;
  std::vector<Uuid> old_members;
  RETURN_IF_ERROR(reader.GetString(&old_name));
  RETURN_IF_ERROR(reader.GetUuid(&old_pool_uuid));
  RETURN_IF_ERROR(GetUuidList(&reader, &old_segments));
  if (old_segments.empty()) {
    return puddles::DataLossError("export manifest lists no pool meta segment");
  }
  RETURN_IF_ERROR(GetUuidList(&reader, &old_members));

  const Uuid new_pool_uuid = Uuid::Generate();

  // Import one puddle copy: fresh UUID, conflict-checked base.
  struct Imported {
    Uuid old_uuid;
    Uuid new_uuid;
    uint64_t old_base = 0;  // Non-zero if relocated.
    PuddleRecord record{};
  };
  std::vector<Imported> imported;
  bool any_moved = false;
  std::error_code ec;

  // A failed import leaves nothing behind: every copy is unlinked, its
  // address claim freed and its record, if already written, erased.
  bool complete = false;
  UndoUnlessComplete undo_unless_complete{[&] {
    if (complete) {
      return;
    }
    for (const Imported& entry : imported) {
      if (entry.record.base_addr != 0) {
        (void)addr_alloc_.Free(entry.record.base_addr);
        by_base_.erase(entry.record.base_addr);
      }
      (void)ShardFor(entry.new_uuid).puddles->Erase(entry.new_uuid);
      ::unlink(PuddlePath(entry.new_uuid).c_str());
    }
  }};

  // The copies are untrusted input (§4.6): each must be the kind the
  // manifest lists it as, and a data member must have a data puddle's
  // geometry — exports trim heaps, so the header decides the extent — and
  // allocator state that validates, since the importer allocates from its
  // free lists and walks its slabs, before its range is claimed. Object
  // sizes are not checked: each walk that reads an object bounds its size by
  // its slot or block.
  auto import_one = [&](const Uuid& old_uuid, PuddleKind kind) -> puddles::Status {
    Imported& entry = imported.emplace_back();
    entry.old_uuid = old_uuid;
    entry.new_uuid = Uuid::Generate();
    fs::path src = fs::path(src_dir) / (old_uuid.ToString() + ".pud");
    fs::copy_file(src, PuddlePath(entry.new_uuid), ec);
    if (ec) {
      return puddles::IoError("copy import: " + ec.message());
    }
    auto file = pmem::PmemFile::Open(PuddlePath(entry.new_uuid));
    RETURN_IF_ERROR(file.status());
    ASSIGN_OR_RETURN(void* base, file->Map());
    ASSIGN_OR_RETURN(puddles::Puddle puddle, puddles::Puddle::Attach(base, file->size()));
    if (puddle.kind() != kind) {
      return puddles::DataLossError("exported puddle is not of its manifest kind");
    }
    if (kind == PuddleKind::kData) {
      RETURN_IF_ERROR(puddle.CheckDataGeometry());
      ASSIGN_OR_RETURN(puddles::ObjectHeap heap, puddle.object_heap());
      RETURN_IF_ERROR(heap.ValidateAllocator());
    }

    // Re-identify the copy.
    puddle.header()->uuid = entry.new_uuid;
    puddle.header()->pool_uuid = new_pool_uuid;
    pmem::FlushFence(puddle.header(), sizeof(puddles::PuddleHeader));

    const uint64_t wanted = puddle.base_addr();
    uint64_t assigned = wanted;
    if (addr_alloc_.Claim(wanted, file->size()).ok()) {
      // "In the common case where the assigned address ... does not conflict
      // ... Libpuddles can simply map the puddle."
    } else {
      ASSIGN_OR_RETURN(assigned, addr_alloc_.Allocate(file->size()));
      puddle.AssignNewBase(assigned);  // Sets prev_base + needs-rewrite flag.
      entry.old_base = wanted;
      any_moved = true;
    }

    PuddleRecord record{};
    record.uuid = entry.new_uuid;
    record.pool_uuid = new_pool_uuid;
    record.kind = static_cast<uint32_t>(puddle.kind());
    record.mode = mode;
    record.owner_uid = creds.uid;
    record.owner_gid = creds.gid;
    record.base_addr = assigned;
    record.file_size = file->size();
    record.heap_size = puddle.heap_size();
    record.prev_base = puddle.header()->prev_base_addr;
    record.flags = puddle.header()->flags;
    entry.record = record;
    return puddles::OkStatus();
  };

  for (const Uuid& segment : old_segments) {
    RETURN_IF_ERROR(import_one(segment, PuddleKind::kPoolMeta));
  }
  for (const Uuid& member : old_members) {
    RETURN_IF_ERROR(import_one(member, PuddleKind::kData));
  }

  // The copied segment chain must be exactly the manifest's: the opener
  // hands out the copies in manifest order and refuses any other link, and
  // Attach refuses a link back into the chain.
  FileSegmentOpener segment_files;
  size_t segments_opened = 0;
  auto chain = puddles::PoolMetaView::Attach(
      old_segments[0], [&](const Uuid& uuid) -> puddles::Result<puddles::Puddle> {
        if (segments_opened == old_segments.size() ||
            imported[segments_opened].old_uuid != uuid) {
          return puddles::DataLossError("pool meta chain does not match the export manifest");
        }
        return segment_files.Open(PuddlePath(imported[segments_opened++].new_uuid));
      });
  RETURN_IF_ERROR(chain.status());
  puddles::PoolMetaView& meta = *chain;
  if (segments_opened != old_segments.size() || meta.num_members() != old_members.size()) {
    return puddles::DataLossError("pool meta chain does not match the export manifest");
  }

  // If anything moved, every data member's content is suspect: pointers may
  // target moved ranges. Flag them all; the translation table says how to
  // rewrite (identity-based members translate pointers into *other* members'
  // old ranges).
  uint32_t members_relocated = 0;
  for (Imported& entry : imported) {
    puddles::PuddleKind kind = static_cast<puddles::PuddleKind>(entry.record.kind);
    if (entry.old_base != 0) {
      ++members_relocated;
    }
    if (any_moved && kind == PuddleKind::kData &&
        (entry.record.flags & puddles::kPuddleNeedsRewrite) == 0) {
      auto file = pmem::PmemFile::Open(PuddlePath(entry.new_uuid));
      RETURN_IF_ERROR(file.status());
      ASSIGN_OR_RETURN(void* base, file->Map());
      ASSIGN_OR_RETURN(puddles::Puddle puddle, puddles::Puddle::Attach(base, file->size()));
      puddle.header()->flags |= puddles::kPuddleNeedsRewrite;
      puddle.header()->prev_base_addr = puddle.base_addr();  // Identity translation.
      // Arming the flag must also restart the walk: an export taken from a
      // puddle whose CompleteRewrite tore between its two fences carries a
      // stale (flag-clear, frontier = count) header, and resuming from it
      // here would skip the whole rewrite.
      puddle.header()->rewrite_frontier = 0;
      pmem::FlushFence(puddle.header(), sizeof(puddles::PuddleHeader));
      entry.record.flags = puddle.header()->flags;
      entry.record.prev_base = puddle.header()->prev_base_addr;
    }
    RETURN_IF_ERROR(UpdatePuddleRecordUnlocked(entry.record));
    by_base_[entry.record.base_addr] = entry.new_uuid;
  }

  // Fix the pool meta copy: new identity, segment links to the copies,
  // remapped member UUIDs, translation table with the old bases of moved
  // members.
  RETURN_IF_ERROR(meta.SetIdentity(new_pool_uuid, new_name.c_str()));
  for (uint32_t s = 0; s < meta.num_segments(); ++s) {
    meta.RenameSegment(s, imported[s].new_uuid);
  }
  for (uint32_t i = 0; i < meta.num_members(); ++i) {
    for (size_t j = old_segments.size(); j < imported.size(); ++j) {
      if (imported[j].old_uuid == meta.member(i)) {
        RETURN_IF_ERROR(meta.ReplaceMember(i, imported[j].new_uuid));
        meta.SetMemberOldBase(i, imported[j].old_base);
        if (meta.root_puddle() == imported[j].old_uuid) {
          meta.SetRoot(imported[j].new_uuid, meta.root_offset());
        }
        break;
      }
    }
  }

  const Imported& meta_entry = imported[0];
  PoolRecord pool_record{};
  pool_record.pool_uuid = new_pool_uuid;
  pool_record.meta_puddle = meta_entry.new_uuid;
  std::strncpy(pool_record.name, new_name.c_str(), sizeof(pool_record.name) - 1);
  pool_record.owner_uid = creds.uid;
  pool_record.owner_gid = creds.gid;
  pool_record.mode = mode;
  RETURN_IF_ERROR(pools_->Put(NameKey(new_name), pool_record));

  ImportResult result;
  result.pool.pool_uuid = new_pool_uuid;
  result.pool.meta_puddle = meta_entry.new_uuid;
  CopyPoolName(pool_record.name, &result.pool);
  result.members_imported = static_cast<uint32_t>(old_members.size());
  result.members_relocated = members_relocated;
  complete = true;
  return result;
}

}  // namespace puddled
