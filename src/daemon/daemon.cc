#include "src/daemon/daemon.h"

#include <fcntl.h>
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

constexpr uint64_t kManifestMagic = 0x5444504d414e4946ULL;  // "FINAMPDT"

// Registry capacities (slots; powers of two).
constexpr uint64_t kPuddleTableSlots = 1 << 14;
constexpr uint64_t kPoolTableSlots = 1 << 10;
constexpr uint64_t kLogSpaceTableSlots = 1 << 10;
// Lock/table shards for the hot per-key paths (puddle and pointer-map
// registries). Each shard owns slots/shards table slots in its own file, so
// the shard count is part of the on-disk layout.
constexpr uint32_t kShards = 8;
static_assert(puddles::IsPowerOfTwo(kShards), "shard routing masks the key hash");
static_assert(kPuddleTableSlots % kShards == 0, "table slots must divide evenly across shards");

uint64_t NameKey(const std::string& name) {
  return puddles::Fnv1a64(name.data(), name.size());
}

// Creates-or-opens one registry table file.
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
    RETURN_IF_ERROR(Table::Format(base, file->size(), slots));
  }
  auto attached = Table::Attach(base, file->size());
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
  if (options.ptrmap_table_slots % kShards != 0) {
    return puddles::InvalidArgumentError("table slots must divide evenly across shards");
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
  const uint64_t ptrmap_slots = options_.ptrmap_table_slots / kShards;
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
    RETURN_IF_ERROR(OpenTable(root + "ptrmaps" + suffix, ptrmap_slots, &shard->ptrmap_file,
                              &shard->ptrmaps));
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

Daemon::Shard& Daemon::ShardForType(uint64_t type_id) {
  // splitmix64 finalizer: type ids are often small sequential integers, so
  // mix before masking. The result must stay stable across processes — the
  // shard choice decides which table file holds the record.
  uint64_t x = type_id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return *shards_[x & (shards_.size() - 1)];
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
  auto free_base = [&] {
    std::lock_guard<std::mutex> lock(addr_mu_);
    (void)addr_alloc_.Free(base);
  };
  auto file = pmem::PmemFile::Create(PuddlePath(uuid), file_size);
  if (!file.ok()) {
    free_base();
    return file.status();
  }
  auto mapped = file->Map();
  if (!mapped.ok()) {
    free_base();
    return mapped.status();
  }
  puddles::PuddleParams params;
  params.kind = kind;
  params.heap_size = heap_size;
  params.uuid = uuid;
  params.pool_uuid = pool_uuid;
  params.base_addr = base;
  RETURN_IF_ERROR(puddles::Puddle::Format(*mapped, file_size, params));
  file->Unmap();

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
    puddles::Status put = shard.puddles->Put(uuid, record);
    if (!put.ok()) {
      free_base();
      ::unlink(PuddlePath(uuid).c_str());
      return put;
    }
  }
  {
    std::lock_guard<std::mutex> lock(addr_mu_);
    by_base_[base] = uuid;
  }

  return std::make_pair(PuddleInfo::FromRecord(record), file->ReleaseFd());
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
  {
    std::shared_lock<std::shared_mutex> structure(structure_mu_);
    std::lock_guard<std::mutex> lock(pools_mu_);
    if (pools_->Contains(NameKey(name))) {
      return puddles::AlreadyExistsError("pool exists: " + name);
    }
  }
  const Uuid pool_uuid = Uuid::Generate();
  // The pool's metadata puddle (member directory + translation table).
  ASSIGN_OR_RETURN(auto created, CreatePuddle(PuddleKind::kPoolMeta, 1 << 20, creds, pool_uuid,
                                              mode));
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
  std::strncpy(info.name, record.name, sizeof(info.name) - 1);
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
  std::strncpy(info.name, record->name, sizeof(info.name) - 1);
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

puddles::Status Daemon::RegisterPtrMap(const PtrMapRecord& record) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  if (record.num_fields > kMaxPtrFields) {
    return puddles::InvalidArgumentError("too many pointer fields");
  }
  if (record.repeat_count != 0 &&
      (record.repeat_offset + static_cast<uint64_t>(record.repeat_count) * sizeof(uint64_t) >
       record.object_size)) {
    return puddles::InvalidArgumentError("pointer-array region outside object");
  }
  Shard& shard = ShardForType(record.type_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.ptrmaps->Put(record.type_id, record);
}

puddles::Result<PtrMapRecord> Daemon::GetPtrMap(uint64_t type_id) {
  std::shared_lock<std::shared_mutex> structure(structure_mu_);
  Shard& shard = ShardForType(type_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto record = shard.ptrmaps->Get(type_id);
  if (!record.ok()) {
    return puddles::NotFoundError("no pointer map for type");
  }
  return *record;
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

  // Read the member list from the pool meta puddle.
  auto meta_file = pmem::PmemFile::Open(PuddlePath(pool->meta_puddle));
  RETURN_IF_ERROR(meta_file.status());
  ASSIGN_OR_RETURN(void* meta_base, meta_file->Map());
  ASSIGN_OR_RETURN(puddles::Puddle meta_puddle,
                   puddles::Puddle::Attach(meta_base, meta_file->size()));
  ASSIGN_OR_RETURN(puddles::PoolMetaView meta, puddles::PoolMetaView::Attach(meta_puddle));

  puddles::WireWriter manifest;
  manifest.PutU64(kManifestMagic);
  manifest.PutString(pool_name);
  manifest.PutUuid(pool->pool_uuid);
  manifest.PutUuid(pool->meta_puddle);
  manifest.PutU32(meta.num_members());

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

  RETURN_IF_ERROR(copy_puddle(pool->meta_puddle));
  for (uint32_t i = 0; i < meta.num_members(); ++i) {
    manifest.PutUuid(meta.member(i));
    RETURN_IF_ERROR(copy_puddle(meta.member(i)));
  }

  // Pointer maps travel with the data (§4.2): export them all.
  std::vector<PtrMapRecord> maps;
  for (auto& shard : shards_) {
    shard->ptrmaps->ForEach([&](const uint64_t&, const PtrMapRecord& r) { maps.push_back(r); });
  }
  manifest.PutU32(static_cast<uint32_t>(maps.size()));
  for (const PtrMapRecord& r : maps) {
    manifest.PutBytes(&r, sizeof(r));
  }

  // Manifest written last: a partial export without a manifest is invisible.
  std::string manifest_path = (fs::path(dest_dir) / "manifest.bin").string();
  FILE* f = std::fopen(manifest_path.c_str(), "wb");
  if (f == nullptr) {
    return puddles::ErrnoError("write manifest", errno);
  }
  const auto& bytes = manifest.bytes();
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) {
    return puddles::IoError("short manifest write");
  }
  return puddles::OkStatus();
}

puddles::Result<ImportResult> Daemon::ImportPool(const std::string& src_dir,
                                                 const std::string& new_name,
                                                 const Credentials& creds, uint32_t mode) {
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

  uint64_t magic;
  RETURN_IF_ERROR(reader.GetU64(&magic));
  if (magic != kManifestMagic) {
    return puddles::DataLossError("bad export manifest");
  }
  std::string old_name;
  Uuid old_pool_uuid, old_meta_uuid;
  uint32_t num_members;
  RETURN_IF_ERROR(reader.GetString(&old_name));
  RETURN_IF_ERROR(reader.GetUuid(&old_pool_uuid));
  RETURN_IF_ERROR(reader.GetUuid(&old_meta_uuid));
  RETURN_IF_ERROR(reader.GetU32(&num_members));
  std::vector<Uuid> old_members(num_members);
  for (auto& member : old_members) {
    RETURN_IF_ERROR(reader.GetUuid(&member));
  }
  uint32_t num_maps;
  RETURN_IF_ERROR(reader.GetU32(&num_maps));
  std::vector<PtrMapRecord> maps(num_maps);
  for (auto& map : maps) {
    std::vector<uint8_t> blob;
    RETURN_IF_ERROR(reader.GetBytes(&blob));
    if (blob.size() != sizeof(PtrMapRecord)) {
      return puddles::DataLossError("bad pointer map blob in manifest");
    }
    std::memcpy(&map, blob.data(), sizeof(PtrMapRecord));
  }

  const Uuid new_pool_uuid = Uuid::Generate();

  // Import one puddle copy: fresh UUID, conflict-checked base.
  struct Imported {
    Uuid old_uuid;
    Uuid new_uuid;
    uint64_t old_base = 0;  // Non-zero if relocated.
    PuddleRecord record;
  };
  std::vector<Imported> imported;
  bool any_moved = false;
  std::error_code ec;

  auto import_one = [&](const Uuid& old_uuid) -> puddles::Status {
    Imported entry;
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
    imported.push_back(entry);
    return puddles::OkStatus();
  };

  RETURN_IF_ERROR(import_one(old_meta_uuid));
  for (const Uuid& member : old_members) {
    RETURN_IF_ERROR(import_one(member));
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

  // Fix the pool meta copy: new identity, remapped member UUIDs, translation
  // table with the old bases of moved members.
  const Imported& meta_entry = imported[0];
  {
    auto file = pmem::PmemFile::Open(PuddlePath(meta_entry.new_uuid));
    RETURN_IF_ERROR(file.status());
    ASSIGN_OR_RETURN(void* base, file->Map());
    ASSIGN_OR_RETURN(puddles::Puddle puddle, puddles::Puddle::Attach(base, file->size()));
    ASSIGN_OR_RETURN(puddles::PoolMetaView meta, puddles::PoolMetaView::Attach(puddle));

    auto* header = reinterpret_cast<puddles::PoolMetaHeader*>(puddle.heap());
    header->pool_uuid = new_pool_uuid;
    std::memset(header->name, 0, sizeof(header->name));
    std::strncpy(header->name, new_name.c_str(), sizeof(header->name) - 1);
    pmem::FlushFence(header, sizeof(puddles::PoolMetaHeader));

    for (uint32_t i = 0; i < meta.num_members(); ++i) {
      for (size_t j = 1; j < imported.size(); ++j) {
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
  }

  for (const PtrMapRecord& map : maps) {
    RETURN_IF_ERROR(ShardForType(map.type_id).ptrmaps->Put(map.type_id, map));
  }

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
  std::strncpy(result.pool.name, pool_record.name, sizeof(result.pool.name) - 1);
  result.members_imported = static_cast<uint32_t>(imported.size()) - 1;
  result.members_relocated = members_relocated;
  return result;
}

}  // namespace puddled
