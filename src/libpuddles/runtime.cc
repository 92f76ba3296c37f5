#include "src/libpuddles/runtime.h"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <unordered_map>

#include "src/common/log.h"
#include "src/libpuddles/fault_router.h"
#include "src/libpuddles/pool.h"
#include "src/pmem/global_space.h"

namespace puddles {
namespace {
// One cached log per (runtime, thread), keyed by Runtime::generation_ so a
// new Runtime at a recycled address can never alias stale thread state.
// Values are Runtime::ThreadLog* (private nested type, hence void* here).
thread_local std::unordered_map<uint64_t, void*> tls_logs;
}  // namespace

puddles::Result<std::unique_ptr<Runtime>> Runtime::Create(
    std::shared_ptr<puddled::DaemonClient> client) {
  if (!pmem::GlobalPuddleSpace().reserved()) {
    return UnavailableError("global puddle space reservation failed");
  }
  static std::atomic<uint64_t> next_generation{1};
  std::unique_ptr<Runtime> runtime(new Runtime(std::move(client)));
  runtime->generation_ = next_generation.fetch_add(1);
  Runtime* raw = runtime.get();
  runtime->resolver_id_ =
      FaultRouter::Instance().AddResolver([raw](uintptr_t addr) { return raw->HandleFault(addr); });
  return runtime;
}

Runtime::~Runtime() {
  // Clean shutdown hands the arenas of this thread and of exited threads back
  // to the shared heap, so the next OpenPool needs no GC. Arenas of threads
  // still running stay active; the next OpenPool reclaims them. Flushing
  // needs the epoch system (it Syncs under epoch durability), so it runs
  // first.
  for (auto& pool : pools_) {
    puddles::Status flushed = pool->FlushAllArenas();
    if (!flushed.ok()) {
      PUD_LOG_WARN("pool %s: arena flush at teardown failed: %s", pool->name().c_str(),
                   flushed.ToString().c_str());
    }
  }
  FaultRouter::Instance().RemoveResolver(resolver_id_);
  // Stop the epoch advancer first: its final close/drain writes into mapped
  // log and log-space puddles, which are unmapped just below.
  epoch_sys_.reset();
  std::lock_guard<std::mutex> lock(mu_);
  auto& space = pmem::GlobalPuddleSpace();
  for (auto& [base, entry] : entries_by_base_) {
    if (entry->mapped) {
      (void)space.UnmapToReserved(entry->info.base_addr, entry->info.file_size);
    }
    (void)space.FreeRange(entry->info.base_addr);
    if (entry->fd >= 0) {
      ::close(entry->fd);
    }
  }
}

puddles::Result<Runtime::Entry*> Runtime::CreateMappedPuddle(PuddleKind kind, size_t heap_size,
                                                             const Uuid& pool_uuid,
                                                             const Pool* pool) {
  ASSIGN_OR_RETURN(auto created, client_->CreatePuddle(kind, heap_size, pool_uuid));
  ASSIGN_OR_RETURN(Entry * entry,
                   RegisterPuddle(created.first, created.second, /*writable=*/true, pool));
  std::lock_guard<std::mutex> lock(mu_);
  RETURN_IF_ERROR(MapEntryLocked(entry));
  return entry;
}

puddles::Result<Runtime::Entry*> Runtime::RegisterPuddle(const puddled::PuddleInfo& info,
                                                         int fd, bool writable,
                                                         const Pool* pool) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = entries_by_uuid_.find(info.uuid); it != entries_by_uuid_.end()) {
    ::close(fd);
    return it->second;
  }
  auto& space = pmem::GlobalPuddleSpace();
  puddles::Status claimed = space.ClaimRange(info.base_addr, info.file_size);
  if (!claimed.ok()) {
    ::close(fd);
    return AlreadyExistsError(
        "puddle address range conflicts with a mapped puddle — import a copy instead "
        "(puddle " +
        info.uuid.ToString() + ")");
  }
  auto entry = std::make_unique<Entry>();
  entry->info = info;
  entry->fd = fd;
  entry->writable = writable;
  entry->pool = pool;
  Entry* raw = entry.get();
  entries_by_base_[info.base_addr] = std::move(entry);
  entries_by_uuid_[info.uuid] = raw;
  ++stats_.puddles_registered;
  return raw;
}

puddles::Result<Runtime::Entry*> Runtime::FetchAndRegister(const Uuid& uuid, bool writable,
                                                           const Pool* pool) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = entries_by_uuid_.find(uuid); it != entries_by_uuid_.end()) {
      return it->second;
    }
  }
  ASSIGN_OR_RETURN(auto fetched, client_->GetPuddle(uuid, writable));
  return RegisterPuddle(fetched.first, fetched.second, writable, pool);
}

puddles::Status Runtime::MapEntryLocked(Entry* entry) {
  if (entry->mapped) {
    return OkStatus();
  }
  auto& space = pmem::GlobalPuddleSpace();
  RETURN_IF_ERROR(space.MapFileAt(entry->fd, entry->info.base_addr, entry->info.file_size,
                                  entry->writable));
  auto view = Puddle::Attach(reinterpret_cast<void*>(entry->info.base_addr),
                             entry->info.file_size);
  if (!view.ok()) {
    (void)space.UnmapToReserved(entry->info.base_addr, entry->info.file_size);
    return view.status();
  }
  entry->view = *view;
  entry->mapped = true;
  ++stats_.puddles_mapped;

  // Incremental relocation (§4.2): translate this puddle's pointers, with
  // its pool's pointer maps, before the application can see them. A puddle
  // that cannot be translated in full goes back to the reservation with its
  // flag and frontier kept, so a later open (with the missing pointer map
  // registered) resumes the rewrite.
  if (entry->view.needs_rewrite()) {
    puddles::Result<RewriteStats> rewrite =
        FailedPreconditionError("puddle needs pointer rewrite but is mapped read-only");
    if (entry->writable) {
      const Pool* pool = entry->pool;
      Translator identity;
      rewrite = RewritePuddle(entry->view, pool != nullptr ? pool->translator() : identity,
                              [pool](TypeId type_id) {
                                return pool != nullptr ? pool->LookupPtrMap(type_id)
                                                       : TypeRegistry::Instance().Lookup(type_id);
                              });
    }
    if (!rewrite.ok()) {
      (void)space.UnmapToReserved(entry->info.base_addr, entry->info.file_size);
      entry->view = Puddle();
      entry->mapped = false;
      return rewrite.status();
    }
    ++stats_.rewrites;
    stats_.pointers_rewritten += rewrite->pointers_rewritten;
    // Tell the daemon this puddle is clean (frees the frontier hold).
    (void)client_->CompleteRewrite(entry->info.uuid);
  }
  return OkStatus();
}

puddles::Result<Runtime::Entry*> Runtime::EnsureMapped(const Uuid& uuid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_by_uuid_.find(uuid);
  if (it == entries_by_uuid_.end()) {
    return NotFoundError("puddle not registered with this runtime");
  }
  RETURN_IF_ERROR(MapEntryLocked(it->second));
  return it->second;
}

Runtime::Entry* Runtime::FindEntryByAddr(uintptr_t addr) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_by_base_.upper_bound(addr);
  if (it == entries_by_base_.begin()) {
    return nullptr;
  }
  --it;
  Entry* entry = it->second.get();
  if (addr >= entry->info.base_addr + entry->info.file_size) {
    return nullptr;
  }
  return entry;
}

Runtime::Entry* Runtime::FindEntryByUuid(const Uuid& uuid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_by_uuid_.find(uuid);
  return it == entries_by_uuid_.end() ? nullptr : it->second;
}

std::vector<Runtime::Entry*> Runtime::Entries() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry*> entries;
  entries.reserve(entries_by_base_.size());
  for (auto& [base, entry] : entries_by_base_) {
    entries.push_back(entry.get());
  }
  return entries;
}

bool Runtime::HandleFault(uintptr_t addr) {
  Entry* entry = FindEntryByAddr(addr);
  if (entry != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->mapped) {
      return false;  // Mapped but still faulting: a real protection error.
    }
    return MapEntryLocked(entry).ok();
  }
  // Unknown address inside puddle space: possibly a cross-pool pointer into a
  // puddle we never fetched. Ask the daemon who owns it.
  auto info = client_->FindPuddleByAddr(addr);
  if (!info.ok()) {
    return false;
  }
  auto fetched = client_->GetPuddle(info->uuid, /*write=*/true);
  if (!fetched.ok()) {
    return false;
  }
  auto registered = RegisterPuddle(fetched->first, fetched->second, /*writable=*/true, nullptr);
  if (!registered.ok()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return MapEntryLocked(*registered).ok();
}

// ---------------------------------------------------------------------------
// Pools
// ---------------------------------------------------------------------------

puddles::Result<Pool*> Runtime::CreatePool(const std::string& name, uint32_t mode) {
  ASSIGN_OR_RETURN(puddled::PoolInfo info, client_->CreatePool(name, mode));
  return FinishOpenPool(info, /*writable=*/true);
}

puddles::Result<Pool*> Runtime::OpenPool(const std::string& name, bool writable) {
  ASSIGN_OR_RETURN(puddled::PoolInfo info, client_->OpenPool(name));
  return FinishOpenPool(info, writable);
}

puddles::Result<Pool*> Runtime::FinishOpenPool(const puddled::PoolInfo& info, bool writable) {
  std::unique_ptr<Pool> pool(new Pool(this, info, writable));
  // A failed open drops the entries it registered: the members' entries
  // point at this Pool, which dies with it, and a later open must register
  // them afresh.
  std::vector<Uuid> registered;
  puddles::Status attached = AttachPool(pool.get(), &registered);
  if (!attached.ok()) {
    DropEntries(registered);
    return attached;
  }

  Pool* raw = pool.get();
  std::lock_guard<std::mutex> lock(mu_);
  pools_.push_back(std::move(pool));
  return raw;
}

puddles::Status Runtime::AttachPool(Pool* pool, std::vector<Uuid>* registered) {
  const puddled::PoolInfo& info = pool->info();
  const bool writable = pool->writable();
  auto note_new = [&](const Uuid& uuid) {
    if (FindEntryByUuid(uuid) == nullptr) {
      registered->push_back(uuid);
    }
  };

  // Map the pool metadata's segment chain eagerly.
  ASSIGN_OR_RETURN(pool->meta_,
                   PoolMetaView::Attach(info.meta_puddle,
                                        [&](const Uuid& uuid) -> puddles::Result<Puddle> {
                                          note_new(uuid);
                                          RETURN_IF_ERROR(
                                              FetchAndRegister(uuid, writable, nullptr).status());
                                          ASSIGN_OR_RETURN(Entry * mapped, EnsureMapped(uuid));
                                          return mapped->view;
                                        }));

  // The pool's pointer maps, checked against this process's registry before
  // any member is mapped, since mapping rewrites: a registered map that
  // differs from the pool's record describes another layout of the type, and
  // a rewrite with either map could corrupt the copy.
  for (uint32_t i = 0; i < pool->meta_.num_ptr_maps(); ++i) {
    const PtrMapRecord& record = pool->meta_.ptr_map(i);
    if (!pool->maps_.Add(record).ok()) {
      return DataLossError("pool meta records two pointer maps for one type");
    }
    const PtrMapRecord* process_map = TypeRegistry::Instance().Lookup(record.type_id);
    if (process_map != nullptr && std::memcmp(process_map, &record, sizeof(record)) != 0) {
      return FailedPreconditionError(std::string("pool ") + info.name +
                                     ": a registered type's pointer map differs from the "
                                     "pool's record (its layout changed)");
    }
  }

  // Register all members (lazily mapped) once the pool's relocation
  // translation table, assembled from the pool meta's persistent old-base
  // array, is complete.
  const uint32_t members = pool->meta_.num_members();
  std::vector<std::pair<puddled::PuddleInfo, int>> pending;
  auto fetch_members = [&]() -> puddles::Status {
    for (uint32_t i = 0; i < members; ++i) {
      const Uuid member = pool->meta_.member(i);
      pool->data_members_.push_back(member);
      ASSIGN_OR_RETURN(auto fetched, client_->GetPuddle(member, writable));
      pending.push_back(fetched);
      const uint64_t old_base = pool->meta_.member_old_base(i);
      if (old_base != 0) {
        RETURN_IF_ERROR(
            pool->translator_.Add(old_base, fetched.first.file_size, fetched.first.base_addr));
      }
    }
    return OkStatus();
  };
  if (puddles::Status fetched = fetch_members(); !fetched.ok()) {
    for (const auto& [member_info, fd] : pending) {
      ::close(fd);
    }
    return fetched;
  }
  for (const auto& [member_info, fd] : pending) {
    note_new(member_info.uuid);
    RETURN_IF_ERROR(RegisterPuddle(member_info, fd, writable, pool).status());
  }

  // "Puddles support relocation on import by first mapping the root puddle."
  if (pool->meta_.has_root()) {
    RETURN_IF_ERROR(EnsureMapped(pool->meta_.root_puddle()).status());
  }

  // A pool left with active arenas (crash, or threads still running at the
  // last teardown) gets its arena GC now. Never while this process already
  // has the pool open: those arenas are live, not leaked. FailedPrecondition
  // is the conservative skip (a reachable type without a pointer map): the
  // entries stay active and the pool opens anyway.
  if (writable && pool->meta_.arenas_active() && FindOpenPool(info.pool_uuid) == nullptr) {
    auto gc = pool->RecoverArenas();
    if (!gc.ok()) {
      if (gc.status().code() != StatusCode::kFailedPrecondition) {
        return gc.status();
      }
      PUD_LOG_WARN("pool %s: arena GC skipped, leaked arena slots stay allocated: %s",
                   info.name, gc.status().ToString().c_str());
    }
  }
  return OkStatus();
}

void Runtime::DropEntries(const std::vector<Uuid>& uuids) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& space = pmem::GlobalPuddleSpace();
  for (const Uuid& uuid : uuids) {
    auto it = entries_by_uuid_.find(uuid);
    if (it == entries_by_uuid_.end()) {
      continue;
    }
    const Entry* entry = it->second;
    const uint64_t base = entry->info.base_addr;
    if (entry->mapped) {
      (void)space.UnmapToReserved(base, entry->info.file_size);
    }
    (void)space.FreeRange(base);
    if (entry->fd >= 0) {
      ::close(entry->fd);
    }
    entries_by_uuid_.erase(it);
    entries_by_base_.erase(base);
  }
}

Pool* Runtime::FindOpenPool(const Uuid& pool_uuid) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& pool : pools_) {
    if (pool->info().pool_uuid == pool_uuid) {
      return pool.get();
    }
  }
  return nullptr;
}

puddles::Status Runtime::ExportPool(const std::string& name, const std::string& dest_dir) {
  // The copy should not carry this process's arenas as active directory
  // entries, which would make every importer run the arena GC.
  std::vector<Pool*> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& pool : pools_) {
      if (pool->name() == name) {
        open.push_back(pool.get());
      }
    }
  }
  for (Pool* pool : open) {
    RETURN_IF_ERROR(pool->FlushAllArenas());
  }
  return client_->ExportPool(name, dest_dir);
}

puddles::Result<Pool*> Runtime::ImportPool(const std::string& src_dir,
                                           const std::string& new_name) {
  ASSIGN_OR_RETURN(puddled::ImportResult result, client_->ImportPool(src_dir, new_name));
  return OpenPool(result.pool.name);
}

// ---------------------------------------------------------------------------
// Per-thread transaction logs (§4.1)
// ---------------------------------------------------------------------------

puddles::Status Runtime::EnsureLogSpace() {
  if (log_space_entry_ != nullptr) {
    return OkStatus();
  }
  ASSIGN_OR_RETURN(Entry * entry, CreateMappedPuddle(PuddleKind::kLogSpace, 1 << 20));
  RETURN_IF_ERROR(LogSpaceView::Format(entry->view));
  ASSIGN_OR_RETURN(log_space_, LogSpaceView::Attach(entry->view));
  // Registration makes the daemon responsible for recovery from now on.
  RETURN_IF_ERROR(client_->RegisterLogSpace(entry->info.uuid));
  log_space_entry_ = entry;
  return OkStatus();
}

puddles::Result<Runtime::ThreadLog*> Runtime::ThreadLogForThisThread() {
  // "Every thread caches the log puddle used on the first transaction of
  // that thread and reuses it."
  if (ThreadLog* cached = FindThreadLogForThisThread(); cached != nullptr) {
    return cached;
  }

  {
    std::lock_guard<std::mutex> lock(thread_logs_mu_);
    RETURN_IF_ERROR(EnsureLogSpace());
  }

  ASSIGN_OR_RETURN(auto log, CreateLog());
  auto state = std::make_unique<ThreadLog>();
  state->entry = log.first;
  state->region = log.second;
  ThreadLog* raw = state.get();
  {
    std::lock_guard<std::mutex> lock(thread_logs_mu_);
    RETURN_IF_ERROR(log_space_.AddLog(state->entry->info.uuid));
    thread_logs_.push_back(std::move(state));
  }
  tls_logs[generation_] = raw;
  return raw;
}

puddles::Result<std::pair<Runtime::Entry*, LogRegion>> Runtime::CreateLog() {
  ASSIGN_OR_RETURN(Entry * entry, CreateMappedPuddle(PuddleKind::kLog, kDefaultLogHeapSize));
  RETURN_IF_ERROR(LogRegion::Format(entry->view.heap(), entry->view.heap_size()));
  ASSIGN_OR_RETURN(LogRegion region,
                   LogRegion::Attach(entry->view.heap(), entry->view.heap_size()));
  return std::make_pair(entry, region);
}

Runtime::ThreadLog* Runtime::FindThreadLogForThisThread() {
  auto it = tls_logs.find(generation_);
  return it == tls_logs.end() ? nullptr : static_cast<ThreadLog*>(it->second);
}

puddles::Result<TxTarget*> Runtime::ThreadTxTarget() {
  ASSIGN_OR_RETURN(ThreadLog * state, ThreadLogForThisThread());
  if (state->cached_target.log != nullptr) {
    return &state->cached_target;
  }
  TxTarget target;
  target.log = &state->region;
  target.grow = [this, state]() -> puddles::Result<std::pair<LogRegion*, Uuid>> {
    // Reuse a spare grown log if available; otherwise allocate a fresh log
    // puddle from the daemon (Fig. 5 chaining).
    for (auto& [entry, region] : state->spares) {
      if (region != nullptr) {
        LogRegion* raw = region.release();
        return std::make_pair(raw, entry->info.uuid);
      }
    }
    ASSIGN_OR_RETURN(auto log, CreateLog());
    auto [entry, region] = log;
    state->spares.emplace_back(entry, nullptr);
    return std::make_pair(new LogRegion(region), entry->info.uuid);
  };
  target.release = [state](LogRegion* region) {
    region->Reset(0, 2);
    for (auto& [entry, slot] : state->spares) {
      if (slot == nullptr && entry->view.heap() == region->base()) {
        slot.reset(region);
        return;
      }
    }
    delete region;
  };
  state->cached_target = std::move(target);
  return &state->cached_target;
}

// ---------------------------------------------------------------------------
// Epoch-based group commit (docs/epoch.md)
// ---------------------------------------------------------------------------

puddles::Status Runtime::EnsureEpochSys(const EpochOptions& options) {
  std::lock_guard<std::mutex> lock(thread_logs_mu_);
  if (epoch_sys_ != nullptr) {
    return OkStatus();  // Already running; the first caller's options win.
  }
  // The retirement record lives on the log space header.
  RETURN_IF_ERROR(EnsureLogSpace());
  auto sys = std::make_unique<EpochSys>(
      options, [this](uint64_t epoch) { log_space_.SetRetiredEpoch(epoch); });
  RETURN_IF_ERROR(sys->Start());
  epoch_sys_ = std::move(sys);
  return OkStatus();
}

puddles::Result<EpochPort*> Runtime::EpochPortForThisThread() {
  {
    std::lock_guard<std::mutex> lock(thread_logs_mu_);
    if (epoch_sys_ == nullptr) {
      return FailedPreconditionError(
          "epoch durability not enabled (call Pool::SetDurability first)");
    }
  }
  // Build the cached target first: the port's release hook reuses its spare
  // bookkeeping, and epoch-mode Begin needs the target anyway.
  ASSIGN_OR_RETURN(TxTarget * target, ThreadTxTarget());
  ThreadLog* state = FindThreadLogForThisThread();
  if (state->port == nullptr) {
    // Continuation regions of a retired epoch go back through the same
    // persistent Reset + spare-return path grown logs always use.
    state->port = epoch_sys_->CreatePort(target->release);
  }
  return state->port.get();
}

EpochPort* Runtime::ExistingEpochPortForThisThread() {
  ThreadLog* state = FindThreadLogForThisThread();
  return state == nullptr ? nullptr : state->port.get();
}

void Runtime::Sync() {
  EpochSys* sys;
  {
    std::lock_guard<std::mutex> lock(thread_logs_mu_);
    sys = epoch_sys_.get();
  }
  if (sys != nullptr) {
    sys->Sync();
  }
}

Runtime::Stats Runtime::stats() {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace puddles
