// Puddled — the privileged daemon that owns every puddle on the machine
// (paper §3.2, §4.3, §4.6).
//
// Responsibilities:
//   * Puddle lifecycle: each puddle is a file under the daemon root,
//     exclusively daemon-owned; approved requests are answered with file
//     descriptors (capabilities).
//   * The global puddle address space: assigns each puddle a unique,
//     non-overlapping base address.
//   * Access control: a UNIX-like owner/group/mode model checked against
//     caller credentials.
//   * Application-independent recovery (§4.1): at startup, before any client
//     can map data, registered log spaces are scanned and valid logs are
//     replayed — with targets confined to puddles the crashed owner could
//     write (§4.6).
//   * Relocation bookkeeping (§4.2): fresh base assignment on import
//     conflicts, persistent frontier state so interrupted relocations resume.
//   * Pool export/import (§4.2 "Relocation on import"): exports copy raw
//     puddle files plus a manifest (no serialization); imports register the
//     copies under fresh UUIDs and build the pool's translation table.
//
// This class is the daemon's entire brain. The socket server (server.h) is a
// thin marshalling layer over it; embedded-mode clients call it directly —
// same code paths, same guarantees.
#ifndef SRC_DAEMON_DAEMON_H_
#define SRC_DAEMON_DAEMON_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/range_allocator.h"
#include "src/common/status.h"
#include "src/common/uuid.h"
#include "src/daemon/types.h"
#include "src/pmem/mapped_file.h"
#include "src/pmhash/pmhash.h"

namespace puddled {

struct RecoveryReport {
  uint64_t log_spaces_scanned = 0;
  uint64_t logs_scanned = 0;
  uint64_t logs_replayed = 0;  // Logs with at least one valid entry.
  uint64_t entries_applied = 0;
  uint64_t logs_marked_invalid = 0;  // Poisoned logs (permission failures).
  uint64_t volatile_skipped = 0;
  uint64_t logs_gated_retired = 0;  // Epoch-tagged logs gated out of replay
                                    // by the retirement record (docs/epoch.md).
};

struct ImportResult {
  PoolInfo pool;
  uint32_t members_imported = 0;
  uint32_t members_relocated = 0;  // Members that needed a fresh base.
};

class Daemon {
 public:
  struct Options {
    std::string root_dir;
    bool run_recovery = true;
    // Pointer-map registry capacity (a power of two, split across the
    // daemon's 8 shards). Sized for type registries; bench_daemon_ycsb
    // raises it to hold its keyspace. Every slot is formatted when a root
    // is created, so a larger default slows each fresh daemon start.
    uint64_t ptrmap_table_slots = 1 << 10;
  };

  static puddles::Result<std::unique_ptr<Daemon>> Start(const Options& options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // ---- Puddle lifecycle ----

  // Creates a puddle and returns its info plus an open fd (caller owns it).
  puddles::Result<std::pair<PuddleInfo, int>> CreatePuddle(PuddleKind kind, size_t heap_size,
                                                           const Credentials& creds,
                                                           const Uuid& pool_uuid = Uuid::Nil(),
                                                           uint32_t mode = 0600);

  // Access-checked open; `write` requests a read-write capability.
  puddles::Result<std::pair<PuddleInfo, int>> GetPuddle(const Uuid& uuid,
                                                        const Credentials& creds, bool write);

  puddles::Result<PuddleInfo> StatPuddle(const Uuid& uuid, const Credentials& creds);

  // The puddle record whose assigned range contains `addr`.
  puddles::Result<PuddleInfo> FindPuddleByAddr(uint64_t addr, const Credentials& creds);

  puddles::Status DeletePuddle(const Uuid& uuid, const Credentials& creds);

  // ---- Pools ----

  puddles::Result<PoolInfo> CreatePool(const std::string& name, const Credentials& creds,
                                       uint32_t mode = 0600);
  puddles::Result<PoolInfo> OpenPool(const std::string& name, const Credentials& creds);

  // ---- Logging / recovery ----

  puddles::Status RegisterLogSpace(const Uuid& uuid, const Credentials& creds);
  puddles::Result<RecoveryReport> RunRecovery();

  // ---- Pointer maps (§4.2) ----

  puddles::Status RegisterPtrMap(const PtrMapRecord& record);
  puddles::Result<PtrMapRecord> GetPtrMap(uint64_t type_id);

  // ---- Relocation ----

  // Marks puddle `uuid` rewritten; when the whole pool is clean, frees the
  // frontier claims and clears the pool's translation table.
  puddles::Status CompleteRewrite(const Uuid& uuid, const Credentials& creds);

  // ---- Export / import ----

  puddles::Status ExportPool(const std::string& pool_name, const std::string& dest_dir,
                             const Credentials& creds);
  puddles::Result<ImportResult> ImportPool(const std::string& src_dir,
                                           const std::string& new_name,
                                           const Credentials& creds, uint32_t mode = 0600);

  // ---- Introspection ----

  const std::string& root_dir() const { return options_.root_dir; }
  uint64_t puddle_count();

  // On-disk backing file of a puddle. The daemon owns the naming scheme;
  // tools that touch puddle files directly (crashsim image materialization)
  // must ask rather than re-derive it.
  std::string PuddlePath(const Uuid& uuid) const;

  // UNIX-like permission check (public: shared with the recovery resolver and
  // exercised directly by tests).
  static puddles::Status CheckAccess(uint32_t owner_uid, uint32_t owner_gid, uint32_t mode,
                                     const Credentials& creds, bool write);

 private:
  using PuddleTable = puddles::PersistentHashMap<Uuid, PuddleRecord, puddles::UuidHash>;
  using PoolTable = puddles::PersistentHashMap<uint64_t, PoolRecord>;
  using PtrMapTable = puddles::PersistentHashMap<uint64_t, PtrMapRecord>;
  using LogSpaceTable = puddles::PersistentHashMap<Uuid, LogSpaceRecord, puddles::UuidHash>;

  // One lock-and-table shard of the hot per-key registries. Each shard's
  // tables live in their own files (puddles.<i>.tbl / ptrmaps.<i>.tbl) so two
  // shards never serialize on one PersistentHashMap journal.
  struct Shard {
    std::mutex mu;
    pmem::PmemFile puddle_file;
    pmem::PmemFile ptrmap_file;
    std::unique_ptr<PuddleTable> puddles;
    std::unique_ptr<PtrMapTable> ptrmaps;
  };

  explicit Daemon(Options options) : options_(std::move(options)) {}

  puddles::Status Initialize();
  puddles::Status OpenTables();
  puddles::Status RebuildAddressMap();

  // Shard routing: stable functions of the key bits (the shard choice is part
  // of the persistent layout, so nothing here may depend on process state).
  Shard& ShardFor(const Uuid& uuid);
  Shard& ShardForType(uint64_t type_id);

  // Single-key record access. The *Unlocked variants take no shard lock: the
  // caller must either hold the owning shard's mutex or hold structure_mu_
  // exclusively (recovery/import/export).
  puddles::Result<PuddleRecord> LookupPuddle(const Uuid& uuid);
  puddles::Result<PuddleRecord> LookupPuddleUnlocked(const Uuid& uuid);
  puddles::Status UpdatePuddleRecordUnlocked(const PuddleRecord& record);

  // Whole-registry iteration; takes each shard lock in turn unless the caller
  // holds structure_mu_ exclusively (exclusive = true).
  void ForEachPuddle(bool exclusive,
                     const std::function<void(const Uuid&, const PuddleRecord&)>& fn);

  // Best-effort teardown of a puddle created earlier in a failed multi-step
  // operation (erases the record, frees the range, unlinks the file).
  void RollbackPuddle(const Uuid& uuid);

  // Recovery helpers (structure_mu_ held exclusively).
  puddles::Result<RecoveryReport> RunRecoveryLocked();

  Options options_;

  // Lock order (see docs/daemon.md): structure_mu_ first, then at most one of
  // {shard.mu, pools_mu_, logspaces_mu_, addr_mu_} at a time — the fine
  // grained locks are never nested inside each other. Per-key ops take
  // structure_mu_ shared; ImportPool/ExportPool/RunRecovery take it exclusive
  // and then touch everything lock-free.
  std::shared_mutex structure_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Cold-path registries (pool directory, log-space registrations).
  std::mutex pools_mu_;
  std::mutex logspaces_mu_;
  pmem::PmemFile pool_table_file_;
  pmem::PmemFile logspace_table_file_;
  std::unique_ptr<PoolTable> pools_;
  std::unique_ptr<LogSpaceTable> logspaces_;

  // Volatile assignment state, rebuilt from records at startup.
  std::mutex addr_mu_;
  puddles::RangeAllocator addr_alloc_;
  // base_addr -> uuid, for address → puddle resolution.
  std::unordered_map<uint64_t, Uuid> by_base_;
};

}  // namespace puddled

#endif  // SRC_DAEMON_DAEMON_H_
