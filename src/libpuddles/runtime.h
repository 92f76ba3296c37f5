// Libpuddles runtime: the per-process client of Puddled (paper §3.2).
//
// Owns the puddle mapping table over the global address-space reservation,
// wires faults to on-demand mapping + incremental pointer rewriting, manages
// pools, and hands out per-thread transaction logs.
#ifndef SRC_LIBPUDDLES_RUNTIME_H_
#define SRC_LIBPUDDLES_RUNTIME_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/daemon/client.h"
#include "src/epoch/epoch_sys.h"
#include "src/libpuddles/relocation.h"
#include "src/libpuddles/type_registry.h"
#include "src/puddles/format.h"
#include "src/tx/epoch_port.h"
#include "src/tx/log_format.h"
#include "src/tx/log_space.h"
#include "src/tx/transaction.h"

namespace puddles {

class Pool;

inline constexpr size_t kDefaultLogHeapSize = 256 * 1024;

class Runtime {
 public:
  struct Stats {
    uint64_t puddles_registered = 0;
    uint64_t puddles_mapped = 0;
    uint64_t rewrites = 0;
    uint64_t pointers_rewritten = 0;
  };

  // One registered puddle: reserved address range + capability fd; mapping
  // and rewriting happen on first touch (or eagerly via EnsureMapped).
  struct Entry {
    puddled::PuddleInfo info;
    int fd = -1;
    bool writable = true;
    bool mapped = false;
    Puddle view;               // Valid when mapped.
    const Pool* pool = nullptr;  // Its translator and pointer maps rewrite it; may be null.
  };

  static puddles::Result<std::unique_ptr<Runtime>> Create(
      std::shared_ptr<puddled::DaemonClient> client);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  puddled::DaemonClient& client() { return *client_; }

  // ---- Pools ----
  puddles::Result<Pool*> CreatePool(const std::string& name, uint32_t mode = 0600);
  puddles::Result<Pool*> OpenPool(const std::string& name, bool writable = true);
  // Flushes the calling thread's (and exited threads') arenas of the pool
  // first, so the export carries no active arena directory entries.
  puddles::Status ExportPool(const std::string& name, const std::string& dest_dir);
  // Imports an exported pool directory under a new name and opens it.
  puddles::Result<Pool*> ImportPool(const std::string& src_dir, const std::string& new_name);

  // ---- Puddle mapping ----
  // Creates a puddle through the daemon, registers it for `pool` (whose
  // translator and pointer maps rewrite it; may be null) and maps it: the one
  // way this runtime makes a puddle of its own.
  puddles::Result<Entry*> CreateMappedPuddle(PuddleKind kind, size_t heap_size,
                                             const Uuid& pool_uuid = Uuid::Nil(),
                                             const Pool* pool = nullptr);
  puddles::Result<Entry*> EnsureMapped(const Uuid& uuid);
  Entry* FindEntryByAddr(uintptr_t addr);
  Entry* FindEntryByUuid(const Uuid& uuid);

  // All registered puddle entries (crashsim uses this to discover the PM
  // regions to trace). Pointers stay valid for the runtime's lifetime.
  std::vector<Entry*> Entries();

  // Fault resolver (runs on the fault helper thread).
  bool HandleFault(uintptr_t addr);

  // ---- Transactions ----
  // The thread's cached transaction log (§4.1), created and registered on
  // first use. The returned target is owned by the runtime and stable for
  // the thread's lifetime (the allocation-free fast path under pool.Run).
  puddles::Result<TxTarget*> ThreadTxTarget();

  // ---- Epoch-based group commit (docs/epoch.md) ----
  // Starts the process-wide epoch system (idempotent; the first call's
  // options win). Requires the log space, which it creates on demand.
  puddles::Status EnsureEpochSys(const EpochOptions& options);
  // This thread's port into the epoch system, created on first use.
  // Fails unless EnsureEpochSys ran.
  puddles::Result<EpochPort*> EpochPortForThisThread();
  // The port if this thread already created one, else nullptr (used by the
  // immediate-mode Begin path to quiesce leftover epoch state).
  EpochPort* ExistingEpochPortForThisThread();
  // Blocks until every epoch-mode transaction begun before this call is
  // persistently retired. No-op when the epoch system is not running.
  void Sync();
  EpochSys* epoch_sys() { return epoch_sys_.get(); }

  Stats stats();

 private:
  explicit Runtime(std::shared_ptr<puddled::DaemonClient> client)
      : client_(std::move(client)) {}

  // Monotonic, never recycled: thread-local log caches key on this so a new
  // Runtime at a recycled heap address can never alias stale thread state.
  uint64_t generation_ = 0;

  puddles::Result<Entry*> RegisterPuddle(const puddled::PuddleInfo& info, int fd, bool writable,
                                         const Pool* pool);
  puddles::Result<Entry*> FetchAndRegister(const Uuid& uuid, bool writable, const Pool* pool);
  puddles::Status MapEntryLocked(Entry* entry);
  puddles::Result<Pool*> FinishOpenPool(const puddled::PoolInfo& info, bool writable);
  // Maps the pool meta chain, loads and checks the pool's pointer maps,
  // registers the members and runs the open-time steps; `registered`
  // receives every entry this call created.
  puddles::Status AttachPool(Pool* pool, std::vector<Uuid>* registered);
  // Unmaps and forgets the entries named in `uuids` (a failed open's).
  void DropEntries(const std::vector<Uuid>& uuids);
  // This runtime's open Pool for `pool_uuid`, or nullptr.
  Pool* FindOpenPool(const Uuid& pool_uuid);
  puddles::Status EnsureLogSpace();

  // Per-thread transaction log state (one log puddle per thread, cached).
  struct ThreadLog {
    Entry* entry = nullptr;
    LogRegion region;
    std::vector<std::pair<Entry*, std::unique_ptr<LogRegion>>> spares;  // Grown logs.
    TxTarget cached_target;  // Built once; Pool::Run must stay allocation-free.
    std::unique_ptr<EpochPort> port;  // Epoch-mode port; created on first use.
  };
  puddles::Result<ThreadLog*> ThreadLogForThisThread();
  // A new log puddle, mapped, formatted and attached.
  puddles::Result<std::pair<Entry*, LogRegion>> CreateLog();
  ThreadLog* FindThreadLogForThisThread();

  std::shared_ptr<puddled::DaemonClient> client_;
  uint64_t resolver_id_ = 0;

  std::mutex mu_;
  std::map<uint64_t, std::unique_ptr<Entry>> entries_by_base_;
  std::map<Uuid, Entry*> entries_by_uuid_;
  std::vector<std::unique_ptr<Pool>> pools_;

  // Log space (one per runtime/process).
  Entry* log_space_entry_ = nullptr;
  LogSpaceView log_space_;

  std::mutex thread_logs_mu_;
  std::vector<std::unique_ptr<ThreadLog>> thread_logs_;

  // Epoch system (created by EnsureEpochSys; stopped before unmap in ~Runtime
  // — the advancer's final drain writes into mapped log/log-space puddles).
  std::unique_ptr<EpochSys> epoch_sys_;

  Stats stats_;
};

}  // namespace puddles

#endif  // SRC_LIBPUDDLES_RUNTIME_H_
