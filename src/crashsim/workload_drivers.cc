#include "src/crashsim/workload_drivers.h"

#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "src/common/align.h"
#include "src/common/rng.h"
#include "src/libpuddles/libpuddles.h"
#include "src/pmem/global_space.h"
#include "src/pmem/mapped_file.h"
#include "src/pmhash/pmhash.h"
#include "src/stats/stats.h"
#include "src/workloads/adapters.h"
#include "src/workloads/art.h"
#include "src/workloads/btree.h"
#include "src/workloads/kvstore.h"
#include "src/workloads/list.h"

namespace crashsim {
namespace {

bool OkOrNotFound(const puddles::Status& status) {
  return status.ok() || status.code() == puddles::StatusCode::kNotFound;
}

// ---- Base for workloads running on the full Puddles stack ----
//
// Owns the daemon/runtime/pool lifecycle; subclasses own one data structure.
// The traced regions are every puddle the runtime has registered (data, pool
// meta, log space, thread log), so all persist traffic during ops lands in
// the trace.
class PoolCrashDriver : public WorkloadDriver {
 public:
  PoolCrashDriver(std::string name, const DriverOptions& options)
      : name_(std::move(name)), options_(options) {}

  std::string name() const override { return name_; }
  int num_ops() const override { return options_.ops; }

  puddles::Result<std::vector<TracedRegion>> Setup(const std::string& root) override {
    ASSIGN_OR_RETURN(auto daemon, puddled::Daemon::Start({.root_dir = root}));
    daemon_ = std::move(daemon);
    auto runtime = puddles::Runtime::Create(
        std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
    if (!runtime.ok()) {
      Teardown();
      return runtime.status();
    }
    runtime_ = std::move(*runtime);
    auto pool = runtime_->CreatePool("crashsim");
    if (!pool.ok()) {
      Teardown();
      return pool.status();
    }
    pool_ = *pool;
    rng_ = puddles::Xoshiro256(options_.seed);
    puddles::Status init = InitStructure();
    if (!init.ok()) {
      Teardown();
      return init;
    }
    // Map every registered puddle now so all op-phase persists hit traced
    // regions (mapping is otherwise lazy, on first fault).
    std::vector<TracedRegion> regions;
    for (puddles::Runtime::Entry* entry : runtime_->Entries()) {
      auto mapped = runtime_->EnsureMapped(entry->info.uuid);
      if (!mapped.ok()) {
        Teardown();
        return mapped.status();
      }
    }
    for (puddles::Runtime::Entry* entry : runtime_->Entries()) {
      if (!entry->writable) {
        continue;
      }
      TracedRegion region;
      region.base = entry->info.base_addr;
      region.size = entry->info.file_size;
      region.file_path = daemon_->PuddlePath(entry->info.uuid);
      region.label = name_ + "/" + entry->info.uuid.ToString().substr(0, 8);
      regions.push_back(std::move(region));
    }
    traced_puddles_ = runtime_->Entries().size();
    return regions;
  }

  puddles::Status RunOp(int i) override {
    RETURN_IF_ERROR(DoOp(i));
    // A new puddle mid-run (pool/log growth) would persist outside the traced
    // regions and silently invalidate the enumerated images — fail loudly.
    if (runtime_->Entries().size() != traced_puddles_) {
      return puddles::FailedPreconditionError(
          "crashsim: new puddles appeared during the traced run; increase heap/log sizes");
    }
    return puddles::OkStatus();
  }

  puddles::Result<std::string> Fingerprint() override { return ComputeFingerprint(); }

  void Teardown() override {
    ReleaseStructure();
    pool_ = nullptr;
    runtime_.reset();
    daemon_.reset();
  }

  puddles::Result<std::string> RecoverAndFingerprint(const std::string& root) override {
    Teardown();
    // Reboot: run the application-independent recovery explicitly (instead of
    // Daemon::Start's implicit pass) so the replay stats are reportable.
    ASSIGN_OR_RETURN(auto daemon,
                     puddled::Daemon::Start({.root_dir = root, .run_recovery = false}));
    daemon_ = std::move(daemon);
    auto recovery = daemon_->RunRecovery();
    if (!recovery.ok()) {
      last_recovery_info_ = "recovery errored";
      Teardown();
      return recovery.status();
    }
    std::ostringstream info;
    info << "logs_scanned=" << recovery->logs_scanned << " logs_replayed="
         << recovery->logs_replayed << " entries_applied=" << recovery->entries_applied
         << " marked_invalid=" << recovery->logs_marked_invalid;
    last_recovery_info_ = info.str();
    auto finish = [&]() -> puddles::Result<std::string> {
      auto runtime = puddles::Runtime::Create(
          std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
      if (!runtime.ok()) {
        return runtime.status();
      }
      runtime_ = std::move(*runtime);
      ASSIGN_OR_RETURN(pool_, runtime_->OpenPool("crashsim"));
      RETURN_IF_ERROR(AttachStructure());
      ASSIGN_OR_RETURN(std::string fingerprint, ComputeFingerprint());
      puddles::Status probe = ProbeOp();
      if (!probe.ok()) {
        return puddles::InternalError("post-recovery probe failed: " + probe.ToString());
      }
      return fingerprint;
    };
    puddles::Result<std::string> result = finish();
    Teardown();
    return result;
  }

  std::string LastRecoveryInfo() const override { return last_recovery_info_; }

 protected:
  // Creates + preloads the structure (must run at least one transaction so
  // the thread log puddle exists before tracing starts).
  virtual puddles::Status InitStructure() = 0;
  // Re-attaches to an existing structure after reopen.
  virtual puddles::Status AttachStructure() = 0;
  virtual void ReleaseStructure() = 0;
  virtual puddles::Status DoOp(int i) = 0;
  virtual puddles::Result<std::string> ComputeFingerprint() = 0;
  // One mutate-and-undo transaction over the recovered structure.
  virtual puddles::Status ProbeOp() = 0;

  std::string name_;
  DriverOptions options_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<puddles::Runtime> runtime_;
  puddles::Pool* pool_ = nullptr;
  puddles::Xoshiro256 rng_{0};
  size_t traced_puddles_ = 0;
  std::string last_recovery_info_;
};

// ---- Linked list (workloads/list.h) ----
class ListCrashDriver : public PoolCrashDriver {
 public:
  using PoolCrashDriver::PoolCrashDriver;

 protected:
  using List = workloads::PersistentList<workloads::PuddlesAdapter>;

  puddles::Status InitStructure() override {
    List::RegisterTypes();
    list_.emplace(workloads::PuddlesAdapter(pool_));
    RETURN_IF_ERROR(list_->Init());
    for (int i = 0; i < options_.preload; ++i) {
      RETURN_IF_ERROR(list_->InsertTail(1'000'000 + static_cast<uint64_t>(i)));
    }
    return puddles::OkStatus();
  }

  puddles::Status AttachStructure() override {
    list_.emplace(workloads::PuddlesAdapter(pool_));
    return list_->Init();
  }

  void ReleaseStructure() override { list_.reset(); }

  puddles::Status DoOp(int i) override {
    if (list_->count() == 0 || rng_.NextDouble() < 0.7) {
      return list_->InsertTail(2'000'000 + static_cast<uint64_t>(i));
    }
    return list_->DeleteHead();
  }

  puddles::Result<std::string> ComputeFingerprint() override {
    std::ostringstream out;
    out << "n=" << list_->count();
    list_->ForEachValue([&](uint64_t value) { out << ";" << value; });
    return out.str();
  }

  puddles::Status ProbeOp() override {
    RETURN_IF_ERROR(list_->InsertTail(999'999'999));
    // The probe must leave the fingerprint unchanged only for its own check;
    // state is discarded after this call, so a tail insert suffices.
    return puddles::OkStatus();
  }

 private:
  std::optional<List> list_;
};

// ---- B+-tree (workloads/btree.h) ----
class BtreeCrashDriver : public PoolCrashDriver {
 public:
  using PoolCrashDriver::PoolCrashDriver;

 protected:
  using Tree = workloads::PersistentBTree<workloads::PuddlesAdapter>;
  static constexpr uint64_t kKeyUniverse = 48;

  puddles::Status InitStructure() override {
    Tree::RegisterTypes();
    tree_.emplace(workloads::PuddlesAdapter(pool_));
    RETURN_IF_ERROR(tree_->Init());
    // Preload with spread keys so the tree already has internal nodes and
    // op-phase inserts exercise splits.
    for (int i = 0; i < options_.preload; ++i) {
      const uint64_t key = 1 + (static_cast<uint64_t>(i) * 7) % kKeyUniverse;
      RETURN_IF_ERROR(tree_->Insert(key, 1'000'000 + static_cast<uint64_t>(i)));
    }
    return puddles::OkStatus();
  }

  puddles::Status AttachStructure() override {
    tree_.emplace(workloads::PuddlesAdapter(pool_));
    return tree_->Init();
  }

  void ReleaseStructure() override { tree_.reset(); }

  puddles::Status DoOp(int i) override {
    const uint64_t key = 1 + rng_.Below(kKeyUniverse);
    if (rng_.NextDouble() < 0.7) {
      return tree_->Insert(key, 2'000'000 + static_cast<uint64_t>(i));
    }
    puddles::Status status = tree_->Delete(key);
    return OkOrNotFound(status) ? puddles::OkStatus() : status;
  }

  puddles::Result<std::string> ComputeFingerprint() override {
    std::ostringstream out;
    out << "n=" << tree_->size();
    for (uint64_t key = 1; key <= kKeyUniverse; ++key) {
      uint64_t value = 0;
      if (tree_->Search(key, &value)) {
        out << ";" << key << "=" << value;
      }
    }
    return out.str();
  }

  puddles::Status ProbeOp() override {
    RETURN_IF_ERROR(tree_->Insert(kKeyUniverse + 1, 999'999'999));
    return tree_->Delete(kKeyUniverse + 1);
  }

 private:
  std::optional<Tree> tree_;
};

// ---- Adaptive radix tree (workloads/art.h) ----
//
// Key mix: a dense last-byte run (fans one inner node through every variant
// up to Node256 as inserts accumulate) plus sparse high-byte stems (force
// prefix splits, multi-level structure, and collapse-on-erase). Preload stops
// just short of the Node48 -> Node256 boundary so traced ops cross it, and
// the erase share drives demotions — every structural mutation lands inside
// the traced window. The fingerprint is the ordered scan, so recovery is
// checked through the range-scan path, not just point lookups.
class ArtCrashDriver : public PoolCrashDriver {
 public:
  using PoolCrashDriver::PoolCrashDriver;

 protected:
  using Art = workloads::ArtIndex<workloads::PuddlesAdapter>;
  static constexpr uint64_t kDenseUniverse = 96;
  static constexpr uint64_t kSparseStems = 4;
  static constexpr uint64_t kSparseUniverse = 8;

  uint64_t DenseKey(uint64_t i) const { return i % kDenseUniverse; }
  // Stem from the high digits, offset from the low ones, so the full
  // kSparseStems x kSparseUniverse cross product is reachable.
  uint64_t SparseKey(uint64_t i) const {
    return 0x0101000000000000ULL * (1 + (i / kSparseUniverse) % kSparseStems) +
           i % kSparseUniverse;
  }

  puddles::Status InitStructure() override {
    Art::RegisterTypes();
    art_.emplace(workloads::PuddlesAdapter(pool_));
    RETURN_IF_ERROR(art_->Init());
    for (int i = 0; i < options_.preload; ++i) {
      RETURN_IF_ERROR(
          art_->Insert(DenseKey(static_cast<uint64_t>(i)), 1'000'000 + static_cast<uint64_t>(i)));
    }
    return puddles::OkStatus();
  }

  puddles::Status AttachStructure() override {
    art_.emplace(workloads::PuddlesAdapter(pool_));
    return art_->Init();
  }

  void ReleaseStructure() override { art_.reset(); }

  puddles::Status DoOp(int i) override {
    const double dice = rng_.NextDouble();
    if (dice < 0.55 || art_->size() == 0) {
      return art_->Insert(DenseKey(rng_.Below(kDenseUniverse)),
                          2'000'000 + static_cast<uint64_t>(i));
    }
    if (dice < 0.70) {
      return art_->Insert(SparseKey(rng_.Below(kSparseStems * kSparseUniverse)),
                          3'000'000 + static_cast<uint64_t>(i));
    }
    const uint64_t victim = rng_.NextDouble() < 0.75
                                ? DenseKey(rng_.Below(kDenseUniverse))
                                : SparseKey(rng_.Below(kSparseStems * kSparseUniverse));
    puddles::Status status = art_->Erase(victim);
    return OkOrNotFound(status) ? puddles::OkStatus() : status;
  }

  puddles::Result<std::string> ComputeFingerprint() override {
    std::ostringstream out;
    out << "n=" << art_->size();
    std::vector<std::pair<uint64_t, uint64_t>> scanned;
    art_->Scan(0, static_cast<int>(art_->size()) + 16, &scanned);
    if (scanned.size() != art_->size()) {
      return puddles::DataLossError("art scan disagrees with size counter");
    }
    uint64_t previous = 0;
    bool first = true;
    for (const auto& [key, value] : scanned) {
      if (!first && key <= previous) {
        return puddles::DataLossError("art scan out of order");
      }
      first = false;
      previous = key;
      out << ";" << key << "=" << value;
    }
    return out.str();
  }

  puddles::Status ProbeOp() override {
    RETURN_IF_ERROR(art_->Insert(~uint64_t{0} - 1, 999'999'999));
    RETURN_IF_ERROR(art_->Erase(~uint64_t{0} - 1));
    // Large-object probe: Node48/Node256 come straight from the buddy
    // allocator (the insert/erase above stays on the slab path), so this
    // allocation walks the recovered buddy free list. Latent free-list damage
    // — e.g. rollback re-linking a block whose node bytes were overwritten —
    // surfaces here as an allocation error instead of going unnoticed.
    return pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(auto* node, tx.Alloc<typename Art::Node48>());
      (void)node;  // Unreferenced; the probed state is discarded afterwards.
      return puddles::OkStatus();
    });
  }

 private:
  std::optional<Art> art_;
};

// ---- KV store (workloads/kvstore.h) ----
class KvstoreCrashDriver : public PoolCrashDriver {
 public:
  using PoolCrashDriver::PoolCrashDriver;

 protected:
  using Store = workloads::KvStore<workloads::PuddlesAdapter>;
  static constexpr uint64_t kKeyUniverse = 24;
  static constexpr uint64_t kBuckets = 64;

  static std::string KeyAt(uint64_t k) { return "key" + std::to_string(k); }

  static void FillValue(char (&value)[workloads::kKvValueSize], uint64_t tag) {
    std::memset(value, 0, sizeof(value));
    std::snprintf(value, sizeof(value), "v%llu", static_cast<unsigned long long>(tag));
  }

  puddles::Status InitStructure() override {
    Store::RegisterTypes();
    store_.emplace(workloads::PuddlesAdapter(pool_));
    RETURN_IF_ERROR(store_->Init(kBuckets));
    char value[workloads::kKvValueSize];
    for (int i = 0; i < options_.preload; ++i) {
      FillValue(value, 1'000'000 + static_cast<uint64_t>(i));
      RETURN_IF_ERROR(store_->Put(KeyAt(static_cast<uint64_t>(i) % kKeyUniverse), value));
    }
    return puddles::OkStatus();
  }

  puddles::Status AttachStructure() override {
    store_.emplace(workloads::PuddlesAdapter(pool_));
    return store_->Init(kBuckets);
  }

  void ReleaseStructure() override { store_.reset(); }

  puddles::Status DoOp(int i) override {
    const std::string key = KeyAt(rng_.Below(kKeyUniverse));
    if (rng_.NextDouble() < 0.7) {
      char value[workloads::kKvValueSize];
      FillValue(value, 2'000'000 + static_cast<uint64_t>(i));
      return store_->Put(key, value);
    }
    puddles::Status status = store_->Delete(key);
    return OkOrNotFound(status) ? puddles::OkStatus() : status;
  }

  puddles::Result<std::string> ComputeFingerprint() override {
    std::ostringstream out;
    out << "n=" << store_->size();
    char value[workloads::kKvValueSize];
    for (uint64_t k = 0; k < kKeyUniverse; ++k) {
      if (store_->Get(KeyAt(k), value)) {
        value[workloads::kKvValueSize - 1] = '\0';
        out << ";" << KeyAt(k) << "=" << value;
      }
    }
    return out.str();
  }

  puddles::Status ProbeOp() override {
    char value[workloads::kKvValueSize];
    FillValue(value, 999'999'999);
    RETURN_IF_ERROR(store_->Put("probe", value));
    return store_->Delete("probe");
  }

 private:
  std::optional<Store> store_;
};

// ---- Three-worker rounds ("mt" and "epoch") ----
//
// kThreads persistent worker threads, each owning a disjoint slice of a
// pointer-free shard plus a per-thread committed-round counter, mutate
// concurrently through their own thread logs. Each RunOp is one *round*:
// every worker stamps its slice in chunk-atomic transactions (each chunk is
// one tx), runs one deliberately aborted transaction (tracing in-process
// rollback persists), then commits its round counter; the round ends with
// Pool::Sync(). Workers are spawned in InitStructure and live across all
// rounds — their thread-log puddles must exist before tracing starts, and a
// fresh thread per round would create fresh log puddles mid-trace (tripping
// the no-new-puddles guard).
//
// "mt" runs under Durability::kImmediate, where Sync is a no-op. Because
// three threads commit independently, a crash can legally land between any
// per-thread progress points — no single global op boundary exists. The
// fingerprint therefore *normalizes*: it validates the per-thread invariants
// (slice = a chunk-aligned prefix of stamp s+1 over a suffix of stamp s;
// committed counter consistent with the slice) and returns a constant on
// success, so the membership oracle accepts exactly the states transaction
// recovery can legally produce and rejects everything else.
//
// "epoch" gates the all-or-nothing recovery contract of Durability::kEpoch
// (docs/epoch.md): every transaction of a round is buffered into the open
// epoch. The epoch thresholds are set so high that Sync is the ONLY thing
// that closes an epoch, which pins epoch boundaries to op boundaries: the
// fingerprint then demands that every crash state recovers to a whole round,
// across all three threads. A recovered prefix of an epoch — some threads'
// transactions surviving, others rolled back, or a thread's chunks split —
// is exactly what the retirement gate must make impossible, and shows up
// here as a DataLossError fingerprint.
class RoundCrashDriver : public PoolCrashDriver {
 public:
  RoundCrashDriver(std::string name, const DriverOptions& options,
                   puddles::Durability durability)
      : PoolCrashDriver(std::move(name), options), durability_(durability) {}

  ~RoundCrashDriver() override { StopWorkers(); }

 protected:
  static constexpr int kThreads = 3;
  static constexpr int kCellsPerThread = 8;
  static constexpr int kChunk = 4;  // Cells per chunk transaction.

  struct RoundShard {
    uint64_t cells[kThreads * kCellsPerThread];
    uint64_t committed[kThreads];
    uint64_t probe_pad;  // Touched by the post-recovery probe; not fingerprinted.
  };

  puddles::Status InitStructure() override {
    RETURN_IF_ERROR(puddles::TypeRegistry::Instance().Register<RoundShard>());
    RETURN_IF_ERROR(pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(RoundShard * shard, tx.Alloc<RoundShard>());
      std::memset(shard, 0, sizeof(RoundShard));
      shard_ = shard;
      return pool_->SetRoot(shard);
    }));
    if (durability_ == puddles::Durability::kEpoch) {
      // Thresholds high enough that neither the timer nor the byte/tx counts
      // ever close an epoch mid-round — only the Sync at the end of each op.
      puddles::EpochOptions options;
      options.max_epoch_age_us = 10'000'000;
      options.max_staged_bytes = 1ULL << 30;
      options.max_epoch_txs = 1ULL << 30;
      RETURN_IF_ERROR(pool_->SetDurability(puddles::Durability::kEpoch, options));
    }
    StartWorkers();
    // Warm-up round: every worker's thread-log puddle (and, under kEpoch, its
    // epoch port) exists before the traced window opens, and tracing starts
    // exactly at an epoch boundary.
    return RunRound(1);
  }

  puddles::Status AttachStructure() override {
    ASSIGN_OR_RETURN(shard_, pool_->Root<RoundShard>());
    return puddles::OkStatus();  // Recovery-side: no workers, immediate mode.
  }

  void ReleaseStructure() override {
    StopWorkers();
    shard_ = nullptr;
  }

  puddles::Status DoOp(int i) override { return RunRound(2 + static_cast<uint64_t>(i)); }

  puddles::Result<std::string> ComputeFingerprint() override {
    return durability_ == puddles::Durability::kEpoch ? WholeRoundFingerprint()
                                                      : PerThreadFingerprint();
  }

  puddles::Status ProbeOp() override {
    return pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(tx.LogRange(&shard_->probe_pad, sizeof(shard_->probe_pad)));
      shard_->probe_pad = 999'999'999;
      return puddles::OkStatus();
    });
  }

 private:
  puddles::Result<std::string> PerThreadFingerprint() {
    for (int t = 0; t < kThreads; ++t) {
      const uint64_t* slice = shard_->cells + t * kCellsPerThread;
      const uint64_t v_hi = slice[0];
      int split = kCellsPerThread;
      for (int c = 1; c < kCellsPerThread; ++c) {
        if (slice[c] != v_hi) {
          split = c;
          break;
        }
      }
      const uint64_t v_lo = split == kCellsPerThread ? v_hi : slice[split];
      if (split != kCellsPerThread && v_lo + 1 != v_hi) {
        return puddles::DataLossError("mt slice mixes non-adjacent round stamps");
      }
      if (split % kChunk != 0) {
        return puddles::DataLossError("mt slice split not chunk-aligned (torn chunk tx)");
      }
      for (int c = split; c < kCellsPerThread; ++c) {
        if (slice[c] != v_lo) {
          return puddles::DataLossError("mt slice is not a monotone stamp prefix");
        }
      }
      const uint64_t committed = shard_->committed[t];
      // The counter commits only after the whole slice is stamped: a mixed
      // slice pins it at v_lo; a uniform slice allows v_hi or v_hi - 1 (0 only
      // in the pre-stamp initial state).
      const bool mixed = split != kCellsPerThread;
      if (mixed ? committed != v_lo
                : (committed != v_hi && committed + 1 != v_hi)) {
        return puddles::DataLossError("mt committed-round counter disagrees with slice");
      }
    }
    return std::string("mt:consistent");
  }

  puddles::Result<std::string> WholeRoundFingerprint() {
    // All-or-nothing across the whole epoch: every cell of every thread and
    // every committed counter must carry the same round stamp. Any mixture —
    // per-thread, per-chunk, or cells-vs-counter — is an epoch prefix that
    // recovery must never produce.
    const uint64_t v = shard_->cells[0];
    auto dump = [&] {
      std::ostringstream d;
      d << " cells=";
      for (int c = 0; c < kThreads * kCellsPerThread; ++c) {
        d << shard_->cells[c] << (c % kCellsPerThread == kCellsPerThread - 1 ? "|" : ",");
      }
      d << " committed=" << shard_->committed[0] << "," << shard_->committed[1] << ","
        << shard_->committed[2];
      return d.str();
    };
    for (int c = 0; c < kThreads * kCellsPerThread; ++c) {
      if (shard_->cells[c] != v) {
        return puddles::DataLossError("epoch: cells mix round stamps (partial epoch)" + dump());
      }
    }
    for (int t = 0; t < kThreads; ++t) {
      if (shard_->committed[t] != v) {
        return puddles::DataLossError("epoch: committed counter disagrees with cells" + dump());
      }
    }
    std::ostringstream out;
    out << "epoch:round=" << v;
    return out.str();
  }

  void StartWorkers() {
    exit_ = false;
    round_gen_ = 0;
    for (int t = 0; t < kThreads; ++t) {
      worker_status_[t] = puddles::OkStatus();
      workers_.emplace_back([this, t] { WorkerMain(t); });
    }
  }

  void StopWorkers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      exit_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) {
        worker.join();
      }
    }
    workers_.clear();
  }

  puddles::Status RunRound(uint64_t stamp) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      round_stamp_ = stamp;
      done_count_ = 0;
      ++round_gen_;
    }
    cv_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return done_count_ == kThreads; });
      for (int t = 0; t < kThreads; ++t) {
        RETURN_IF_ERROR(worker_status_[t]);
      }
    }
    pool_->Sync();  // kEpoch: close + persistently retire the round's epoch.
    return puddles::OkStatus();
  }

  void WorkerMain(int t) {
    uint64_t seen_gen = 0;
    while (true) {
      uint64_t stamp;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return exit_ || round_gen_ > seen_gen; });
        if (exit_) {
          return;
        }
        seen_gen = round_gen_;
        stamp = round_stamp_;
      }
      puddles::Status status = WorkerRound(t, stamp);
      {
        std::lock_guard<std::mutex> lock(mu_);
        worker_status_[t] = std::move(status);
        ++done_count_;
      }
      cv_.notify_all();
    }
  }

  puddles::Status WorkerRound(int t, uint64_t stamp) {
    uint64_t* slice = shard_->cells + t * kCellsPerThread;
    for (int chunk = 0; chunk < kCellsPerThread; chunk += kChunk) {
      RETURN_IF_ERROR(pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
        RETURN_IF_ERROR(tx.LogRange(slice + chunk, kChunk * sizeof(uint64_t)));
        for (int c = 0; c < kChunk; ++c) {
          slice[chunk + c] = stamp;
        }
        return puddles::OkStatus();
      }));
    }
    // Deterministic abort: exercises undo append + in-process rollback
    // persists inside the traced window; must leave no durable change. Under
    // kEpoch its published undo entries stay in the log until the epoch
    // retires, so replay of an unretired epoch walks over them too —
    // rollback must stay idempotent.
    puddles::Status aborted = pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(tx.LogRange(slice, sizeof(uint64_t)));
      slice[0] = stamp + 1'000'000;
      return puddles::AbortedError(name_ + ": deliberate abort");
    });
    if (aborted.code() != puddles::StatusCode::kAborted) {
      return aborted.ok() ? puddles::InternalError(name_ + ": abort tx committed") : aborted;
    }
    return pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(
          tx.LogRange(&shard_->committed[t], sizeof(shard_->committed[t])));
      shard_->committed[t] = stamp;
      return puddles::OkStatus();
    });
  }

  const puddles::Durability durability_;
  RoundShard* shard_ = nullptr;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool exit_ = false;
  uint64_t round_gen_ = 0;
  uint64_t round_stamp_ = 0;
  int done_count_ = 0;
  puddles::Status worker_status_[kThreads];
};

// ---- Per-thread arena allocator with GC recovery ("allocgc") ----
//
// Drives the arena allocator through its crash-exposed windows, in a cycle
// of six ops: churn, churn, a free burst, churn, churn, flush-back.
//   * Churn is one transaction: batched slab refills (directory claim +
//     chain-head moves) and the free churn on the lock-free local list.
//   * The free burst allocates and frees kBurstChips 32-byte objects in one
//     transaction, leaving eight whole-empty slabs and the free count past
//     the 512-slot watermark, so the next churn op spills four slabs inside
//     its traced transaction: chain unlinks staged in its undo log, buddy
//     releases at its commit head. Each such spill is a focus window, from
//     the staged unlinks to the commit.
//   * FlushThreadArena hands every slab to the shared heap, so the next op
//     re-claims the directory and refills.
//
// Recovery is plain OpenPool: the pool's arena flag is set whenever a crash
// can leave a directory entry active, so the reopen runs the arena GC before
// the fingerprint is taken. The fingerprint is the reachable signature, so
// the membership oracle proves GC never reclaimed a live object (it would
// drop out of the reachable set) and no committed publication was lost; an
// explicit second GC pass must then find no active entry (the open-time GC
// ran, completely).
class AllocGcCrashDriver : public PoolCrashDriver {
 public:
  using PoolCrashDriver::PoolCrashDriver;

  std::vector<FocusWindow> FocusWindows() const override { return spills_; }

 protected:
  static constexpr int kSlots = 12;
  // Past four slabs of 126 slots: two refills, eight slabs.
  static constexpr int kBurstChips = 640;

  // 256 bytes + 16-byte header = the 272-byte slab class (14 slots per
  // slab): small slabs make refills frequent inside a short traced run.
  struct GcObj {
    uint64_t value;
    uint64_t pad[31];
  };
  // 16 bytes + header: the 32-byte class, the most slots per slab.
  struct GcChip {
    uint64_t value;
    uint64_t pad;
  };
  // The pointer array registers as one repeat region — the roots the GC
  // walks.
  struct GcRoot {
    GcObj* slots[kSlots];
  };

  static void RegisterTypes() {
    (void)puddles::TypeRegistry::Instance().Register<GcRoot>(&GcRoot::slots);
    (void)puddles::TypeRegistry::Instance().RegisterLeaf<GcObj>();
    (void)puddles::TypeRegistry::Instance().RegisterLeaf<GcChip>();
  }

  puddles::Status InitStructure() override {
    RegisterTypes();
    spills_.clear();
    return pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(root_, tx.Alloc<GcRoot>());
      for (auto& slot : root_->slots) {
        slot = nullptr;
      }
      return pool_->SetRoot(root_);
    });
  }

  puddles::Status AttachStructure() override {
    RegisterTypes();
    ASSIGN_OR_RETURN(root_, pool_->Root<GcRoot>());
    ASSIGN_OR_RETURN(auto again, pool_->RecoverArenas());
    if (again.arenas_recovered != 0) {
      return puddles::DataLossError("allocgc: OpenPool left an arena directory entry active");
    }
    return puddles::OkStatus();
  }

  void ReleaseStructure() override { root_ = nullptr; }

  puddles::Status DoOp(int i) override {
    if (i % 6 == 5) {
      // Flush-back: every slab handed to the shared heap, directory entry
      // cleared — the mid-flush crash window.
      return pool_->FlushThreadArena();
    }
    if (i % 6 == 2) {
      spill_due_ = true;
      // Unreachable throughout, so the reachable signature does not change.
      return pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
        std::vector<GcChip*> chips(kBurstChips);
        for (GcChip*& chip : chips) {
          ASSIGN_OR_RETURN(chip, tx.Alloc<GcChip>());
          chip->value = 0xC41F;
        }
        for (GcChip* chip : chips) {
          RETURN_IF_ERROR(tx.Free(chip));
        }
        return puddles::OkStatus();
      });
    }
    const int slot = i % kSlots;
    const uint64_t spilled_before = SpilledSlabs();
    uint64_t staged_fence = 0;
    RETURN_IF_ERROR(pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      // Transient pair: exercises the local free list (alloc + unlogged
      // free in one transaction) without changing the reachable set. After
      // a free burst, this first allocation spills.
      ASSIGN_OR_RETURN(GcObj * scratch, tx.Alloc<GcObj>());
      staged_fence = pmem::ReadPersistStats().fences;
      scratch->value = 0xA110C;
      RETURN_IF_ERROR(tx.Free(scratch));
      ASSIGN_OR_RETURN(GcObj * next, tx.Alloc<GcObj>());
      next->value = 10'000 + static_cast<uint64_t>(i);
      if (root_->slots[slot] != nullptr) {
        RETURN_IF_ERROR(tx.Free(root_->slots[slot]));
      }
      RETURN_IF_ERROR(tx.LogRange(&root_->slots[slot], sizeof(GcObj*)));
      root_->slots[slot] = next;
      return puddles::OkStatus();
    }));
    if (spill_due_) {
      spill_due_ = false;
      if (SpilledSlabs() == spilled_before) {
        return puddles::InternalError("allocgc: the op after a free burst did not spill");
      }
      spills_.push_back({staged_fence, pmem::ReadPersistStats().fences});
    }
    return puddles::OkStatus();
  }

  puddles::Result<std::string> ComputeFingerprint() override { return ReachableSignature(); }

  puddles::Status ProbeOp() override {
    return pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(GcObj * probe, tx.Alloc<GcObj>());
      probe->value = 999'999'999;
      return tx.Free(probe);
    });
  }

 private:
  // Reachable-object count plus the slot values in slot order: a function of
  // the committed op prefix alone, whether the arena is live (traced run) or
  // being recovered (post-crash), so it doubles as the membership oracle.
  puddles::Result<std::string> ReachableSignature() {
    ASSIGN_OR_RETURN(auto reachable, pool_->ReachableObjects());
    std::ostringstream out;
    out << "live=" << reachable.size();
    for (int s = 0; s < kSlots; ++s) {
      out << ";" << (root_->slots[s] == nullptr ? 0 : root_->slots[s]->value);
    }
    return out.str();
  }

  // Slabs flushed or spilled back to the shared heap (0 without telemetry).
  static uint64_t SpilledSlabs() {
    return puddles::stats::Aggregate().counter(puddles::stats::Counter::kArenaFlushSlabs);
  }

  GcRoot* root_ = nullptr;
  bool spill_due_ = false;
  std::vector<FocusWindow> spills_;
};

// ---- PersistentHashMap (src/pmhash) ----
//
// No daemon, no transactions: pmhash carries its own slot-level protocol
// (publish bits, update journal, CRC scrubbing on Attach), so this driver
// verifies that protocol under the same exhaustive crash model.
class PmhashCrashDriver : public WorkloadDriver {
 public:
  explicit PmhashCrashDriver(const DriverOptions& options) : options_(options) {}

  std::string name() const override { return "pmhash"; }
  int num_ops() const override { return options_.ops; }

  puddles::Result<std::vector<TracedRegion>> Setup(const std::string& root) override {
    path_ = root + "/pmhash.pud";
    const size_t bytes = puddles::AlignUp(Map::RequiredBytes(kCapacity), size_t{4096});
    ASSIGN_OR_RETURN(auto file, pmem::PmemFile::Create(path_, bytes));
    file_ = std::move(file);
    ASSIGN_OR_RETURN(void* mem, file_.Map());
    RETURN_IF_ERROR(Map::Format(mem, file_.size(), kCapacity));
    ASSIGN_OR_RETURN(auto map, Map::Attach(mem, file_.size()));
    map_.emplace(std::move(map));
    rng_ = puddles::Xoshiro256(options_.seed);
    for (int i = 0; i < options_.preload; ++i) {
      RETURN_IF_ERROR(map_->Put(static_cast<uint64_t>(i) % kKeyUniverse,
                                1'000'000 + static_cast<uint64_t>(i)));
    }
    TracedRegion region;
    region.base = reinterpret_cast<uintptr_t>(mem);
    region.size = file_.size();
    region.file_path = path_;
    region.label = "pmhash";
    return std::vector<TracedRegion>{std::move(region)};
  }

  puddles::Status RunOp(int i) override {
    const uint64_t key = rng_.Below(kKeyUniverse);
    if (rng_.NextDouble() < 0.6) {
      return map_->Put(key, 2'000'000 + static_cast<uint64_t>(i));
    }
    puddles::Status status = map_->Erase(key);
    return OkOrNotFound(status) ? puddles::OkStatus() : status;
  }

  puddles::Result<std::string> Fingerprint() override {
    std::map<uint64_t, uint64_t> contents;
    map_->ForEach([&](const uint64_t& key, const uint64_t& value) { contents[key] = value; });
    std::ostringstream out;
    out << "n=" << contents.size();
    for (const auto& [key, value] : contents) {
      out << ";" << key << "=" << value;
    }
    return out.str();
  }

  void Teardown() override {
    map_.reset();
    file_ = pmem::PmemFile();
  }

  puddles::Result<std::string> RecoverAndFingerprint(const std::string& root) override {
    Teardown();
    path_ = root + "/pmhash.pud";
    ASSIGN_OR_RETURN(auto file, pmem::PmemFile::Open(path_));
    file_ = std::move(file);
    auto finish = [&]() -> puddles::Result<std::string> {
      ASSIGN_OR_RETURN(void* mem, file_.Map());
      // Attach IS the recovery path: journal replay + torn-slot scrubbing.
      ASSIGN_OR_RETURN(auto map, Map::Attach(mem, file_.size()));
      map_.emplace(std::move(map));
      ASSIGN_OR_RETURN(std::string fingerprint, Fingerprint());
      RETURN_IF_ERROR(map_->Put(kKeyUniverse + 1, 999'999'999));
      RETURN_IF_ERROR(map_->Erase(kKeyUniverse + 1));
      return fingerprint;
    };
    puddles::Result<std::string> result = finish();
    Teardown();
    return result;
  }

 private:
  using Map = puddles::PersistentHashMap<uint64_t, uint64_t>;
  static constexpr uint64_t kCapacity = 256;
  static constexpr uint64_t kKeyUniverse = 32;

  DriverOptions options_;
  std::string path_;
  pmem::PmemFile file_;
  std::optional<Map> map_;
  puddles::Xoshiro256 rng_{0};
};

// ---- Pool import + relocation rewrite (§4.2, DESIGN.md §7) ----
//
// Traced run: a source pool holding a linked list is exported, its values are
// then mutated (tripwire — see below), and the export is imported back into
// the same daemon, so every copied puddle conflicts with its original and is
// relocated (needs-rewrite flag, zeroed frontier). Each traced op then drives
// the streaming rewrite of one imported puddle — small batches, so the
// frontier/flag protocol persists often and the enumerator crosses every
// protocol edge. Recovery opens the copy through the stock Runtime::OpenPool
// path, whose rewrite-on-map must resume from the persisted frontier.
//
// Oracle sharpness: the copy is a byte clone, so a recovered copy that chased
// a STALE pointer back into source memory would read value-identical bytes —
// invisible to a fingerprint. Mutating the source after the export makes the
// two diverge: any untranslated pointer surviving recovery reads mutated
// source values and fails the membership check.
class ImportCrashDriver : public WorkloadDriver {
 public:
  struct ImpNode {
    ImpNode* next;
    uint64_t value;
  };
  struct ImpRoot {
    ImpNode* head;
    ImpNode* tail;
    uint64_t count;
  };

  explicit ImportCrashDriver(const DriverOptions& options) : options_(options) {}

  std::string name() const override { return "import"; }
  // One traced op per imported puddle (read by the harness after Setup).
  int num_ops() const override { return static_cast<int>(members_.size()); }

  puddles::Result<std::vector<TracedRegion>> Setup(const std::string& root) override {
    RegisterTypes();
    ASSIGN_OR_RETURN(auto daemon, puddled::Daemon::Start({.root_dir = root}));
    daemon_ = std::move(daemon);
    auto finish = [&]() -> puddles::Result<std::vector<TracedRegion>> {
      ASSIGN_OR_RETURN(auto runtime,
                       puddles::Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(
                           daemon_.get())));
      runtime_ = std::move(runtime);
      ASSIGN_OR_RETURN(src_pool_, runtime_->CreatePool("src"));
      RETURN_IF_ERROR(BuildList(*src_pool_, NumNodes()));

      const std::string export_dir = root + "/export";
      RETURN_IF_ERROR(runtime_->ExportPool("src", export_dir));
      // Tripwire: diverge the source from the exported bytes (see above).
      RETURN_IF_ERROR(MutateSource(*src_pool_));

      ASSIGN_OR_RETURN(puddled::ImportResult import,
                       runtime_->client().ImportPool(export_dir, "copy"));
      if (import.members_relocated == 0) {
        return puddles::InternalError(
            "import crash driver needs base conflicts; none occurred");
      }

      // Map every imported puddle at its assigned base (outside the runtime:
      // the stock rewrite-on-map path would consume the protocol before
      // tracing starts) and assemble the pool translation table. The meta
      // segments go first — the same order the runtime maps in — and their
      // traced ops exercise the non-data CompleteRewrite fast path.
      ASSIGN_OR_RETURN(puddles::PoolMetaView meta_view,
                       puddles::PoolMetaView::Attach(
                           import.pool.meta_puddle,
                           [&](const puddles::Uuid& uuid) -> puddles::Result<puddles::Puddle> {
                             ASSIGN_OR_RETURN(Mapped segment, MapPuddle(uuid));
                             members_.push_back(segment);
                             return segment.view;
                           }));
      for (uint32_t i = 0; i < meta_view.num_members(); ++i) {
        ASSIGN_OR_RETURN(Mapped member, MapPuddle(meta_view.member(i)));
        members_.push_back(member);
        // Exports cut a data member at the page above its highest allocated
        // block (Puddle::TrimHeap). The copy rewritten here must be cut short
        // of any power of two, so the traced rewrite relocates a heap that
        // only the page cut makes.
        const size_t heap_size = member.view.heap_size();
        if (heap_size % puddles::kPageSize != 0 || puddles::IsPowerOfTwo(heap_size)) {
          return puddles::InternalError(
              "import crash driver: exported data member not cut at a page short of a power "
              "of two (heap of " +
              std::to_string(heap_size) + " B)");
        }
        const uint64_t old_base = meta_view.member_old_base(i);
        if (old_base != 0) {
          RETURN_IF_ERROR(
              translator_.Add(old_base, member.info.file_size, member.info.base_addr));
        }
      }
      copy_root_puddle_ = meta_view.root_puddle();
      copy_root_offset_ = meta_view.root_offset();
      // The copy's own pointer maps drive the traced rewrite, as they drive
      // the runtime's (Pool::LookupPtrMap).
      for (uint32_t i = 0; i < meta_view.num_ptr_maps(); ++i) {
        RETURN_IF_ERROR(copy_maps_.Add(meta_view.ptr_map(i)));
      }

      std::vector<TracedRegion> regions;
      for (const Mapped& member : members_) {
        TracedRegion region;
        region.base = member.info.base_addr;
        region.size = member.info.file_size;
        region.file_path = daemon_->PuddlePath(member.info.uuid);
        region.label = "import/" + member.info.uuid.ToString().substr(0, 8);
        regions.push_back(std::move(region));
      }
      return regions;
    };
    auto result = finish();
    if (!result.ok()) {
      Teardown();
    }
    return result;
  }

  puddles::Status RunOp(int i) override {
    Mapped& member = members_[static_cast<size_t>(i)];
    puddles::RewriteOptions rewrite_options;
    rewrite_options.batch_objects = options_.rewrite_batch_objects;
    ASSIGN_OR_RETURN(puddles::RewriteStats stats,
                     puddles::RewritePuddle(
                         member.view, translator_,
                         [this](puddles::TypeId type_id) { return copy_maps_.Lookup(type_id); },
                         rewrite_options));
    (void)stats;
    return runtime_->client().CompleteRewrite(member.info.uuid);
  }

  puddles::Result<std::string> Fingerprint() override {
    std::ostringstream out;
    ASSIGN_OR_RETURN(ImpRoot * src_root, src_pool_->Root<ImpRoot>());
    out << "src{";
    RETURN_IF_ERROR(WalkList(src_root, /*canonical=*/false, out));
    out << "};copy{";
    RETURN_IF_ERROR(WalkCopyRaw(out));
    out << "}";
    return out.str();
  }

  void Teardown() override {
    src_pool_ = nullptr;
    runtime_.reset();
    auto& space = pmem::GlobalPuddleSpace();
    for (Mapped& member : members_) {
      if (member.mapped) {
        (void)space.UnmapToReserved(member.info.base_addr, member.info.file_size);
        (void)space.FreeRange(member.info.base_addr);
        member.mapped = false;
      }
      if (member.fd >= 0) {
        ::close(member.fd);
        member.fd = -1;
      }
    }
    daemon_.reset();
  }

  puddles::Result<std::string> RecoverAndFingerprint(const std::string& root) override {
    Teardown();
    // Reset per state: a failure before the stats are gathered must not report
    // the previous crash state's diagnostics.
    last_recovery_info_ = "recovery errored before replay stats";
    ASSIGN_OR_RETURN(auto daemon,
                     puddled::Daemon::Start({.root_dir = root, .run_recovery = false}));
    daemon_ = std::move(daemon);
    auto finish = [&]() -> puddles::Result<std::string> {
      ASSIGN_OR_RETURN(auto recovery, daemon_->RunRecovery());
      std::ostringstream info;
      info << "entries_applied=" << recovery.entries_applied
           << " marked_invalid=" << recovery.logs_marked_invalid;
      ASSIGN_OR_RETURN(auto runtime,
                       puddles::Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(
                           daemon_.get())));
      runtime_ = std::move(runtime);
      // The stock open path: translator from pool meta, rewrite-on-map with
      // frontier resume for every member that still carries the flag.
      ASSIGN_OR_RETURN(puddles::Pool * src, runtime_->OpenPool("src"));
      ASSIGN_OR_RETURN(puddles::Pool * copy, runtime_->OpenPool("copy"));
      auto stats = runtime_->stats();
      info << " rewrites=" << stats.rewrites
           << " pointers_rewritten=" << stats.pointers_rewritten;
      last_recovery_info_ = info.str();
      std::ostringstream out;
      ASSIGN_OR_RETURN(ImpRoot * src_root, src->Root<ImpRoot>());
      out << "src{";
      RETURN_IF_ERROR(WalkList(src_root, /*canonical=*/false, out));
      out << "};copy{";
      ASSIGN_OR_RETURN(ImpRoot * copy_root, copy->Root<ImpRoot>());
      RETURN_IF_ERROR(WalkList(copy_root, /*canonical=*/false, out));
      out << "}";
      puddles::Status probe = ProbeAppend(*copy);
      if (!probe.ok()) {
        return puddles::InternalError("post-recovery probe failed: " + probe.ToString());
      }
      return out.str();
    };
    puddles::Result<std::string> result = finish();
    Teardown();
    return result;
  }

  std::string LastRecoveryInfo() const override { return last_recovery_info_; }

 private:
  struct Mapped {
    puddled::PuddleInfo info;
    int fd = -1;
    bool mapped = false;
    puddles::Puddle view;
  };

  static constexpr uint64_t kSrcMutationDelta = 1'000'000;

  uint64_t NumNodes() const { return options_.ops < 1 ? 1 : static_cast<uint64_t>(options_.ops); }

  static void RegisterTypes() {
    (void)puddles::TypeRegistry::Instance().Register<ImpNode>(&ImpNode::next);
    (void)puddles::TypeRegistry::Instance().Register<ImpRoot>(&ImpRoot::head,
                                                              &ImpRoot::tail);
  }

  // pool.Run fits the harness exactly: drivers are called with no try/catch,
  // and a body that reports failure is rolled back, not committed.
  static puddles::Status AppendNode(puddles::Pool& pool, uint64_t value) {
    return pool.Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(ImpRoot * root, pool.Root<ImpRoot>());
      ASSIGN_OR_RETURN(ImpNode * node, tx.Alloc<ImpNode>());
      node->value = value;
      node->next = nullptr;
      RETURN_IF_ERROR(tx.Log(root));
      if (root->tail == nullptr) {
        root->head = node;
      } else {
        RETURN_IF_ERROR(tx.LogField(root->tail, &ImpNode::next));
        root->tail->next = node;
      }
      root->tail = node;
      root->count++;
      return puddles::OkStatus();
    });
  }

  static puddles::Status BuildList(puddles::Pool& pool, uint64_t nodes) {
    RETURN_IF_ERROR(pool.Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(ImpRoot * root, tx.Alloc<ImpRoot>());
      root->head = nullptr;
      root->tail = nullptr;
      root->count = 0;
      return pool.SetRoot(root);
    }));
    for (uint64_t i = 0; i < nodes; ++i) {
      RETURN_IF_ERROR(AppendNode(pool, i));
    }
    return puddles::OkStatus();
  }

  static puddles::Status MutateSource(puddles::Pool& pool) {
    return pool.Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(ImpRoot * root, pool.Root<ImpRoot>());
      for (ImpNode* node = root->head; node != nullptr; node = node->next) {
        RETURN_IF_ERROR(tx.LogField(node, &ImpNode::value));
        node->value += kSrcMutationDelta;
      }
      return puddles::OkStatus();
    });
  }

  static puddles::Status ProbeAppend(puddles::Pool& pool) {
    return AppendNode(pool, 999'999'999);
  }

  puddles::Result<Mapped> MapPuddle(const puddles::Uuid& uuid) {
    ASSIGN_OR_RETURN(auto fetched, runtime_->client().GetPuddle(uuid, /*write=*/true));
    Mapped member;
    member.info = fetched.first;
    member.fd = fetched.second;
    auto& space = pmem::GlobalPuddleSpace();
    puddles::Status claimed = space.ClaimRange(member.info.base_addr, member.info.file_size);
    if (!claimed.ok()) {
      ::close(member.fd);
      return claimed;
    }
    puddles::Status mapped = space.MapFileAt(member.fd, member.info.base_addr,
                                             member.info.file_size, /*writable=*/true);
    if (!mapped.ok()) {
      (void)space.FreeRange(member.info.base_addr);
      ::close(member.fd);
      return mapped;
    }
    auto view = puddles::Puddle::Attach(reinterpret_cast<void*>(member.info.base_addr),
                                        member.info.file_size);
    if (!view.ok()) {
      (void)space.UnmapToReserved(member.info.base_addr, member.info.file_size);
      (void)space.FreeRange(member.info.base_addr);
      ::close(member.fd);
      return view.status();
    }
    member.view = *view;
    member.mapped = true;
    return member;
  }

  // Walks a list. With canonical=true, every pointer is first passed through
  // the translation table — the logical view of a copy whose rewrite has not
  // (fully) run yet, without ever dereferencing an old address.
  puddles::Status WalkList(const ImpRoot* root, bool canonical, std::ostringstream& out) {
    auto canon = [&](const ImpNode* node) -> const ImpNode* {
      if (!canonical) {
        return node;
      }
      uint64_t translated;
      if (translator_.Translate(reinterpret_cast<uint64_t>(node), &translated)) {
        return reinterpret_cast<const ImpNode*>(translated);
      }
      return node;
    };
    out << "n=" << root->count;
    uint64_t remaining = root->count + 16;  // Corruption guard: no cycles.
    for (const ImpNode* node = canon(root->head); node != nullptr;
         node = canon(node->next)) {
      if (remaining-- == 0) {
        return puddles::DataLossError("list walk exceeded expected length (cycle?)");
      }
      out << ";" << node->value;
    }
    return puddles::OkStatus();
  }

  // Logical contents of the imported copy read straight from its mapped
  // puddles, mid-rewrite safe (manual translation, no reliance on the
  // rewrite having run).
  puddles::Status WalkCopyRaw(std::ostringstream& out) {
    const Mapped* root_member = nullptr;
    for (const Mapped& member : members_) {
      if (member.info.uuid == copy_root_puddle_) {
        root_member = &member;
        break;
      }
    }
    if (root_member == nullptr || !root_member->mapped) {
      return puddles::InternalError("copy root puddle is not mapped");
    }
    const auto* root = reinterpret_cast<const ImpRoot*>(
        root_member->info.base_addr + root_member->view.header()->heap_offset +
        copy_root_offset_);
    return WalkList(root, /*canonical=*/true, out);
  }

  DriverOptions options_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<puddles::Runtime> runtime_;
  puddles::Pool* src_pool_ = nullptr;
  puddles::Translator translator_;
  puddles::TypeRegistry copy_maps_;  // The copy's recorded maps.
  std::vector<Mapped> members_;
  puddles::Uuid copy_root_puddle_;
  uint64_t copy_root_offset_ = 0;
  std::string last_recovery_info_;
};

}  // namespace

std::unique_ptr<WorkloadDriver> MakeDriver(const std::string& name,
                                           const DriverOptions& options) {
  if (name == "list") {
    return std::make_unique<ListCrashDriver>("list", options);
  }
  if (name == "btree") {
    return std::make_unique<BtreeCrashDriver>("btree", options);
  }
  if (name == "art") {
    return std::make_unique<ArtCrashDriver>("art", options);
  }
  if (name == "kvstore") {
    return std::make_unique<KvstoreCrashDriver>("kvstore", options);
  }
  if (name == "pmhash") {
    return std::make_unique<PmhashCrashDriver>(options);
  }
  if (name == "import") {
    return std::make_unique<ImportCrashDriver>(options);
  }
  if (name == "mt") {
    return std::make_unique<RoundCrashDriver>("mt", options, puddles::Durability::kImmediate);
  }
  if (name == "epoch") {
    return std::make_unique<RoundCrashDriver>("epoch", options, puddles::Durability::kEpoch);
  }
  if (name == "allocgc") {
    return std::make_unique<AllocGcCrashDriver>("allocgc", options);
  }
  return nullptr;
}

std::vector<std::string> DriverNames() {
  return {"list", "btree", "art", "kvstore", "pmhash", "import", "mt", "epoch", "allocgc"};
}

}  // namespace crashsim
