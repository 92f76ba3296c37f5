// The three KV workloads over workloads::KvStore (paper Fig. 11's store):
//
//   kv-a        YCSB-A (50% read / 50% update, zipf 0.99 within each thread's
//               key partition) over 1 M records, immediate durability. Updates
//               are in place: the commit path works, the allocator does not.
//   kv-a-epoch  the same inputs under Durability::kEpoch; Pool::Sync closes
//               the window so every counted write is durable.
//   kv-churn    96 Ki live keys per thread; 40% insert of a fresh own key,
//               40% delete of the oldest own key, 20% uniform read of an own
//               live key. Allocation, free and the shared allocator lock work.
//
// Closed loop, kKvThreads threads, no think time. Keys are partitioned per
// thread, and each thread's partition is a KvStore of its own — its own table
// and bucket array — in the one pool all threads share. A single shared
// KvStore cannot take concurrent writers: every insert and delete updates its
// one Table::size field without synchronization. Shards share nothing but the
// pool, its allocator and the runtime, so the benchmark takes no lock.
#ifndef BENCH_E2E_KV_H_
#define BENCH_E2E_KV_H_

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/clock.h"
#include "bench/e2e/report.h"
#include "bench/e2e/stack.h"
#include "bench/e2e/trace.h"
#include "bench/e2e/window.h"
#include "bench/e2e/ycsb.h"
#include "src/workloads/adapters.h"
#include "src/workloads/kvstore.h"

namespace e2e {

static_assert(kValueLen == workloads::kKvValueSize);
static_assert(kKeyLen < workloads::kKvKeyMax);

// 2^17 buckets in all, as one table would have: the largest array one 2 MiB
// puddle heap holds. Each shard gets its share, so chains are as long as in
// one shared table.
inline constexpr uint64_t kShardBuckets = (uint64_t{1} << 17) / kKvThreads;
inline constexpr uint64_t kKvARecords = 1000000;
inline constexpr uint64_t kKvAPartition = kKvARecords / kKvThreads;
inline constexpr uint64_t kChurnLivePerThread = 96 * 1024;
inline constexpr uint32_t kSampleEvery = 8;  // Traced run: 1 op in 8 records spans.
inline constexpr uint64_t kWarmupOpsPerThread = 2000;
// kv-churn's pool grows with every churned key, so space (PM and DRAM) is
// sampled at a fixed point — each thread's kSpaceSampleOps-th window
// operation — rather than at a window end that a faster or slower run reaches
// after more or fewer operations.
inline constexpr uint64_t kSpaceSampleOps = 200000;

struct KvSpec {
  std::string name;
  bool epoch = false;
  bool churn = false;
};

// workloads::KvStore keeps its table at the pool root. A shard's table is at
// a place the benchmark gives it instead; the rest is the base adapter's.
template <typename Base>
class ShardAdapter : public Base {
 public:
  ShardAdapter(puddles::Pool* pool, void* table) : Base(pool), table_(table) {}

  template <typename T>
  T* Root() {
    return static_cast<T*>(table_);
  }
  // KvStore::Init calls this only for a table it created; shard tables are
  // created by KvBench::CreateShards.
  template <typename T>
  puddles::Status SetRoot(T*) {
    return puddles::FailedPreconditionError("shard tables are created by the benchmark");
  }

 private:
  void* table_;
};

template <typename Base>
using ShardStore = workloads::KvStore<ShardAdapter<Base>>;
using PlainStore = ShardStore<workloads::PuddlesAdapter>;
using TracedStore = ShardStore<TracedPuddlesAdapter>;

// The pool root: every shard's table.
struct ShardRoot {
  PlainStore::Table* tables[kKvThreads];
};

enum class OpKind : uint8_t { kRead, kUpdate, kInsert, kDelete };

struct Op {
  OpKind kind = OpKind::kRead;
  uint64_t key = 0;
  uint64_t version = 0;  // Expected (read) or written (update, insert) version.
};

// DRAM mirror of every acknowledged write, and the oracle's expectation.
struct Mirror {
  // kv-a*: versions[t][r] is the current version of key t + kKvThreads * r,
  // one of the keys thread t owns. Per-thread arrays keep threads off each
  // other's cache lines.
  std::array<std::vector<uint32_t>, kKvThreads> versions;
  // kv-churn: thread t's live keys are seq * kKvThreads + t for seq in
  // [head, tail); every seq below head was deleted. Values are version 0.
  struct alignas(64) Live {
    uint64_t head = 0;
    uint64_t tail = 0;
  };
  std::array<Live, kKvThreads> live{};

  uint32_t& Version(uint64_t key) { return versions[key % kKvThreads][key / kKvThreads]; }
};

struct alignas(64) ThreadRng {
  explicit ThreadRng(uint64_t seed) : rng(seed) {}
  Rng rng;
};

class KvBench {
 public:
  KvBench(const KvSpec& spec, const RunConfig& config)
      : spec_(spec), config_(config), zipf_(kKvAPartition) {
    for (int t = 0; t < kKvThreads; ++t) {
      rngs_.push_back(
          std::make_unique<ThreadRng>(config.seed * 1000003 + static_cast<uint64_t>(t)));
    }
  }

  WorkloadReport Run() {
    WorkloadReport report;
    report.workload = spec_.name;
    PlainStore::RegisterTypes();
    TracedStore::RegisterTypes();
    (void)puddles::TypeRegistry::Instance().Register<ShardRoot>(&ShardRoot::tables);

    std::vector<double> setup_s;
    const fs::path root = fs::path(config_.work_dir) / spec_.name;
    fs::path dir;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      dir = root / ("rep" + std::to_string(rep));
      if (rep > 0) {
        workers_.reset();
        stack_.reset();
        fs::remove_all(root / ("rep" + std::to_string(rep - 1)));
      }
      const uint64_t start = Ticks();
      Setup(dir);
      setup_s.push_back(TickClock::Get().ToSeconds(Ticks() - start));
    }

    std::vector<PlainStore> stores = Attach<workloads::PuddlesAdapter>(pool_, tables_);
    const Window untraced = RunWindow<PlainStore, false>(stores);
    report.attempted = untraced.attempted;
    report.failed = untraced.failed;

    std::unique_ptr<Window> traced;
    if (!config_.trace_dir.empty()) {
      std::vector<TracedStore> traced_stores = Attach<TracedPuddlesAdapter>(pool_, tables_);
      traced = std::make_unique<Window>(RunWindow<TracedStore, true>(traced_stores));
      report.attempted += traced->attempted;
      report.failed += traced->failed;
    }

    report.failed += Verify(dir);
    report.correct = report.failed == 0;
    AddEndToEnd(report, setup_s, untraced);
    AddBypassCounters(report, untraced.counters);
    if (traced) {
      ReportTraced(report, untraced, *traced, config_.trace_dir);
    }
    fs::remove_all(root);
    return report;
  }

 private:
  using Tables = std::array<void*, kKvThreads>;

  struct alignas(64) ThreadWindow {
    Latencies latency;
    std::array<uint64_t, kSlices> slices{};
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t writes = 0;
    uint64_t end_ticks = 0;  // End of the last operation before the deadline.
    bool sampled = false;    // Space sample taken (see kSpaceSampleOps).
    uint64_t live_keys = 0;  // This thread's live keys at the sample.
    uint64_t pm_bytes = 0;   // Thread 0 only: the runtime's PM at the sample.
    double dram_mib = 0;     // Thread 0 only: the process's DRAM at the sample.
  };

  // One store per shard, attached to the shard tables in `tables`.
  template <typename Base>
  static std::vector<ShardStore<Base>> Attach(puddles::Pool* pool, const Tables& tables) {
    std::vector<ShardStore<Base>> stores;
    for (void* table : tables) {
      stores.emplace_back(ShardAdapter<Base>(pool, table));
      Check(stores.back().Init(kShardBuckets), "kv attach");
    }
    return stores;
  }

  // Thread t's live keys; only thread t may call this during a window.
  uint64_t LiveKeys(int t) const {
    if (!spec_.churn) {
      return mirror_.versions[static_cast<size_t>(t)].size();
    }
    const Mirror::Live& live = mirror_.live[static_cast<size_t>(t)];
    return live.tail - live.head;
  }

  void SampleSpace(int t, ThreadWindow* w) {
    w->sampled = true;
    w->live_keys = LiveKeys(t);
    if (t == 0) {
      w->pm_bytes = stack_->PmBytes();
      w->dram_mib = HeapInUseMiB();
    }
  }

  // Creates every shard's table the way KvStore::Init does, and the pool root
  // that finds them after a restart. Each table is allocated four tables wide,
  // so two tables start at least 96 bytes apart and no two shards' size
  // fields, which every insert and delete writes and flushes, share a cache
  // line.
  void CreateShards() {
    using Table = PlainStore::Table;
    using Buckets = PlainStore::BucketArray;
    Check(pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
            ASSIGN_OR_RETURN(ShardRoot * root, tx.Alloc<ShardRoot>());
            for (int t = 0; t < kKvThreads; ++t) {
              ASSIGN_OR_RETURN(Table * table, tx.Alloc<Table>(4));
              ASSIGN_OR_RETURN(Buckets * buckets, tx.Alloc<Buckets>(kShardBuckets));
              std::memset(static_cast<void*>(table), 0, 4 * sizeof(Table));
              std::fill_n(buckets->slots, kShardBuckets, nullptr);
              table->buckets = buckets;
              table->num_buckets = kShardBuckets;
              root->tables[t] = table;
              tables_[static_cast<size_t>(t)] = table;
            }
            return pool_->SetRoot(root);
          }),
          "create shards");
  }

  // Stands up the stack, creates and loads the shards, switches durability,
  // and warms up: everything before the first measured operation.
  void Setup(const fs::path& dir) {
    stack_ = std::make_unique<Stack>(dir, /*run_recovery=*/true);
    pool_ = Take(stack_->runtime().CreatePool("kv"), "create pool");
    CreateShards();
    std::vector<PlainStore> stores = Attach<workloads::PuddlesAdapter>(pool_, tables_);
    mirror_ = Mirror{};
    if (!spec_.churn) {
      for (int t = 0; t < kKvThreads; ++t) {
        mirror_.versions[static_cast<size_t>(t)].assign(
            (kKvARecords - static_cast<uint64_t>(t) + kKvThreads - 1) / kKvThreads, 0);
      }
    }
    workers_ = std::make_unique<Workers>(kKvThreads);
    workers_->Run([&](int t) { Load(stores[static_cast<size_t>(t)], t); });
    if (spec_.epoch) {
      Check(pool_->SetDurability(puddles::Durability::kEpoch), "SetDurability(kEpoch)");
    }
    workers_->Run([&](int t) {
      ThreadWindow warmup;
      OpsLoop<PlainStore, false>(stores[static_cast<size_t>(t)], t, &warmup, nullptr, 0, 0,
                                 kWarmupOpsPerThread);
    });
  }

  void Load(PlainStore& store, int t) {
    char value[kValueLen];
    auto put = [&](uint64_t key_index) {
      FillValue(key_index, 0, value);
      Check(store.Put(KeyFor(key_index).view(), value), "load put");
    };
    if (spec_.churn) {
      for (uint64_t seq = 0; seq < kChurnLivePerThread; ++seq) {
        put(seq * kKvThreads + static_cast<uint64_t>(t));
      }
      mirror_.live[static_cast<size_t>(t)] = {0, kChurnLivePerThread};
    } else {
      for (uint64_t key = static_cast<uint64_t>(t); key < kKvARecords; key += kKvThreads) {
        put(key);
      }
    }
  }

  Op Plan(int t) {
    Rng& rng = rngs_[static_cast<size_t>(t)]->rng;
    Op op;
    if (!spec_.churn) {
      op.key = static_cast<uint64_t>(t) + kKvThreads * zipf_.Next(rng);
      op.kind = rng.Below(100) < 50 ? OpKind::kRead : OpKind::kUpdate;
      op.version = mirror_.Version(op.key) + (op.kind == OpKind::kUpdate ? 1 : 0);
      return op;
    }
    const Mirror::Live& live = mirror_.live[static_cast<size_t>(t)];
    const uint64_t dice = rng.Below(100);
    uint64_t seq = 0;
    if (dice < 40 || live.tail == live.head) {
      op.kind = OpKind::kInsert;
      seq = live.tail;
    } else if (dice < 80) {
      op.kind = OpKind::kDelete;
      seq = live.head;
    } else {
      op.kind = OpKind::kRead;
      seq = live.head + rng.Below(live.tail - live.head);
    }
    op.key = seq * kKvThreads + static_cast<uint64_t>(t);
    return op;
  }

  void Acknowledge(int t, const Op& op) {
    Mirror::Live& live = mirror_.live[static_cast<size_t>(t)];
    switch (op.kind) {
      case OpKind::kRead:
        break;
      case OpKind::kUpdate:
        mirror_.Version(op.key) = static_cast<uint32_t>(op.version);
        break;
      case OpKind::kInsert:
        ++live.tail;
        break;
      case OpKind::kDelete:
        ++live.head;
        break;
    }
  }

  // One operation as a client sees it: the store call. Returns whether it
  // succeeded; a read's value lands in `out`.
  template <typename Store, bool kTraced>
  static bool Execute(Store& store, const Op& op, std::string_view key, const char* value,
                      char* out) {
    if (op.kind != OpKind::kRead) {
      return (op.kind == OpKind::kDelete ? store.Delete(key) : store.Put(key, value)).ok();
    }
    if constexpr (kTraced) {
      ScopedSpan span(Layer::kKvGet);
      return store.Get(key, out);
    }
    return store.Get(key, out);
  }

  // The closed loop of thread t. A window (deadline != 0) records every
  // operation that starts before the deadline; a thread that has not taken
  // its space sample by then keeps going, unrecorded, until it has, so the
  // sample always falls after exactly kSpaceSampleOps operations. A warm-up
  // (deadline == 0) runs `max_ops` operations.
  template <typename Store, bool kTraced>
  void OpsLoop(Store& store, int t, ThreadWindow* w, Tracer* tracer, uint64_t start,
               uint64_t deadline, uint64_t max_ops) {
    const uint64_t window = deadline - start;
    char value[kValueLen];
    char out[kValueLen];
    for (uint64_t n = 0; deadline != 0 || n < max_ops; ++n) {
      const bool recorded = deadline != 0 && Ticks() < deadline;
      if (deadline != 0 && !recorded && w->sampled) {
        break;
      }
      const Op op = Plan(t);
      const KeyBuf key = KeyFor(op.key);
      if (op.kind != OpKind::kRead && op.kind != OpKind::kDelete) {
        FillValue(op.key, op.version, value);
      }
      const bool sampled = kTraced && recorded && n % kSampleEvery == 0;
      const uint64_t t0 = Ticks();
      if constexpr (kTraced) {
        if (sampled) {
          tls_tracer = tracer;
          tracer->BeginOp(static_cast<uint32_t>(n / kSampleEvery));
        }
      }
      bool ok = Execute<Store, kTraced>(store, op, key.view(), value, out);
      if constexpr (kTraced) {
        if (sampled) {
          tracer->EndOp();
          tls_tracer = nullptr;
        }
      }
      const uint64_t t1 = Ticks();
      if (op.kind == OpKind::kRead) {
        ok = ok && ValueMatches(op.key, op.version, out);
      }
      // attempted and writes count every operation, as the library's counters
      // do; latencies and slices only the recorded ones.
      const bool write = op.kind != OpKind::kRead;
      ++w->attempted;
      w->writes += write ? 1 : 0;
      if (ok) {
        Acknowledge(t, op);
      } else {
        ++w->failed;
      }
      if (recorded) {
        w->latency.op.Record(t1 - t0);
        (write ? w->latency.write : w->latency.read).Record(t1 - t0);
        ++w->slices[static_cast<size_t>(SliceOf(t1 - start, window))];
        w->end_ticks = t1;
      }
      if (deadline != 0 && n + 1 == kSpaceSampleOps) {
        SampleSpace(t, w);
      }
    }
  }

  template <typename Store, bool kTraced>
  Window RunWindow(std::vector<Store>& stores) {
    Window result;
    std::vector<std::unique_ptr<ThreadWindow>> threads;
    for (int t = 0; t < kKvThreads; ++t) {
      threads.push_back(std::make_unique<ThreadWindow>());
      if (kTraced) {
        result.tracers.push_back(std::make_unique<Tracer>(t));
      }
    }
    const Counters before = Counters::Read(stack_->runtime());
    const uint64_t window = TickClock::Get().FromSeconds(config_.duration_s);
    result.start_ticks = Ticks();
    const uint64_t deadline = result.start_ticks + window;
    workers_->Run([&](int t) {
      const size_t i = static_cast<size_t>(t);
      OpsLoop<Store, kTraced>(stores[i], t, threads[i].get(),
                              kTraced ? result.tracers[i].get() : nullptr, result.start_ticks,
                              deadline, 0);
    });
    uint64_t end = 0;
    uint64_t live_keys = 0;
    std::array<uint64_t, kSlices> slices{};
    for (const auto& w : threads) {
      end = std::max(end, w->end_ticks);
      result.attempted += w->attempted;
      result.failed += w->failed;
      result.writes += w->writes;
      live_keys += w->live_keys;
      result.pm_bytes += static_cast<double>(w->pm_bytes);
      result.dram_mib += w->dram_mib;
      result.latency->Merge(w->latency);
      for (int s = 0; s < kSlices; ++s) {
        slices[static_cast<size_t>(s)] += w->slices[static_cast<size_t>(s)];
      }
    }
    if (spec_.epoch) {
      const uint64_t sync_start = Ticks();
      pool_->Sync();
      result.sync_ms = TickClock::Get().ToNanos(Ticks() - sync_start) / 1e6;
      end += Ticks() - sync_start;
    }
    result.user_bytes = static_cast<double>(live_keys) * (kKeyLen + kValueLen);
    result.counters = Counters::Delta(Counters::Read(stack_->runtime()), before);
    result.throughput = MedianSliceRate(slices, window, end - result.start_ticks);
    return result;
  }

  // The oracle, untimed: shut the stack down, restart the daemon with
  // recovery over the same root, reopen the pool over the socket, and check
  // every key against the mirror. Returns the number of mismatches.
  uint64_t Verify(const fs::path& dir) {
    if (config_.self_test_corrupt) {
      if (spec_.churn) {
        ++mirror_.live[0].tail;  // Claims a key that was never inserted.
      } else {
        ++mirror_.Version(0);
      }
    }
    workers_.reset();
    stack_.reset();
    pool_ = nullptr;
    Stack stack(dir, /*run_recovery=*/true);
    puddles::Pool* pool = Take(stack.runtime().OpenPool("kv"), "reopen pool");
    ShardRoot* root = Take(pool->Root<ShardRoot>(), "reopened pool root");
    Tables tables{};
    std::copy(std::begin(root->tables), std::end(root->tables), tables.begin());
    std::vector<PlainStore> stores = Attach<workloads::PuddlesAdapter>(pool, tables);
    uint64_t mismatches = 0;
    char out[kValueLen];
    auto expect = [&](uint64_t key_index, bool present, uint64_t version) {
      const bool found = stores[key_index % kKvThreads].Get(KeyFor(key_index).view(), out);
      if (found != present || (present && !ValueMatches(key_index, version, out))) {
        ++mismatches;
      }
    };
    if (spec_.churn) {
      for (int t = 0; t < kKvThreads; ++t) {
        const Mirror::Live& live = mirror_.live[static_cast<size_t>(t)];
        for (uint64_t seq = 0; seq < live.tail; ++seq) {
          expect(seq * kKvThreads + static_cast<uint64_t>(t), seq >= live.head, 0);
        }
      }
    } else {
      for (uint64_t key = 0; key < kKvARecords; ++key) {
        expect(key, true, mirror_.Version(key));
      }
    }
    if (mismatches != 0) {
      std::fprintf(stderr, "bench_e2e: %s: %llu keys differ from the mirror after restart\n",
                   spec_.name.c_str(), static_cast<unsigned long long>(mismatches));
    }
    return mismatches;
  }

  const KvSpec spec_;
  const RunConfig config_;
  const ScrambledZipfian zipf_;
  std::vector<std::unique_ptr<ThreadRng>> rngs_;
  Mirror mirror_;
  std::unique_ptr<Stack> stack_;
  puddles::Pool* pool_ = nullptr;
  Tables tables_{};  // Shard tables of the current set-up.
  std::unique_ptr<Workers> workers_;  // Last: its threads use the members above.
};

}  // namespace e2e

#endif  // BENCH_E2E_KV_H_
