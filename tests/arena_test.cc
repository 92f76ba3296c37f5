// Per-thread slab arena tests — the concurrency-era allocator tier.
//
// The arena is the only small-object allocator for transactions: each thread
// owns slab pages with a lock-free local free list (no lock, no undo log on
// the hot path), refilled in batches from the shared heap and flushed back
// at teardown, export, or imbalance. These tests drive the full lifecycle
// (refill, flush-back, thread-exit orphan handoff, cross-thread free), prove
// exact leak accounting under an 8-thread malloc/free storm, check the
// epoch-gated reuse rule under an 8-thread epoch-durability storm, and
// exercise the open-time GC that reclaims leaked in-flight blocks. The CI
// TSan job builds and runs this binary (`ctest -L concurrency`).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/alloc/arena.h"
#include "src/daemon/client.h"
#include "src/daemon/daemon.h"
#include "src/libpuddles/libpuddles.h"
#include "src/stats/stats.h"

namespace puddles {
namespace {

namespace fs = std::filesystem;

constexpr int kStormThreads = 8;
constexpr int kStormRounds = 6;
constexpr int kStormBatch = 16;  // Allocations per round; all but one freed.

// 40 bytes + 16-byte header = 56 → the 64-byte slab class. No pointer
// fields, so reachability counts it without walking it.
struct Node {
  uint64_t value;
  uint64_t pad[4];
};

// One published slot per (thread, round); the pointer array registers as a
// repeat region so ReachableObjects() walks every slot.
struct ArenaRoot {
  Node* slots[kStormThreads * kStormRounds];
};

// A root whose type never registers a pointer map: the arena GC cannot know
// what it points to, so it must reclaim nothing.
struct OpaqueRoot {
  Node* slots[4];
};

// Runs `fn` on a thread that then stays alive, holding its arena, until
// Release(): the shape of a process torn down while a worker still runs.
class HeldThread {
 public:
  explicit HeldThread(std::function<void()> fn)
      : thread_([this, fn = std::move(fn)]() {
          fn();
          std::unique_lock<std::mutex> lock(mu_);
          ran_ = true;
          cv_.notify_all();
          cv_.wait(lock, [this] { return released_; });
        }) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return ran_; });
  }
  ~HeldThread() { Release(); }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool ran_ = false;
  bool released_ = false;
  std::thread thread_;
};

uint64_t CounterDelta(const stats::Snapshot& before, stats::Counter counter) {
  return stats::Delta(stats::Aggregate(), before).counters[static_cast<size_t>(counter)];
}

class ArenaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("arena_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    (void)TypeRegistry::Instance().Register<ArenaRoot>(&ArenaRoot::slots);
    (void)TypeRegistry::Instance().RegisterLeaf<Node>();
    Start(/*create=*/true);
  }

  void TearDown() override {
    runtime_.reset();
    daemon_.reset();
    fs::remove_all(dir_);
  }

  void Start(bool create) {
    auto started = puddled::Daemon::Start({.root_dir = (dir_ / "root").string()});
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    daemon_ = std::move(*started);
    auto rt = Runtime::Create(
        std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    runtime_ = std::move(*rt);
    auto pool = create ? runtime_->CreatePool("arena") : runtime_->OpenPool("arena");
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    pool_ = *pool;
  }

  // Tears the runtime down (flushing the arenas of this thread and of exited
  // threads; those of threads still running stay active) and reopens the
  // pool in a fresh daemon + runtime.
  void Reopen() {
    runtime_.reset();
    daemon_.reset();
    Start(/*create=*/false);
  }

  ArenaRoot* InitRoot() {
    ArenaRoot* root = nullptr;
    EXPECT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(root, tx.Alloc<ArenaRoot>());
      for (auto& slot : root->slots) {
        slot = nullptr;
      }
      return pool_->SetRoot(root);
    }).ok());
    return root;
  }

  size_t ReachableCount() {
    auto reachable = pool_->ReachableObjects();
    EXPECT_TRUE(reachable.ok()) << reachable.status().ToString();
    return reachable.ok() ? reachable->size() : 0;
  }

  // ObjectHeap::Validate over every data puddle the runtime knows.
  void ExpectHeapsValid() {
    for (Runtime::Entry* entry : runtime_->Entries()) {
      if (entry->info.kind != static_cast<uint32_t>(PuddleKind::kData)) {
        continue;
      }
      auto mapped = runtime_->EnsureMapped(entry->info.uuid);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      auto heap = (*mapped)->view.object_heap();
      ASSERT_TRUE(heap.ok()) << heap.status().ToString();
      puddles::Status valid = heap->Validate();
      EXPECT_TRUE(valid.ok()) << valid.ToString();
    }
  }

  fs::path dir_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<Runtime> runtime_;
  Pool* pool_ = nullptr;
};

// Refill: the first small allocation pulls slabs from the shared heap in a
// batch; subsequent allocations in the class are served without touching it.
TEST_F(ArenaTest, RefillServesSmallAllocations) {
  ArenaRoot* root = InitRoot();

  const stats::Snapshot before = stats::Aggregate();
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < 8; ++i) {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = 100 + i;
      RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
      root->slots[i] = n;
    }
    return OkStatus();
  }).ok());
  EXPECT_EQ(CounterDelta(before, stats::Counter::kArenaAlloc), 8u);
  EXPECT_GE(CounterDelta(before, stats::Counter::kArenaRefillSlabs), 1u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(root->slots[i]->value, 100u + i);
  }
  EXPECT_EQ(ReachableCount(), 1u + 8u);
}

// Free returns the slot to the thread's local list; the next allocation in
// the class reuses it with no further refill from the shared heap.
TEST_F(ArenaTest, FreeFeedsLocalFreeList) {
  ArenaRoot* root = InitRoot();

  Node* scratch = nullptr;
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(scratch, tx.Alloc<Node>());
    scratch->value = 7;
    return OkStatus();
  }).ok());

  const stats::Snapshot before = stats::Aggregate();
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    return tx.Free(scratch);
  }).ok());
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 8;
    RETURN_IF_ERROR(tx.LogRange(&root->slots[0], sizeof(Node*)));
    root->slots[0] = n;
    return OkStatus();
  }).ok());
  EXPECT_EQ(CounterDelta(before, stats::Counter::kArenaFree), 1u);
  EXPECT_EQ(CounterDelta(before, stats::Counter::kArenaRefillSlabs), 0u);
  EXPECT_EQ(root->slots[0]->value, 8u);
  EXPECT_EQ(ReachableCount(), 1u + 1u);
}

// An aborted transaction must leave no trace: directory claims, slab
// acquisitions, and slot pops all roll back — persistently via the undo log
// and in DRAM via the arena's abort hook.
TEST_F(ArenaTest, AbortRollsBackArenaState) {
  ArenaRoot* root = InitRoot();
  const size_t baseline = ReachableCount();

  puddles::Status aborted = pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < 5; ++i) {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = 9000 + i;
      RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
      root->slots[i] = n;
    }
    return InternalError("deliberate abort");
  });
  ASSERT_FALSE(aborted.ok());

  EXPECT_EQ(ReachableCount(), baseline);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(root->slots[i], nullptr);
  }

  // The rolled-back arena still serves allocations afterwards.
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 42;
    RETURN_IF_ERROR(tx.LogRange(&root->slots[0], sizeof(Node*)));
    root->slots[0] = n;
    return OkStatus();
  }).ok());
  EXPECT_EQ(ReachableCount(), baseline + 1);
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  EXPECT_EQ(root->slots[0]->value, 42u);
}

// Flush-back hands every arena slab to the shared heap (occupancy from the
// shadow bitmap), clears the directory entry, and leaves the survivors
// ordinary global objects.
TEST_F(ArenaTest, FlushBackReturnsSlabsToGlobalHeap) {
  ArenaRoot* root = InitRoot();

  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < 6; ++i) {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = 500 + i;
      RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
      root->slots[i] = n;
    }
    return OkStatus();
  }).ok());

  const stats::Snapshot before = stats::Aggregate();
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  EXPECT_GE(CounterDelta(before, stats::Counter::kArenaFlushSlabs), 1u);

  // Arena-era survivors are ordinary global objects now: values intact,
  // freeable through the logged global path.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(root->slots[i]->value, 500u + i);
  }
  EXPECT_EQ(ReachableCount(), 1u + 6u);
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.Free(root->slots[5]));
    RETURN_IF_ERROR(tx.LogRange(&root->slots[5], sizeof(Node*)));
    root->slots[5] = nullptr;
    return OkStatus();
  }).ok());
  EXPECT_EQ(ReachableCount(), 1u + 5u);

  // A clean flush leaves nothing for recovery to do.
  Reopen();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->arenas_recovered, 0u);
  EXPECT_EQ(ReachableCount(), 1u + 5u);
}

// A thread that exits without flushing orphans its arena; the next thread to
// refill adopts it and can serve and free its objects locally.
TEST_F(ArenaTest, ThreadExitOrphanHandoff) {
  ArenaRoot* root = InitRoot();

  std::thread worker([&]() {
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (int i = 0; i < 4; ++i) {
        ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
        n->value = 700 + i;
        RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
        root->slots[i] = n;
      }
      return OkStatus();
    }).ok());
  });
  worker.join();

  const stats::Snapshot before = stats::Aggregate();
  // The main thread's first refill adopts the orphan.
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 704;
    RETURN_IF_ERROR(tx.LogRange(&root->slots[4], sizeof(Node*)));
    root->slots[4] = n;
    return OkStatus();
  }).ok());
  EXPECT_GE(CounterDelta(before, stats::Counter::kArenaOrphanAdopt), 1u);

  // Adopted objects free through the adopting thread's own arena.
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < 4; ++i) {
      RETURN_IF_ERROR(tx.Free(root->slots[i]));
      RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
      root->slots[i] = nullptr;
    }
    return OkStatus();
  }).ok());
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  EXPECT_EQ(ReachableCount(), 1u + 1u);
  EXPECT_EQ(root->slots[4]->value, 704u);
}

// A free issued by a thread that does not own the slab queues to the owner;
// housekeeping at the next refill/flush applies it. Nothing is lost even
// when both threads are gone before the drain.
TEST_F(ArenaTest, CrossThreadFreeReachesOwner) {
  ArenaRoot* root = InitRoot();

  std::thread owner([&]() {
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (int i = 0; i < 8; ++i) {
        ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
        n->value = 800 + i;
        RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
        root->slots[i] = n;
      }
      return OkStatus();
    }).ok());
  });
  owner.join();

  const stats::Snapshot before = stats::Aggregate();
  std::thread freer([&]() {
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (int i = 0; i < 8; ++i) {
        RETURN_IF_ERROR(tx.Free(root->slots[i]));
        RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
        root->slots[i] = nullptr;
      }
      return OkStatus();
    }).ok());
  });
  freer.join();

  // FlushAllArenas adopts both orphaned arenas and drains the remote queue
  // before handing the slabs back — the 8 frees land before the flush.
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  EXPECT_GE(CounterDelta(before, stats::Counter::kArenaRemoteFree), 8u);
  EXPECT_EQ(ReachableCount(), 1u);

  Reopen();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(ReachableCount(), 1u);
}

// A free issued while the owner still holds the slab, whose slab the owner
// then flushes back to the global heap before the freeing transaction
// commits: the free now changes global-heap metadata, so it must run as a
// transaction of its own (undo-logged, atomic and durable), not as an
// unlogged write from the post-commit hook.
TEST_F(ArenaTest, FreeOfSlabFlushedBeforeCommitRunsItsOwnTransaction) {
  Node* node = nullptr;
  std::promise<void> allocated, flush, flushed;
  std::thread owner([&]() {
    EXPECT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(node, tx.Alloc<Node>());
      node->value = 900;
      return OkStatus();
    }).ok());
    allocated.set_value();
    flush.get_future().wait();
    EXPECT_TRUE(pool_->FlushThreadArena().ok());
    flushed.set_value();
  });
  allocated.get_future().wait();

  stats::Snapshot before = stats::Aggregate();
  puddles::Status freed = pool_->Run([&](Tx& tx) -> puddles::Status {
    puddles::Status status = tx.Free(node);  // Arena-owned: published after commit.
    flush.set_value();
    flushed.get_future().wait();  // The slab is global from here on.
    before = stats::Aggregate();
    return status;
  });
  owner.join();
  ASSERT_TRUE(freed.ok()) << freed.ToString();

  EXPECT_EQ(CounterDelta(before, stats::Counter::kTxCommit), 2u)
      << "the freeing transaction's commit, then the free's own";
  Runtime::Entry* entry = runtime_->FindEntryByAddr(reinterpret_cast<uintptr_t>(node));
  ASSERT_NE(entry, nullptr);
  auto heap = entry->view.object_heap();
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_EQ(heap->HeaderOf(node), nullptr) << "the object is freed";
  ExpectHeapsValid();
}

// The 8-thread malloc/free storm with exact leak accounting. Every thread
// runs rounds of batch-allocate + free-all-but-one; after join and flush the
// books must balance to the slot: arena allocations minus arena frees equals
// the published survivors, every acquired slab is flushed back, and the
// reachable set is exactly root + survivors.
TEST_F(ArenaTest, EightThreadStormExactLeakAccounting) {
  ArenaRoot* root = InitRoot();

  const stats::Snapshot before = stats::Aggregate();
  std::vector<std::thread> threads;
  threads.reserve(kStormThreads);
  for (int t = 0; t < kStormThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < kStormRounds; ++r) {
        ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
          Node* keep = nullptr;
          for (int i = 0; i < kStormBatch; ++i) {
            ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
            n->value = static_cast<uint64_t>(t) * 1000 + r;
            if (i == 0) {
              keep = n;
            } else {
              RETURN_IF_ERROR(tx.Free(n));
            }
          }
          const int slot = t * kStormRounds + r;
          RETURN_IF_ERROR(tx.LogRange(&root->slots[slot], sizeof(Node*)));
          root->slots[slot] = keep;
          return OkStatus();
        }).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(pool_->FlushAllArenas().ok());

  constexpr uint64_t kPublished = kStormThreads * kStormRounds;
  const stats::Snapshot delta = stats::Delta(stats::Aggregate(), before);
  using stats::Counter;
  const uint64_t allocs = delta.counter(Counter::kArenaAlloc);
  EXPECT_EQ(allocs, kPublished * kStormBatch);  // Every allocation was arena-served.
  EXPECT_EQ(allocs - delta.counter(Counter::kArenaFree), kPublished);  // Exact leak accounting.
  // Every acquired slab flushed back.
  EXPECT_EQ(delta.counter(Counter::kArenaRefillSlabs), delta.counter(Counter::kArenaFlushSlabs));
  EXPECT_EQ(ReachableCount(), 1u + kPublished);
  for (int t = 0; t < kStormThreads; ++t) {
    for (int r = 0; r < kStormRounds; ++r) {
      ASSERT_NE(root->slots[t * kStormRounds + r], nullptr);
      EXPECT_EQ(root->slots[t * kStormRounds + r]->value,
                static_cast<uint64_t>(t) * 1000 + r);
    }
  }

  // Survivors persist across a reopen; the clean flush left recovery idle.
  Reopen();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->arenas_recovered, 0u);
  EXPECT_EQ(ReachableCount(), 1u + kPublished);
}

// Unclean teardown: a thread still holding its arena when the runtime goes
// away leaves its directory entries active. The next plain OpenPool runs the
// GC — no explicit RecoverArenas call — which keeps every reachable object
// and reclaims the committed-but-unreachable slots.
TEST_F(ArenaTest, UncleanTeardownReclaimedByOpenPool) {
  ArenaRoot* root = InitRoot();

  constexpr int kKeep = 8;
  constexpr int kLeak = 10;
  HeldThread worker([&]() {
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (int i = 0; i < kKeep; ++i) {
        ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
        n->value = 600 + i;
        RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
        root->slots[i] = n;
      }
      // Committed but never published nor freed: unreachable leaks only the
      // GC can reclaim.
      for (int i = 0; i < kLeak; ++i) {
        ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
        n->value = 999;
      }
      return OkStatus();
    }).ok());
  });

  const stats::Snapshot before = stats::Aggregate();
  Reopen();
  EXPECT_GE(CounterDelta(before, stats::Counter::kArenaGcSlabs), 1u);
  EXPECT_EQ(CounterDelta(before, stats::Counter::kArenaGcReclaimed),
            static_cast<uint64_t>(kLeak));
  worker.Release();

  ExpectHeapsValid();
  EXPECT_EQ(ReachableCount(), 1u + kKeep);
  auto recovered_root = pool_->Root<ArenaRoot>();
  ASSERT_TRUE(recovered_root.ok());
  for (int i = 0; i < kKeep; ++i) {
    EXPECT_EQ((*recovered_root)->slots[i]->value, 600u + i);
  }
  // The open-time GC released every entry: an explicit pass finds nothing.
  auto again = pool_->RecoverArenas();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->arenas_recovered, 0u);
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 1;
    RETURN_IF_ERROR(tx.LogRange(&(*recovered_root)->slots[kKeep], sizeof(Node*)));
    (*recovered_root)->slots[kKeep] = n;
    return OkStatus();
  }).ok());
  EXPECT_EQ(ReachableCount(), 1u + kKeep + 1u);
}

// 256 bytes + 16-byte header = the 272-byte class: a few thousand fill a
// puddle, so a chain of them spans several.
struct ChainNode {
  ChainNode* next;
  uint64_t value;
  uint64_t pad[30];
};
struct ChainRoot {
  ChainNode* head;
};

// The open-time GC walks reachability across every member puddle, not only
// the ones the reopen happened to map: a chain spanning several lazily
// mapped puddles survives the GC whole, and only the leaks are reclaimed.
TEST_F(ArenaTest, OpenTimeGcFollowsPointersIntoUnmappedPuddles) {
  (void)TypeRegistry::Instance().Register<ChainNode>(&ChainNode::next);
  (void)TypeRegistry::Instance().Register<ChainRoot>(&ChainRoot::head);
  ChainRoot* root = nullptr;
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(root, tx.Alloc<ChainRoot>());
    root->head = nullptr;
    return pool_->SetRoot(root);
  }).ok());
  constexpr int kBatches = 20;
  constexpr int kPerBatch = 1000;
  constexpr int kLeak = 5;
  HeldThread worker([&]() {
    for (int b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
        RETURN_IF_ERROR(tx.LogRange(&root->head, sizeof(root->head)));
        for (int i = 0; i < kPerBatch; ++i) {
          ASSIGN_OR_RETURN(ChainNode * n, tx.Alloc<ChainNode>());
          n->value = static_cast<uint64_t>(b) * kPerBatch + i;
          n->next = root->head;
          root->head = n;
        }
        return OkStatus();
      }).ok());
    }
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (int i = 0; i < kLeak; ++i) {
        ASSIGN_OR_RETURN(ChainNode * n, tx.Alloc<ChainNode>());
        n->next = nullptr;
      }
      return OkStatus();
    }).ok());
  });
  ASSERT_GE(pool_->member_count(), 3u);

  const stats::Snapshot before = stats::Aggregate();
  Reopen();
  worker.Release();
  EXPECT_EQ(CounterDelta(before, stats::Counter::kArenaGcReclaimed),
            static_cast<uint64_t>(kLeak));
  auto reopened = pool_->Root<ChainRoot>();
  ASSERT_TRUE(reopened.ok());
  uint64_t expected = kBatches * kPerBatch;
  for (ChainNode* n = (*reopened)->head; n != nullptr; n = n->next) {
    ASSERT_EQ(n->value, --expected);
  }
  EXPECT_EQ(expected, 0u);
  EXPECT_EQ(ReachableCount(), 1u + kBatches * kPerBatch);
  ExpectHeapsValid();
}

// One pointer: 8 bytes + the 16-byte header fill a 32-byte slab slot, whose
// payload capacity is 16 bytes.
struct TinyRoot {
  Node* slot;
};

// The reachability walk bounds an object by its slot or block, not by its
// recorded size alone, as relocation's rewrite does: an inflated size must
// neither run the walk off the mapping nor read the slots after the root.
class ArenaInflatedRootTest : public ArenaTest {
 protected:
  void SetUp() override {
    ArenaTest::SetUp();
    (void)TypeRegistry::Instance().Register<TinyRoot>(&TinyRoot::slot);
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(root_, tx.Alloc<TinyRoot>());
      ASSIGN_OR_RETURN(neighbor_, tx.Alloc<TinyRoot>());
      ASSIGN_OR_RETURN(hidden_, tx.Alloc<Node>());
      root_->slot = nullptr;
      neighbor_->slot = hidden_;  // Reached by no one: `neighbor_` is garbage.
      return pool_->SetRoot(root_);
    }).ok());
    header_ = reinterpret_cast<ObjectHeader*>(root_) - 1;
  }

  void TearDown() override {
    if (header_ != nullptr) {
      header_->size = sizeof(TinyRoot);
    }
    ArenaTest::TearDown();
  }

  TinyRoot* root_ = nullptr;
  TinyRoot* neighbor_ = nullptr;
  Node* hidden_ = nullptr;
  ObjectHeader* header_ = nullptr;
};

TEST_F(ArenaInflatedRootTest, HugeSizeStopsAtTheSlot) {
  header_->size = 0xFFFFFF00u;
  auto reachable = pool_->ReachableObjects();
  ASSERT_TRUE(reachable.ok()) << reachable.status().ToString();
  EXPECT_EQ(*reachable, std::vector<const void*>{root_});
}

TEST_F(ArenaInflatedRootTest, PointerPastTheSlotIsNotAnEdge) {
  // The next slot holds `neighbor_`; its pointer sits 32 bytes past the
  // root's payload, 16 past the root's capacity, where the fifth 8-byte
  // element of a 40-byte root would be.
  ASSERT_EQ(reinterpret_cast<uint8_t*>(neighbor_), reinterpret_cast<uint8_t*>(root_) + 32)
      << "the two roots must share a slab, in adjacent slots";
  header_->size = 5 * sizeof(TinyRoot);
  auto reachable = pool_->ReachableObjects();
  ASSERT_TRUE(reachable.ok()) << reachable.status().ToString();
  EXPECT_EQ(*reachable, std::vector<const void*>{root_});
}

// Clean teardown: the runtime flushes this thread's arenas and adopts and
// flushes those of exited threads, so the reopen finds no active directory
// entry and runs no GC.
TEST_F(ArenaTest, CleanTeardownLeavesNoActiveEntry) {
  ArenaRoot* root = InitRoot();
  auto publish = [&](int slot, uint64_t value) {
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = value;
      RETURN_IF_ERROR(tx.LogRange(&root->slots[slot], sizeof(Node*)));
      root->slots[slot] = n;
      return OkStatus();
    }).ok());
  };
  publish(0, 10);
  std::thread exited([&]() { publish(1, 11); });
  exited.join();

  const stats::Snapshot before = stats::Aggregate();
  Reopen();
  EXPECT_EQ(CounterDelta(before, stats::Counter::kArenaGcSlabs), 0u);
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->arenas_recovered, 0u);
  ExpectHeapsValid();
  auto reopened = pool_->Root<ArenaRoot>();
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->slots[0]->value, 10u);
  EXPECT_EQ((*reopened)->slots[1]->value, 11u);
  EXPECT_EQ(ReachableCount(), 1u + 2u);
}

// The GC is conservative: when a reachable object's type has no pointer map,
// reachability is unknown past it, so OpenPool reclaims nothing and leaves
// the directory entries active rather than free what it cannot see. No arena
// of the reopened process ever owns those entries' slabs, so frees into them
// are dropped instead of being requeued by every later drain.
TEST_F(ArenaTest, UnregisteredPointerMapReclaimsNothing) {
  OpaqueRoot* root = nullptr;
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(root, tx.Alloc<OpaqueRoot>());
    for (auto& slot : root->slots) {
      slot = nullptr;
    }
    return pool_->SetRoot(root);
  }).ok());
  std::vector<Node*> leaked;
  HeldThread worker([&]() {
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(Node * kept, tx.Alloc<Node>());
      kept->value = 5;
      RETURN_IF_ERROR(tx.LogRange(&root->slots[0], sizeof(Node*)));
      root->slots[0] = kept;
      for (int i = 0; i < 4; ++i) {
        ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
        n->value = 999;
        leaked.push_back(n);
      }
      return OkStatus();
    }).ok());
  });

  const stats::Snapshot before = stats::Aggregate();
  Reopen();
  worker.Release();
  EXPECT_EQ(CounterDelta(before, stats::Counter::kArenaGcSlabs), 0u);
  EXPECT_EQ(CounterDelta(before, stats::Counter::kArenaGcReclaimed), 0u);
  auto report = pool_->RecoverArenas();
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
      << report.status().ToString();
  for (Node* n : leaked) {
    EXPECT_EQ((reinterpret_cast<const ObjectHeader*>(n) - 1)->magic, kObjectMagic);
  }
  auto reopened = pool_->Root<OpaqueRoot>();
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->slots[0]->value, 5u);
  // The pool stays fully usable; new allocations claim fresh entries.
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 6;
    RETURN_IF_ERROR(tx.LogRange(&(*reopened)->slots[1], sizeof(Node*)));
    (*reopened)->slots[1] = n;
    return OkStatus();
  }).ok());

  const stats::Snapshot before_frees = stats::Aggregate();
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    for (Node* n : leaked) {
      RETURN_IF_ERROR(tx.Free(n));
    }
    return OkStatus();
  }).ok());
  for (int drain = 0; drain < 3; ++drain) {
    ASSERT_TRUE(pool_->FlushThreadArena().ok());  // Drains any queued frees.
  }
  EXPECT_EQ(CounterDelta(before_frees, stats::Counter::kArenaRemoteFree), 0u)
      << "frees into skipped entries must not queue (and requeue at every drain)";
  for (Node* n : leaked) {
    EXPECT_EQ((reinterpret_cast<const ObjectHeader*>(n) - 1)->magic, kObjectMagic)
        << "the slot stays allocated until a later open's GC";
  }
}

// Alloc/free churn inside transactions converges to exactly the published
// objects with their values — the state a DRAM model of the same operations
// predicts.
TEST_F(ArenaTest, ChurnMatchesModel) {
  ArenaRoot* root = InitRoot();
  std::vector<uint64_t> expected(16, ~0ULL);
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (int i = 0; i < 12; ++i) {
        ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
        n->value = static_cast<uint64_t>(r) * 100 + i;
        if (i % 3 == 0) {
          const int slot = r * 4 + i / 3;
          RETURN_IF_ERROR(tx.LogRange(&root->slots[slot], sizeof(Node*)));
          root->slots[slot] = n;
        } else {
          RETURN_IF_ERROR(tx.Free(n));
        }
      }
      return OkStatus();
    }).ok());
    for (int i = 0; i < 12; i += 3) {
      expected[static_cast<size_t>(r * 4 + i / 3)] = static_cast<uint64_t>(r) * 100 + i;
    }
  }
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  for (int s = 0; s < 16; ++s) {
    ASSERT_NE(root->slots[s], nullptr);
    EXPECT_EQ(root->slots[s]->value, expected[static_cast<size_t>(s)]);
  }
  EXPECT_EQ(ReachableCount(), 1u + 16u);
  ExpectHeapsValid();
}

// Arena + epoch durability, 8 threads: a slot freed under kEpoch must not be
// handed out again until the freeing epoch has persistently retired
// (docs/alloc.md). Epochs here close only on Sync, so every allocation
// between a free and the next Sync must avoid the freed slots — and each
// thread allocates past its local free slots there, so refills run their
// drain of the epoch-pending frees while those are still immature.
TEST_F(ArenaTest, EpochStormDefersReuseUntilRetirement) {
  ArenaRoot* root = InitRoot();
  ASSERT_TRUE(pool_
                  ->SetDurability(Durability::kEpoch,
                                  {.max_epoch_age_us = 60'000'000,
                                   .max_staged_bytes = 1ULL << 30,
                                   .max_epoch_txs = 1ULL << 30})
                  .ok());
  EpochSys* epochs = runtime_->epoch_sys();
  ASSERT_NE(epochs, nullptr);
  constexpr int kRounds = 2;
  constexpr int kBatch = 300;  // More than one refill's worth of 64-byte slots.

  std::atomic<int> early_reuse{0};
  std::atomic<int> late_reuse{0};
  std::barrier sync_point(kStormThreads + 1);
  auto alloc_batch = [&](std::vector<Node*>* out, uint64_t value) {
    return pool_->Run([&](Tx& tx) -> puddles::Status {
      for (int i = 0; i < kBatch; ++i) {
        ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
        n->value = value;
        out->push_back(n);
      }
      return OkStatus();
    });
  };
  auto free_batch = [&](const std::vector<Node*>& nodes, size_t from) {
    return pool_->Run([&](Tx& tx) -> puddles::Status {
      for (size_t i = from; i < nodes.size(); ++i) {
        RETURN_IF_ERROR(tx.Free(nodes[i]));
      }
      return OkStatus();
    });
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kStormThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<Node*> first;
        ASSERT_TRUE(alloc_batch(&first, 1).ok());
        // Epochs only move forward, so the free commits in this epoch or a
        // later one: the slots stay unusable while retired < freed_in.
        const uint64_t freed_in = epochs->current_epoch();
        ASSERT_TRUE(free_batch(first, 0).ok());
        const std::set<Node*> freed(first.begin(), first.end());

        std::vector<Node*> second;
        ASSERT_TRUE(alloc_batch(&second, 2).ok());
        if (epochs->retired_epoch() < freed_in) {
          for (Node* n : second) {
            early_reuse += freed.count(n) != 0 ? 1 : 0;
          }
        }
        const int slot = t * kStormRounds + r;
        ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
          RETURN_IF_ERROR(tx.LogRange(&root->slots[slot], sizeof(Node*)));
          root->slots[slot] = second[0];
          return OkStatus();
        }).ok());
        ASSERT_TRUE(free_batch(second, 1).ok());

        sync_point.arrive_and_wait();  // Every thread is past its checks.
        sync_point.arrive_and_wait();  // The main thread has Synced.
        std::vector<Node*> third;
        ASSERT_TRUE(alloc_batch(&third, 3).ok());
        ASSERT_TRUE(alloc_batch(&third, 3).ok());
        for (Node* n : third) {
          late_reuse += freed.count(n) != 0 ? 1 : 0;
        }
        ASSERT_TRUE(free_batch(third, 0).ok());
      }
    });
  }
  for (int r = 0; r < kRounds; ++r) {
    sync_point.arrive_and_wait();
    pool_->Sync();
    sync_point.arrive_and_wait();
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(early_reuse.load(), 0);
  EXPECT_GT(late_reuse.load(), 0);  // Retirement does release the slots.

  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  EXPECT_EQ(ReachableCount(), 1u + kStormThreads * kRounds);
  for (int t = 0; t < kStormThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      ASSERT_NE(root->slots[t * kStormRounds + r], nullptr);
      EXPECT_EQ(root->slots[t * kStormRounds + r]->value, 2u);
    }
  }
  ExpectHeapsValid();
}

// A second free of an arena-owned slot whose first free has already been
// applied (magic cleared at publication) must fail like the global path's
// double-free check, not silently queue a release against whatever occupies
// the slot next.
TEST_F(ArenaTest, DoubleFreeOfArenaObjectRejected) {
  InitRoot();

  Node* node = nullptr;
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(node, tx.Alloc<Node>());
    node->value = 11;
    return OkStatus();
  }).ok());
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    return tx.Free(node);
  }).ok());

  // The first free's publication ran post-commit: the slot is dead but still
  // in an arena-owned slab, so the stale pointer resolves through the locked
  // tag check and must be rejected there.
  puddles::Status dup = pool_->Run([&](Tx& tx) -> puddles::Status {
    return tx.Free(node);
  });
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition) << dup.ToString();

  // The rejection left the arena untouched: the slot is still on the free
  // list exactly once, so reuse works and the pool flushes clean.
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 12;
    return tx.Free(n);
  }).ok());
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
}

// Builds a 64-byte-class arena of twelve whole-empty slabs (three refills)
// with the spill hint raised: the next small allocation's slow path will try
// to spill the eight empties beyond the retention floor back to the buddy.
class ArenaSpillTest : public ArenaTest {
 protected:
  static constexpr int kPrimed = 600;  // > 512 free slots once freed.

  void PrimeSpill() {
    nodes_.resize(kPrimed);
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (auto& n : nodes_) {
        ASSIGN_OR_RETURN(n, tx.Alloc<Node>());
        n->value = 1;
      }
      return OkStatus();
    }).ok());
    // Freeing everything publishes the releases post-commit: every slab ends
    // whole-empty and the free count crosses the watermark.
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (Node* n : nodes_) {
        RETURN_IF_ERROR(tx.Free(n));
      }
      return OkStatus();
    }).ok());
  }

  std::vector<Node*> nodes_;
};

// Committed spill: the chain unlink is staged in the triggering transaction
// and the buddy release runs at its commit head, so after commit the slab is
// global again and the pool flushes and recovers clean.
TEST_F(ArenaSpillTest, SpillCommitsBuddyReleaseAtCommitHead) {
  ArenaRoot* root = InitRoot();
  PrimeSpill();

  const stats::Snapshot before = stats::Aggregate();
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 77;
    RETURN_IF_ERROR(tx.LogRange(&root->slots[0], sizeof(Node*)));
    root->slots[0] = n;
    return OkStatus();
  }).ok());
  EXPECT_GE(CounterDelta(before, stats::Counter::kArenaFlushSlabs), 1u);

  EXPECT_EQ(root->slots[0]->value, 77u);
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  Reopen();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->arenas_recovered, 0u);
  EXPECT_EQ(ReachableCount(), 1u + 1u);
}

// Aborted spill: the deferred buddy release never runs, the persistent
// unlink rolls back with the transaction, and the abort hook re-owns the
// slabs with every slot free — so re-allocating all their slots needs no
// fresh refill and the heap stays consistent.
TEST_F(ArenaSpillTest, AbortedSpillResurrectsSlabWithoutBuddyRelease) {
  ArenaRoot* root = InitRoot();
  PrimeSpill();
  const size_t baseline = ReachableCount();

  puddles::Status aborted = pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 88;
    return InternalError("deliberate abort");
  });
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(ReachableCount(), baseline);

  // Every slab must still be arena-owned and fully free: if the spill had
  // leaked — buddy release applied under an aborted unlink, or free slots
  // lost — this would either refill or corrupt.
  const stats::Snapshot before = stats::Aggregate();
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < kPrimed; ++i) {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = 100 + i;
      if (i == 0) {
        RETURN_IF_ERROR(tx.LogRange(&root->slots[0], sizeof(Node*)));
        root->slots[0] = n;
      } else {
        RETURN_IF_ERROR(tx.Free(n));
      }
    }
    return OkStatus();
  }).ok());
  EXPECT_EQ(CounterDelta(before, stats::Counter::kArenaRefillSlabs), 0u);

  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  Reopen();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->arenas_recovered, 0u);
  EXPECT_EQ(ReachableCount(), baseline + 1);
  EXPECT_EQ(root->slots[0]->value, 100u);
}

// The spill threshold comes back down: a spill pass that finds only slots
// scattered over partly-used slabs (nothing to spill) raises the threshold a
// watermark above its free count, and once those slots are used up again a
// burst of whole-empty slabs must spill at the watermark, not at the old
// free count plus the watermark.
TEST_F(ArenaTest, SpillThresholdFollowsFreeCountDown) {
  const int class_index = SlabAllocator::ClassForSize(sizeof(Node) + sizeof(ObjectHeader));
  const size_t per_slab = (kSlabBlockSize - sizeof(SlabHeader)) / kSlabSlotSizes[class_index];
  // Enough slabs that freeing every other slot crosses the watermark.
  const size_t scattered = 4 * kArenaFlushWatermark / per_slab * per_slab;
  std::vector<Node*> nodes(scattered);
  auto alloc_all = [&](std::vector<Node*>& out) {
    return pool_->Run([&](Tx& tx) -> puddles::Status {
      for (Node*& n : out) {
        ASSIGN_OR_RETURN(n, tx.Alloc<Node>());
        n->value = 1;
      }
      return OkStatus();
    });
  };
  auto free_every = [&](std::vector<Node*>& in, size_t stride) {
    return pool_->Run([&](Tx& tx) -> puddles::Status {
      for (size_t i = 0; i < in.size(); i += stride) {
        RETURN_IF_ERROR(tx.Free(in[i]));
      }
      return OkStatus();
    });
  };
  auto spilled_by_one_alloc = [&]() -> uint64_t {
    const stats::Snapshot before = stats::Aggregate();
    EXPECT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      return tx.Alloc<Node>().status();
    }).ok());
    return CounterDelta(before, stats::Counter::kArenaFlushSlabs);
  };

  // 1. Scattered free slots past the watermark: the pass spills nothing.
  ASSERT_TRUE(alloc_all(nodes).ok());
  ASSERT_TRUE(free_every(nodes, 2).ok());
  EXPECT_EQ(spilled_by_one_alloc(), 0u);
  // 2. The scattered slots are used again.
  std::vector<Node*> refilled(scattered / 2);
  ASSERT_TRUE(alloc_all(refilled).ok());
  // 3. A burst of whole slabs, freed: more than a watermark of free slots,
  //    but fewer than the scattered count plus a watermark.
  std::vector<Node*> burst(2 * kArenaFlushWatermark / per_slab * per_slab + per_slab);
  ASSERT_TRUE(alloc_all(burst).ok());
  ASSERT_TRUE(free_every(burst, 1).ok());
  EXPECT_GE(spilled_by_one_alloc(), 1u) << "whole-empty slabs past the watermark must spill";
}

// Unit-level check of the remote-free validation added for recycled-claim
// safety: a record must be dropped on generation mismatch, consumed inertly
// when its offset cannot resolve in the current slab layout, and applied
// only when generation, bounds, and slot alignment all line up.
TEST(ArenaRemoteFreeValidation, GenerationAndBoundsGateShadowWrites) {
  ThreadArena ta;
  std::vector<uint8_t> heap(kSlabBlockSize, 0);
  const Uuid uuid{1, 2};
  PuddleArena* pa = ta.AddPuddleArena(uuid, heap.data(), heap.size(), /*dir_slot=*/0);
  pa->claim_gen = 7;

  // One slab of the largest class (272 bytes → 14 slots) with slot 3 live.
  const int class_index = static_cast<int>(kNumSlabClasses) - 1;
  const int64_t slot_size = static_cast<int64_t>(kSlabSlotSizes[class_index]);
  auto* hdr = reinterpret_cast<SlabHeader*>(heap.data());
  hdr->magic = kSlabMagic;
  hdr->class_index = static_cast<uint16_t>(class_index);
  hdr->num_slots = static_cast<uint16_t>((kSlabBlockSize - sizeof(SlabHeader)) / slot_size);
  const uint16_t num_slots = hdr->num_slots;
  const uint64_t bitmap[2] = {1ULL << 3, 0};
  ta.AddSlab(pa, /*offset=*/0, bitmap, /*used=*/1, /*prev_chain_head=*/-1);
  const ArenaSlab* slab = ta.FindSlab(pa, 0);
  ASSERT_NE(slab, nullptr);
  const size_t free_before = ta.free_slot_count();
  const int64_t slot3 = static_cast<int64_t>(sizeof(SlabHeader)) + 3 * slot_size;
  auto occupancy = [&]() {
    uint64_t bits[2] = {slab->shadow[0], slab->shadow[1]};
    ClipToSlots(num_slots, bits);
    return bits[0];
  };

  // Published under an earlier claim of this (uuid, tag): not ours to apply.
  EXPECT_FALSE(ta.AcceptRemoteFree(uuid, pa->tag(), /*gen=*/6, slot3, /*epoch=*/0));
  EXPECT_EQ(slab->used, 1);

  // Matching claim but unresolvable offsets — misaligned, past the last
  // slot, inside the slab header, outside the heap — are stale duplicates:
  // consumed without touching shadow state.
  EXPECT_TRUE(ta.AcceptRemoteFree(uuid, pa->tag(), 7, slot3 + 5, 0));
  EXPECT_TRUE(ta.AcceptRemoteFree(
      uuid, pa->tag(), 7,
      static_cast<int64_t>(sizeof(SlabHeader)) + num_slots * slot_size, 0));
  EXPECT_TRUE(ta.AcceptRemoteFree(uuid, pa->tag(), 7, /*slot_offset=*/8, 0));
  EXPECT_TRUE(ta.AcceptRemoteFree(uuid, pa->tag(), 7,
                                  static_cast<int64_t>(kSlabBlockSize) + 64, 0));
  EXPECT_EQ(slab->used, 1);
  EXPECT_EQ(occupancy(), 1ULL << 3);
  EXPECT_EQ(ta.free_slot_count(), free_before);

  // The genuine record applies; a duplicate of it is inert.
  EXPECT_TRUE(ta.AcceptRemoteFree(uuid, pa->tag(), 7, slot3, 0));
  EXPECT_EQ(slab->used, 0);
  EXPECT_EQ(occupancy(), 0u);
  EXPECT_EQ(ta.free_slot_count(), free_before + 1);
  EXPECT_TRUE(ta.AcceptRemoteFree(uuid, pa->tag(), 7, slot3, 0));
  EXPECT_EQ(ta.free_slot_count(), free_before + 1);
}

// A slab that fills is forgotten — no record, no DRAM — and the first free
// into it re-creates the record with every other slot still used.
TEST(ArenaSlabRecords, FullSlabIsForgottenAndRecreatedOnFree) {
  ThreadArena ta;
  std::vector<uint8_t> heap(kSlabBlockSize, 0);
  PuddleArena* pa = ta.AddPuddleArena(Uuid{9, 9}, heap.data(), heap.size(), 0);
  const int class_index = static_cast<int>(kNumSlabClasses) - 1;
  auto* hdr = reinterpret_cast<SlabHeader*>(heap.data());
  hdr->magic = kSlabMagic;
  hdr->class_index = static_cast<uint16_t>(class_index);
  hdr->num_slots = static_cast<uint16_t>((kSlabBlockSize - sizeof(SlabHeader)) /
                                         kSlabSlotSizes[class_index]);
  const uint64_t empty[2] = {0, 0};
  ta.AddSlab(pa, 0, empty, 0, -1);

  std::vector<ThreadArena::AllocResult> pops(hdr->num_slots);
  for (auto& pop : pops) {
    ASSERT_TRUE(ta.TryAllocate(class_index, &pop));
  }
  ThreadArena::AllocResult extra;
  EXPECT_FALSE(ta.TryAllocate(class_index, &extra));
  EXPECT_EQ(ta.FindSlab(pa, 0), nullptr);  // Full: forgotten.
  EXPECT_EQ(ta.free_slot_count(), 0u);

  ta.ReleaseSlot(pa, 0, pops[5].slot);
  const ArenaSlab* slab = ta.FindSlab(pa, 0);
  ASSERT_NE(slab, nullptr);
  EXPECT_EQ(slab->used, hdr->num_slots - 1);
  EXPECT_EQ(ta.free_slot_count(), 1u);
  ThreadArena::AllocResult again;
  ASSERT_TRUE(ta.TryAllocate(class_index, &again));
  EXPECT_EQ(again.slot, pops[5].slot);
  EXPECT_EQ(ta.FindSlab(pa, 0), nullptr);
}

// Claim generations are monotonic per (uuid, tag): re-claiming a released
// directory slot bumps the generation, which is what invalidates queued
// remote frees published under the earlier claim.
TEST(ArenaManagerClaims, ReclaimBumpsGeneration) {
  auto mgr = std::make_shared<ArenaManager>();
  const Uuid uuid{3, 4};
  EXPECT_EQ(mgr->ClaimGenOf(uuid, /*tag=*/1), 0u);

  const uint64_t first = mgr->RegisterClaim(uuid, 1);
  EXPECT_NE(first, 0u);
  EXPECT_EQ(mgr->ClaimGenOf(uuid, 1), first);

  const uint64_t second = mgr->RegisterClaim(uuid, 1);
  EXPECT_GT(second, first);
  EXPECT_EQ(mgr->ClaimGenOf(uuid, 1), second);

  // Distinct tags and puddles track independently.
  const uint64_t other_tag = mgr->RegisterClaim(uuid, 2);
  EXPECT_GT(other_tag, second);
  EXPECT_EQ(mgr->ClaimGenOf(uuid, 1), second);
  EXPECT_EQ(mgr->ClaimGenOf(Uuid{5, 6}, 1), 0u);
}

}  // namespace
}  // namespace puddles
