// End-to-end tests of the Libpuddles runtime over an embedded daemon: pools,
// typed allocation, roots, typed transaction contexts (pool.Run + Tx,
// DESIGN.md §9), persistence across process "restarts", cross-pool
// transactions, and on-demand fault mapping.
#include <gtest/gtest.h>
#include <unistd.h>

#include <deque>
#include <filesystem>

#include "src/libpuddles/fault_router.h"
#include "src/libpuddles/libpuddles.h"
#include "src/pmem/global_space.h"

namespace puddles {

struct ListNode {
  ListNode* next;
  uint64_t value;
};

struct ListHead {
  ListNode* head;
  ListNode* tail;
  uint64_t count;
};

void RegisterListTypes() {
  static bool done = [] {
    PUDDLES_TYPE(ListNode, &ListNode::next);
    PUDDLES_TYPE(ListHead, &ListHead::head, &ListHead::tail);
    return true;
  }();
  (void)done;
}

namespace {

namespace fs = std::filesystem;

// One T holding `init`, allocated and committed in a transaction of its own.
template <typename T>
T* NewCommitted(Pool& pool, const T& init) {
  T* object = nullptr;
  EXPECT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(object, tx.Alloc<T>());
    *object = init;
    return OkStatus();
  }).ok());
  return object;
}

class RuntimePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterListTypes();
    root_ = fs::temp_directory_path() /
            ("runtime_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    StartStack();
  }

  void TearDown() override {
    runtime_.reset();
    daemon_.reset();
    fs::remove_all(root_);
  }

  void StartStack() {
    auto daemon = puddled::Daemon::Start({.root_dir = root_.string()});
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(*daemon);
    auto runtime = Runtime::Create(
        std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    runtime_ = std::move(*runtime);
  }

  // Simulates a clean process restart: tear down client state and daemon,
  // then bring both back over the same root.
  void RestartStack() {
    runtime_.reset();
    daemon_.reset();
    StartStack();
  }

  fs::path root_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<Runtime> runtime_;
};

TEST_F(RuntimePoolTest, CreatePoolAndAllocate) {
  auto pool = runtime_->CreatePool("p1");
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();

  ListNode* node = NewCommitted(**pool, ListNode{nullptr, 42});
  ASSERT_NE(node, nullptr);
  EXPECT_GE(reinterpret_cast<uintptr_t>(node), pmem::GlobalPuddleSpace().base());
  EXPECT_EQ((*pool)->member_count(), 1u);
}

TEST_F(RuntimePoolTest, RootSurvivesRestart) {
  {
    auto pool = runtime_->CreatePool("p1");
    ASSERT_TRUE(pool.ok());
    ListHead* head = NewCommitted(**pool, ListHead{nullptr, nullptr, 7});
    ASSERT_TRUE((*pool)->SetRoot(head).ok());
  }
  RestartStack();
  auto pool = runtime_->OpenPool("p1");
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  auto root = (*pool)->Root<ListHead>();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ((*root)->count, 7u);
}

TEST_F(RuntimePoolTest, TransactionalListAppend) {
  auto pool_result = runtime_->CreatePool("list");
  ASSERT_TRUE(pool_result.ok());
  Pool& pool = **pool_result;

  // Build the list head inside a transaction (Fig. 8 pattern, typed form).
  ASSERT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(ListHead * head, tx.Alloc<ListHead>());
    head->head = nullptr;
    head->tail = nullptr;
    head->count = 0;
    return pool.SetRoot(head);
  }).ok());

  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(ListHead * head, pool.Root<ListHead>());
      ASSIGN_OR_RETURN(ListNode * node, tx.Alloc<ListNode>());
      node->value = i;
      node->next = nullptr;
      RETURN_IF_ERROR(tx.Log(head));
      if (head->tail == nullptr) {
        head->head = node;
      } else {
        RETURN_IF_ERROR(tx.LogField(head->tail, &ListNode::next));
        head->tail->next = node;
      }
      head->tail = node;
      head->count++;
      return OkStatus();
    }).ok()) << i;
  }

  ListHead* head = *pool.Root<ListHead>();
  EXPECT_EQ(head->count, 100u);
  uint64_t sum = 0, expected = 0, n = 0;
  for (ListNode* node = head->head; node != nullptr; node = node->next) {
    sum += node->value;
    ++n;
  }
  for (uint64_t i = 0; i < 100; ++i) {
    expected += i;
  }
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(sum, expected);
}

TEST_F(RuntimePoolTest, AbortRollsBackListMutation) {
  auto pool_result = runtime_->CreatePool("list");
  ASSERT_TRUE(pool_result.ok());
  Pool& pool = **pool_result;

  ASSERT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(ListHead * head, tx.Alloc<ListHead>());
    head->head = nullptr;
    head->tail = nullptr;
    head->count = 5;
    return pool.SetRoot(head);
  }).ok());

  // A non-OK return aborts: the callback's status comes back verbatim and
  // the undo log rolls the mutation back.
  puddles::Status aborted = pool.Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(ListHead * head, pool.Root<ListHead>());
    RETURN_IF_ERROR(tx.Log(head));
    head->count = 999;
    return AbortedError("caller changed its mind");
  });
  EXPECT_EQ(aborted.code(), StatusCode::kAborted);

  EXPECT_EQ((*pool.Root<ListHead>())->count, 5u);
}

TEST_F(RuntimePoolTest, FreeInsideTxIsDeferredAndRollbackSafe) {
  auto pool_result = runtime_->CreatePool("p");
  ASSERT_TRUE(pool_result.ok());
  Pool& pool = **pool_result;

  ListNode* node = NewCommitted(pool, ListNode{nullptr, 123});

  // Aborted free: object must survive with contents intact.
  puddles::Status aborted = pool.Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.Free(node));
    EXPECT_EQ(node->value, 123u) << "free is deferred: bytes untouched inside tx";
    return AbortedError("roll the free back");
  });
  EXPECT_EQ(aborted.code(), StatusCode::kAborted);
  EXPECT_EQ(node->value, 123u);

  // Committed free: object is gone; allocation can reuse the slot.
  ASSERT_TRUE(pool.Run([&](Tx& tx) { return tx.Free(node); }).ok());
  ListNode* reused = NewCommitted(pool, ListNode{nullptr, 0});
  EXPECT_EQ(reused, node) << "slab slot should be reusable after committed free";
}

TEST_F(RuntimePoolTest, PoolGrowsAcrossPuddles) {
  auto pool_result = runtime_->CreatePool("big");
  ASSERT_TRUE(pool_result.ok());
  Pool& pool = **pool_result;

  // Allocate far more than one 2 MiB puddle of 1 KiB objects.
  constexpr int kCount = 4000;
  std::vector<void*> objects;
  for (int i = 0; i < kCount; ++i) {
    puddles::Status allocated = pool.Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(void* obj, tx.AllocBytes(1024, kRawBytesTypeId));
      objects.push_back(obj);
      return OkStatus();
    });
    ASSERT_TRUE(allocated.ok()) << "allocation " << i << ": " << allocated.ToString();
  }
  EXPECT_GT(pool.member_count(), 1u) << "pool must span puddles (§3.1)";

  // All objects distinct and writable.
  std::sort(objects.begin(), objects.end());
  EXPECT_EQ(std::adjacent_find(objects.begin(), objects.end()), objects.end());
  std::memset(objects[kCount / 2], 0xaa, 1024);
}

// In-transaction frees of global-heap objects (above the 272-byte arena
// limit) must let allocation return to the puddle they freed space in. A
// sliding window of live objects larger than one puddle then stays within a
// bounded set of puddles instead of growing the pool on every pass.
TEST_F(RuntimePoolTest, TxFreedSpaceIsReusedAcrossPuddles) {
  auto pool_result = runtime_->CreatePool("churn");
  ASSERT_TRUE(pool_result.ok());
  Pool& pool = **pool_result;
  constexpr size_t kObject = 60 * 1024;  // One 64 KiB buddy block with its header.
  constexpr size_t kLive = 40;           // 2.5 MiB live: more than one puddle.
  constexpr int kSteps = 400;            // 25 MiB allocated over the run.
  std::deque<void*> live;
  for (int step = 0; step < kSteps; ++step) {
    ASSERT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(void* p, tx.AllocBytes(kObject, kRawBytesTypeId));
      live.push_back(p);
      if (live.size() > kLive) {
        RETURN_IF_ERROR(tx.FreeBytes(live.front()));
        live.pop_front();
      }
      return OkStatus();
    }).ok()) << "step " << step;
  }
  EXPECT_LE(pool.member_count(), 3u);
}

TEST_F(RuntimePoolTest, OnDemandMappingViaFault) {
  Uuid second_puddle;
  uintptr_t probe_addr = 0;
  {
    auto pool_result = runtime_->CreatePool("lazy");
    ASSERT_TRUE(pool_result.ok());
    Pool& pool = **pool_result;
    // Force a second puddle and remember an address inside it.
    while (pool.member_count() < 2) {
      ASSERT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
        ASSIGN_OR_RETURN(void* obj, tx.AllocBytes(64 * 1024, kRawBytesTypeId));
        std::memset(obj, 0x5d, 64 * 1024);
        probe_addr = reinterpret_cast<uintptr_t>(obj);
        return OkStatus();
      }).ok());
    }
  }

  RestartStack();
  auto pool = runtime_->OpenPool("lazy");
  ASSERT_TRUE(pool.ok());

  auto before = FaultRouter::Instance().stats();
  // Touch the address directly: the puddle is registered but unmapped, so
  // this access faults and the router maps it on demand (§4.2).
  auto* bytes = reinterpret_cast<volatile uint8_t*>(probe_addr);
  EXPECT_EQ(bytes[0], 0x5d);
  EXPECT_EQ(bytes[100], 0x5d);
  auto after = FaultRouter::Instance().stats();
  EXPECT_GT(after.faults_handled, before.faults_handled)
      << "access must have been served by the fault router";
  (void)second_puddle;
}

TEST_F(RuntimePoolTest, CrossPoolTransaction) {
  // "unlike PMDK, they support writing to any arbitrary PM data and are not
  // limited to a single pool" (§3.6).
  auto pool_a = runtime_->CreatePool("a");
  auto pool_b = runtime_->CreatePool("b");
  ASSERT_TRUE(pool_a.ok() && pool_b.ok());

  ListNode* in_a = NewCommitted(**pool_a, ListNode{nullptr, 1});
  ListNode* in_b = NewCommitted(**pool_b, ListNode{nullptr, 2});

  ASSERT_TRUE((*pool_a)->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.Log(in_a));
    RETURN_IF_ERROR(tx.Log(in_b));  // Data from a different pool, same transaction.
    in_a->value = 10;
    in_b->value = 20;
    // Cross-pool pointer (§3.4: single persistent space makes this legal).
    RETURN_IF_ERROR(tx.LogField(in_a, &ListNode::next));
    in_a->next = in_b;
    return OkStatus();
  }).ok());

  EXPECT_EQ(in_a->value, 10u);
  EXPECT_EQ(in_b->value, 20u);
  EXPECT_EQ(in_a->next, in_b);

  // Abort path across pools.
  puddles::Status aborted = (*pool_b)->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.Log(in_a));
    RETURN_IF_ERROR(tx.Log(in_b));
    in_a->value = 111;
    in_b->value = 222;
    return AbortedError("cross-pool abort");
  });
  EXPECT_EQ(aborted.code(), StatusCode::kAborted);
  EXPECT_EQ(in_a->value, 10u);
  EXPECT_EQ(in_b->value, 20u);
}

TEST_F(RuntimePoolTest, ReadOnlyOpenRejectsWrites) {
  {
    auto pool = runtime_->CreatePool("ro", 0644);
    ASSERT_TRUE(pool.ok());
    ListNode* n = NewCommitted(**pool, ListNode{nullptr, 9});
    ASSERT_TRUE((*pool)->SetRoot(n).ok());
  }
  RestartStack();
  auto pool = runtime_->OpenPool("ro", /*writable=*/false);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  auto root = (*pool)->Root<ListNode>();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->value, 9u);
  EXPECT_EQ((*pool)->Run([](Tx& tx) { return tx.Alloc<ListNode>().status(); }).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RuntimePoolTest, RedoSetAppliesAtCommit) {
  auto pool_result = runtime_->CreatePool("redo");
  ASSERT_TRUE(pool_result.ok());
  Pool& pool = **pool_result;

  ListHead* head = NewCommitted(pool, ListHead{nullptr, nullptr, 1});

  ASSERT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.Set(&head->count, uint64_t{2}));
    EXPECT_EQ(head->count, 1u) << "redo defers until commit (Fig. 7)";
    return OkStatus();
  }).ok());
  EXPECT_EQ(head->count, 2u);
}

}  // namespace
}  // namespace puddles
