// Epoch-based group commit (src/epoch; docs/epoch.md) on the full stack:
// durability modes, sync-before-ack, the bounded buffered window, shutdown
// drain, mode switching, and an 8-thread cross-epoch commit storm. The
// threaded tests run under the CI ThreadSanitizer job (`ctest -L
// concurrency`); the crash-atomicity half of the contract — an epoch torn by
// power failure rolls back whole, never a prefix — is crashsim's job
// (tests/crashsim_test.cc, `epoch` workload).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/daemon/client.h"
#include "src/daemon/daemon.h"
#include "src/libpuddles/libpuddles.h"
#include "src/stats/stats.h"

namespace puddles {
namespace {

namespace fs = std::filesystem;

constexpr int kThreads = 8;
constexpr uint64_t kCellsPerThread = 512;
constexpr uint64_t kChunk = 64;

struct Shard {
  uint64_t* cells[kThreads];
  uint64_t committed_rounds[kThreads];
};

class EpochTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("epoch_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    (void)TypeRegistry::Instance().Register<Shard>(&Shard::cells);
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
    auto pool = create ? runtime_->CreatePool("epoch") : runtime_->OpenPool("epoch");
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    pool_ = *pool;
  }

  // Daemon restart: recovery runs before any remap. The previous runtime's
  // destructor stops the epoch advancer (draining any open epoch) first.
  void Reopen() {
    runtime_.reset();
    daemon_.reset();
    Start(/*create=*/false);
  }

  Shard* InitShard() {
    Shard* shard = nullptr;
    EXPECT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(shard, tx.Alloc<Shard>());
      for (int t = 0; t < kThreads; ++t) {
        ASSIGN_OR_RETURN(shard->cells[t], tx.Alloc<uint64_t>(kCellsPerThread));
        for (uint64_t i = 0; i < kCellsPerThread; ++i) {
          shard->cells[t][i] = 0;
        }
        shard->committed_rounds[t] = 0;
      }
      return pool_->SetRoot(shard);
    }).ok());
    return shard;
  }

  Shard* Root() {
    auto root = pool_->Root<Shard>();
    EXPECT_TRUE(root.ok()) << root.status().ToString();
    return root.ok() ? *root : nullptr;
  }

  fs::path dir_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<Runtime> runtime_;
  Pool* pool_ = nullptr;
};

// One round for thread t: chunk transactions over its slice, each adding
// (t+1), then a committed-rounds bump — the Fig. 12 shape.
void RunRound(Pool& pool, Shard* shard, int t) {
  uint64_t* cells = shard->cells[t];
  for (uint64_t at = 0; at < kCellsPerThread; at += kChunk) {
    ASSERT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(tx.LogRange(&cells[at], kChunk * sizeof(uint64_t)));
      for (uint64_t i = at; i < at + kChunk; ++i) {
        cells[i] += static_cast<uint64_t>(t) + 1;
      }
      return OkStatus();
    }).ok());
  }
  ASSERT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogRange(&shard->committed_rounds[t], sizeof(uint64_t)));
    shard->committed_rounds[t]++;
    return OkStatus();
  }).ok());
}

void ExpectRound(Shard* shard, int t, uint64_t rounds) {
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->committed_rounds[t], rounds) << "thread " << t;
  for (uint64_t i = 0; i < kCellsPerThread; ++i) {
    ASSERT_EQ(shard->cells[t][i], rounds * (static_cast<uint64_t>(t) + 1))
        << "thread " << t << " cell " << i;
  }
}

// Sync() must not return before the open epoch is closed and persistently
// retired: afterwards the retired epoch has reached the one the round joined
// and a daemon restart recovers every synced transaction.
TEST_F(EpochTest, SyncRetiresBeforeReturning) {
  Shard* shard = InitShard();
  // A huge window: nothing closes the epoch except the Sync under test.
  EpochOptions options;
  options.max_epoch_age_us = 60 * 1000 * 1000;
  options.max_staged_bytes = 1ULL << 40;
  options.max_epoch_txs = 1ULL << 40;
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch, options).ok());

  EpochSys* epochs = runtime_->epoch_sys();
  ASSERT_NE(epochs, nullptr);
  const uint64_t retired_before = epochs->retired_epoch();
  const stats::Snapshot before = stats::Aggregate();
  RunRound(*pool_, shard, 0);
  const uint64_t joined = epochs->current_epoch();  // Only the Sync closes it.
  pool_->Sync();
  EXPECT_GT(joined, retired_before);
  EXPECT_GE(epochs->retired_epoch(), joined);
  EXPECT_GT(stats::Aggregate().counter(stats::Counter::kEpochTxs),
            before.counter(stats::Counter::kEpochTxs));

  Reopen();
  ExpectRound(Root(), 0, 1);
}

// Sync-on-demand for one transaction: Run then Sync — the "this one must be
// durable before we ack" idiom. Sync covers every commit made before it.
TEST_F(EpochTest, SyncAfterRunMakesItDurable) {
  Shard* shard = InitShard();
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch).ok());
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogRange(&shard->committed_rounds[1], sizeof(uint64_t)));
    shard->committed_rounds[1] = 7;
    return OkStatus();
  }).ok());
  pool_->Sync();
  Reopen();
  Shard* reopened = Root();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->committed_rounds[1], 7u);
}

// The bounded buffered window: with no Sync at all, the advancer must close
// the epoch on its own once it exceeds max_epoch_age_us.
TEST_F(EpochTest, TimerClosesEpochWithoutSync) {
  Shard* shard = InitShard();
  EpochOptions options;
  options.max_epoch_age_us = 2000;  // 2 ms window.
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch, options).ok());

  EpochSys* epochs = runtime_->epoch_sys();
  ASSERT_NE(epochs, nullptr);
  const uint64_t retired_before = epochs->retired_epoch();
  RunRound(*pool_, shard, 2);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (epochs->retired_epoch() > retired_before) {
      return;  // Advancer closed the dirty epoch on the age threshold.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "epoch never closed on the age threshold";
}

// Clean shutdown must drain: committed-but-unsynced transactions survive a
// runtime/daemon restart because the advancer closes the dirty epoch on Stop.
TEST_F(EpochTest, ShutdownDrainsOpenEpoch) {
  Shard* shard = InitShard();
  EpochOptions options;
  options.max_epoch_age_us = 60 * 1000 * 1000;
  options.max_staged_bytes = 1ULL << 40;
  options.max_epoch_txs = 1ULL << 40;
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch, options).ok());
  RunRound(*pool_, shard, 3);
  // No Sync: the epoch is still open when the runtime is torn down.
  Reopen();
  ExpectRound(Root(), 3, 1);
}

// Switching back to immediate durability quiesces the thread's epoch port
// (waits out the pending epoch, rearms the log) before the next immediate
// transaction; both modes' writes must survive recovery.
TEST_F(EpochTest, DurabilitySwitchQuiesces) {
  Shard* shard = InitShard();
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch).ok());
  RunRound(*pool_, shard, 4);
  pool_->Sync();
  ASSERT_TRUE(pool_->SetDurability(Durability::kImmediate).ok());
  RunRound(*pool_, shard, 4);  // Same slice again, immediate mode.
  ExpectRound(shard, 4, 2);
  Reopen();
  ExpectRound(Root(), 4, 2);
}

// Aborts in epoch mode roll back in memory immediately and stay rolled back
// across recovery (their undo entries replay idempotently if the epoch was
// not yet retired — never against post-epoch state).
TEST_F(EpochTest, AbortRollsBackInEpochMode) {
  Shard* shard = InitShard();
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch).ok());
  RunRound(*pool_, shard, 5);
  auto status = pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogRange(shard->cells[5], kChunk * sizeof(uint64_t)));
    for (uint64_t i = 0; i < kChunk; ++i) {
      shard->cells[5][i] = 0xdead;
    }
    return InternalError("deliberate abort");
  });
  EXPECT_FALSE(status.ok());
  pool_->Sync();
  ExpectRound(shard, 5, 1);
  Reopen();
  ExpectRound(Root(), 5, 1);
}

// The TSan-tier storm: 8 threads commit across many epochs concurrently —
// ports join/leave epochs, splice batches into the advancer, and block on
// publish tickets while the advancer closes epochs under them. One fence per
// epoch must serve every thread: fences/tx stays far below the >= 2 of
// immediate mode, and a restart recovers every round.
TEST_F(EpochTest, EightThreadsAcrossEpochs) {
  Shard* shard = InitShard();
  EpochOptions options;
  options.max_epoch_age_us = 500;  // Many epoch closes during the storm.
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch, options).ok());

  constexpr int kRounds = 6;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, shard, t] {
      for (int r = 0; r < kRounds; ++r) {
        RunRound(*pool_, shard, t);
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  pool_->Sync();
  for (int t = 0; t < kThreads; ++t) {
    ExpectRound(shard, t, kRounds);
  }
  EXPECT_GT(runtime_->epoch_sys()->retired_epoch(), 0u);
  const stats::Snapshot snap = stats::Aggregate();
  EXPECT_GT(snap.counter(stats::Counter::kEpochTxs),
            snap.counter(stats::Counter::kEpochAdvanced))
      << "group commit amortized nothing: fewer txs than epochs";

  Reopen();
  for (int t = 0; t < kThreads; ++t) {
    ExpectRound(Root(), t, kRounds);
  }
}

}  // namespace
}  // namespace puddles
