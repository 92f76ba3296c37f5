// Multi-threaded transactions on a shared pool — the Fig. 12 shape promoted
// from a benchmark to a correctness gate. N threads run many small
// transactions concurrently against one pool (thread-local logs created
// lazily on each thread's first pool.Run, commits fully concurrent), then the
// daemon is shut down and restarted: recovery must land every committed
// increment and none of the aborted ones, and the reopened pool must accept
// new concurrent transactions from fresh threads.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/daemon/client.h"
#include "src/daemon/daemon.h"
#include "src/libpuddles/libpuddles.h"
#include "src/pmem/mapped_file.h"
#include "src/puddles/pool_meta.h"

namespace puddles {
namespace {

namespace fs = std::filesystem;

constexpr int kThreads = 4;
constexpr uint64_t kCellsPerThread = 2048;
constexpr uint64_t kChunk = 128;  // Cells undo-logged per transaction.
constexpr int kRoundsPerThread = 24;

struct Shard {
  uint64_t* cells[kThreads];
  uint64_t committed_rounds[kThreads];
};

class TxConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tx_concurrency_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // The pointer array registers as one repeat region; its count comes
    // from the member's extent (kThreads), not a hand-maintained list.
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
    auto pool = create ? runtime_->CreatePool("fig12") : runtime_->OpenPool("fig12");
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    pool_ = *pool;
  }

  // Daemon restart: application-independent recovery runs before any remap.
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

  fs::path dir_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<Runtime> runtime_;
  Pool* pool_ = nullptr;
};

// One round for thread t: chunk-sized transactions across its whole slice
// (the Fig. 12 access pattern), each adding (t+1) to every cell.
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

// An aborted round: same stores, rolled back via the undo log. Nothing from
// it may survive — neither in memory nor across recovery.
void RunAbortedRound(Pool& pool, Shard* shard, int t) {
  uint64_t* cells = shard->cells[t];
  puddles::Status aborted = pool.Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogRange(&cells[0], kChunk * sizeof(uint64_t)));
    for (uint64_t i = 0; i < kChunk; ++i) {
      cells[i] += 0xDEAD;
    }
    return AbortedError("aborted round");
  });
  ASSERT_EQ(aborted.code(), StatusCode::kAborted);
}

TEST_F(TxConcurrencyTest, ConcurrentCommitsSurviveReopen) {
  Shard* shard = InitShard();
  ASSERT_NE(shard, nullptr);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, shard, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        RunRound(*pool_, shard, t);
        if (round % 5 == 4) {
          RunAbortedRound(*pool_, shard, t);
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }

  // In-memory result before the restart.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(shard->committed_rounds[t], static_cast<uint64_t>(kRoundsPerThread));
    const uint64_t expected = static_cast<uint64_t>(kRoundsPerThread) *
                              (static_cast<uint64_t>(t) + 1);
    for (uint64_t i = 0; i < kCellsPerThread; ++i) {
      ASSERT_EQ(shard->cells[t][i], expected) << "t=" << t << " i=" << i;
    }
  }

  Reopen();

  // Every committed transaction from every thread-local log survived; no
  // aborted stores resurface.
  auto root = pool_->Root<Shard>();
  ASSERT_TRUE(root.ok());
  Shard* recovered = *root;
  ASSERT_NE(recovered, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(recovered->committed_rounds[t], static_cast<uint64_t>(kRoundsPerThread));
    const uint64_t expected = static_cast<uint64_t>(kRoundsPerThread) *
                              (static_cast<uint64_t>(t) + 1);
    for (uint64_t i = 0; i < kCellsPerThread; ++i) {
      ASSERT_EQ(recovered->cells[t][i], expected) << "t=" << t << " i=" << i;
    }
  }

  // The reopened pool takes concurrent transactions from brand-new threads
  // (fresh thread-local logs on a recovered daemon).
  std::vector<std::thread> after;
  for (int t = 0; t < kThreads; ++t) {
    after.emplace_back([this, recovered, t] { RunRound(*pool_, recovered, t); });
  }
  for (auto& worker : after) {
    worker.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(recovered->committed_rounds[t], static_cast<uint64_t>(kRoundsPerThread) + 1);
  }
}

// A family of distinct registered types for the pointer-map recording race.
template <int N>
struct Probe {
  Probe* next;
  uint64_t pad[N + 1];
};

template <int N>
puddles::Status AllocProbe(Tx& tx) {
  return tx.Alloc<Probe<N>>().status();
}

template <int... N>
std::array<puddles::Status (*)(Tx&), sizeof...(N)> RegisterProbes(
    std::integer_sequence<int, N...>) {
  (..., (void)TypeRegistry::Instance().Register<Probe<N>>(&Probe<N>::next));
  return {&AllocProbe<N>...};
}

// A type's first allocation in a pool records its pointer map under the
// allocation lock, while every later allocation's "already recorded?" check
// reads the pool's set without one. Threads that allocate the same fresh
// types at once must record each map exactly once (TSan checks the lock-free
// reads against the appends).
TEST_F(TxConcurrencyTest, FirstAllocationsRecordEachPointerMapOnce) {
  constexpr int kTypes = 12;
  const auto alloc = RegisterProbes(std::make_integer_sequence<int, kTypes>());
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t, &alloc, &ready] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int round = 0; round < 2 * kTypes; ++round) {
        const int type = (t * 5 + round) % kTypes;
        ASSERT_TRUE(pool_->Run([&](Tx& tx) { return alloc[type](tx); }).ok());
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }

  // The pool meta holds one record per type (a one-page segment holds them).
  auto file = pmem::PmemFile::Open(daemon_->PuddlePath(pool_->info().meta_puddle));
  ASSERT_TRUE(file.ok());
  auto base = file->Map();
  ASSERT_TRUE(base.ok());
  auto segment = Puddle::Attach(*base, file->size());
  ASSERT_TRUE(segment.ok());
  auto meta = PoolMetaView::Attach(pool_->info().meta_puddle,
                                   [&](const Uuid&) -> puddles::Result<Puddle> { return *segment; });
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  std::set<uint64_t> recorded;
  for (uint32_t i = 0; i < meta->num_ptr_maps(); ++i) {
    recorded.insert(meta->ptr_map(i).type_id);
  }
  EXPECT_EQ(meta->num_ptr_maps(), static_cast<uint32_t>(kTypes));
  EXPECT_EQ(recorded.size(), static_cast<size_t>(kTypes));
}

}  // namespace
}  // namespace puddles
