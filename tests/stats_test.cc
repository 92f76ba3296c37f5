// Telemetry subsystem tests: histogram correctness against a sorted-vector
// oracle, exact multi-threaded aggregation of per-thread counters and the
// shared histograms (run under TSan in CI's concurrency job), what a thread
// costs in telemetry, the PersistObserver/stats double-hook contract, timers
// sampled by whole operation beside exact counters, and the daemon STATS
// opcode.
#include "src/stats/stats.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/daemon/client.h"
#include "src/daemon/daemon.h"
#include "src/daemon/protocol.h"
#include "src/libpuddles/libpuddles.h"
#include "src/pmem/flush.h"
#include "src/stats/histogram.h"

namespace puddles {
namespace stats {
namespace {

// Deterministic 64-bit LCG (MMIX constants): the tests need a value stream,
// not statistical quality.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }

 private:
  uint64_t state_;
};

// Mirrors Histogram::ValueAtPercentile's target-rank rule on raw samples.
uint64_t OraclePercentile(std::vector<uint64_t> sorted, double p) {
  const uint64_t count = sorted.size();
  uint64_t target = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count) + 0.5);
  if (target == 0) target = 1;
  if (target > count) target = count;
  return sorted[target - 1];
}

TEST(BucketScale, SmallValuesExactAndBoundsInvert) {
  for (uint64_t v = 0; v < BucketScale::kSubBuckets; ++v) {
    EXPECT_EQ(BucketScale::BucketFor(v), v);
    EXPECT_EQ(BucketScale::BucketLowerBound(v), v);
    EXPECT_EQ(BucketScale::BucketMidpoint(v), v);
  }
  // Every bucket's lower bound maps back to that bucket, and bucket indexes
  // are monotonic in the value.
  for (size_t b = 0; b < BucketScale::kNumBuckets - 1; ++b) {
    const uint64_t lo = BucketScale::BucketLowerBound(b);
    EXPECT_EQ(BucketScale::BucketFor(lo), b) << "bucket " << b;
  }
  EXPECT_LT(BucketScale::BucketFor(999), BucketScale::BucketFor(100000));
  EXPECT_EQ(BucketScale::BucketFor(~0ULL), BucketScale::kNumBuckets - 1);
}

TEST(Histogram, PercentilesMatchSortedVectorOracle) {
  Histogram hist;
  std::vector<uint64_t> values;
  Lcg rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Mix of octaves: ~100ns..10ms-scale latencies plus a heavy tail.
    uint64_t v = 100 + rng.Next() % 1000;
    if (i % 100 == 0) v = 100000 + rng.Next() % 10000000;
    values.push_back(v);
    hist.Record(v);
  }
  ASSERT_EQ(hist.count(), values.size());
  uint64_t sum = 0, max = 0;
  for (uint64_t v : values) {
    sum += v;
    max = std::max(max, v);
  }
  EXPECT_EQ(hist.sum(), sum);
  EXPECT_EQ(hist.max(), max);

  std::sort(values.begin(), values.end());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const uint64_t oracle = OraclePercentile(values, p);
    const uint64_t approx = hist.ValueAtPercentile(p);
    // Log-bucket quantization: 1/32 bucket width, halved by the midpoint
    // representative — 4% covers it with margin.
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(oracle),
                static_cast<double>(oracle) * 0.04 + 1.0)
        << "p" << p;
  }
}

TEST(Histogram, MergeEqualsRecordingEverythingInOne) {
  Histogram a, b, combined;
  Lcg rng(7);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = 1 + rng.Next() % 1000000;
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.max(), combined.max());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(a.ValueAtPercentile(p), combined.ValueAtPercentile(p)) << "p" << p;
  }
}

TEST(Histogram, AtomicMergeIntoIsExact) {
  AtomicHistogram atomic;
  Histogram plain;
  Lcg rng(99);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t v = rng.Next() % 100000;
    atomic.Record(v);
    plain.Record(v);
  }
  Histogram out;
  atomic.MergeInto(&out);
  EXPECT_EQ(out.count(), plain.count());
  EXPECT_EQ(out.sum(), plain.sum());
  EXPECT_EQ(out.max(), plain.max());
  EXPECT_EQ(out.p99(), plain.p99());
}

TEST(Clocks, TicksConvertToPlausibleNanos) {
  const uint64_t t0 = NowTicks();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t elapsed_ns = TicksToNanos(NowTicks() - t0);
  EXPECT_GT(elapsed_ns, 10u * 1000 * 1000);   // > 10 ms
  EXPECT_LT(elapsed_ns, 10ULL * 1000 * 1000 * 1000);  // < 10 s
}

// 8 writer threads hammer their counters through the same TLS fast path
// production code uses, and one shared histogram; after join, Aggregate()
// must be EXACT (the retire-on-thread-exit fold plus live-slot sums lose no
// count, and no concurrent record is lost). This test is the TSan witness
// for the relaxed-atomics design.
TEST(ThreadedAggregation, SnapshotEqualsSumAfterJoin) {
  ResetForTesting();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  const Snapshot before = Aggregate();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        Add(Counter::kTxBegin, 1);
        Add(Counter::kLogBytes, 64);
        if (i % 3 == 0) {
          Add(Counter::kTxAbort, 1);
        }
        Record(Hist::kTxCommitTicks, 100 + (i % 1000));
        AddDaemonOp(static_cast<uint32_t>(t) % kMaxDaemonOps);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  const Snapshot delta = Delta(Aggregate(), before);
  EXPECT_EQ(delta.counter(Counter::kTxBegin), kThreads * kPerThread);
  EXPECT_EQ(delta.counter(Counter::kLogBytes), kThreads * kPerThread * 64);
  // i % 3 == 0 hits for i in {0, 3, ...}: ceil(kPerThread / 3) per thread.
  EXPECT_EQ(delta.counter(Counter::kTxAbort), kThreads * ((kPerThread + 2) / 3));
  const Histogram& hist = delta.hist(Hist::kTxCommitTicks);
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) {
    expected_sum += 100 + (i % 1000);
  }
  EXPECT_EQ(hist.sum(), kThreads * expected_sum);
  uint64_t op_total = 0;
  for (size_t i = 0; i < kMaxDaemonOps; ++i) {
    op_total += delta.daemon_ops[i];
  }
  EXPECT_EQ(op_total, kThreads * kPerThread);
  // All 8 writers have exited; their totals live in the retired accumulator.
  EXPECT_GE(Aggregate().retired_threads, static_cast<uint64_t>(kThreads));
}

// ---- What a thread costs in telemetry: its counters, nothing more. ----

// Heap bytes in use, as mallinfo2 reports them.
int64_t HeapInUse() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

// False where mallinfo2 does not see the allocator (ASan and TSan replace it).
bool MallinfoSeesHeap() {
  const int64_t before = HeapInUse();
  void* volatile probe = std::malloc(1 << 16);
  const bool seen = HeapInUse() - before >= (1 << 16);
  std::free(probe);
  return seen;
}

// The histograms are process-wide, so a thread's slot is its counters.
TEST(ThreadCost, SlotHoldsOnlyCounters) { EXPECT_LE(sizeof(ThreadSlot), 1024u); }

// A live thread that has bumped a counter and recorded into every histogram
// holds under 1 KiB of heap for it, and its samples are in Aggregate() while
// it lives and after it exits.
TEST(ThreadCost, LiveThreadAddsUnderOneKiBAndItsSamplesOutliveIt) {
  const bool heap_seen = MallinfoSeesHeap();
  const Snapshot before = Aggregate();
  std::mutex mu;
  std::condition_variable cv;
  bool recorded = false;
  bool release = false;
  int64_t heap_added = 0;
  std::thread thread([&] {
    // The thread's own allocator state (its arena and cache) outside the measure.
    void* volatile warm = std::malloc(64);
    std::free(warm);
    const int64_t heap_before = HeapInUse();
    Add(Counter::kTxBegin, 1);
    for (size_t h = 0; h < kNumHists; ++h) {
      Record(static_cast<Hist>(h), 1000 + h);
    }
    heap_added = HeapInUse() - heap_before;
    std::unique_lock<std::mutex> lock(mu);
    recorded = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return recorded; });
  }
  const Snapshot live = Aggregate();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  thread.join();
  const Snapshot exited = Aggregate();

  if (heap_seen) {
    EXPECT_LT(heap_added, 1024) << "heap held for one thread's telemetry";
  }
  EXPECT_EQ(live.live_threads, before.live_threads + 1);
  EXPECT_EQ(exited.live_threads, before.live_threads);
  EXPECT_EQ(exited.retired_threads, before.retired_threads + 1);
  for (const Snapshot* now : {&live, &exited}) {
    const Snapshot delta = Delta(*now, before);
    EXPECT_EQ(delta.counter(Counter::kTxBegin), 1u);
    for (size_t h = 0; h < kNumHists; ++h) {
      const Histogram& hist = delta.hist(static_cast<Hist>(h));
      EXPECT_EQ(hist.count(), 1u) << HistName(static_cast<Hist>(h));
      EXPECT_EQ(hist.sum(), 1000 + h) << HistName(static_cast<Hist>(h));
    }
  }
}

// A PersistObserver and the stats counters hook the same Flush/Fence stream;
// both must see it, and hooking one must not disturb the other (observer
// callbacks fire once per call and match the ReadPersistStats deltas, which
// are read from the stats slots).
class CountingObserver : public pmem::PersistObserver {
 public:
  void OnFlushRange(const void*, size_t) override { ++flush_ranges_; }
  void OnFence() override { ++fences_; }
  uint64_t flush_ranges_ = 0;
  uint64_t fences_ = 0;
};

TEST(DoubleHook, ObserverAndStatsCountTheSameStream) {
  alignas(64) static uint8_t buffer[1024];
  CountingObserver observer;
  const pmem::PersistStats persist_before = pmem::ReadPersistStats();

  pmem::SetPersistObserver(&observer);
  for (int i = 0; i < 10; ++i) {
    pmem::Flush(buffer, sizeof(buffer));
    pmem::Fence();
  }
  pmem::SetPersistObserver(nullptr);

  const pmem::PersistStats persist_after = pmem::ReadPersistStats();
  EXPECT_EQ(observer.flush_ranges_, 10u);
  EXPECT_EQ(observer.fences_, 10u);
  EXPECT_EQ(persist_after.flush_calls - persist_before.flush_calls, 10u);
  EXPECT_EQ(persist_after.flushed_lines - persist_before.flushed_lines,
            10u * (sizeof(buffer) / 64));
  EXPECT_EQ(persist_after.fences - persist_before.fences, 10u);
}

struct CommitCell {
  uint64_t value;
};

class StatsOpcodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("puddles_stats_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    auto daemon = puddled::Daemon::Start({.root_dir = root_.string()});
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(*daemon);
  }
  void TearDown() override {
    runtime_.reset();
    daemon_.reset();
    std::filesystem::remove_all(root_);
  }

  // A runtime over the daemon with a pool holding one committed CommitCell.
  void OpenCell() {
    (void)TypeRegistry::Instance().RegisterLeaf<CommitCell>();
    auto runtime = Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    runtime_ = std::move(*runtime);
    auto pool = runtime_->CreatePool("stats");
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    pool_ = *pool;
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> Status {
      ASSIGN_OR_RETURN(cell_, tx.Alloc<CommitCell>());
      cell_->value = 0;
      return OkStatus();
    }).ok());
  }

  // `n` undo-only commits, each logging the cell.
  void CommitLogged(uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(pool_->Run([&](Tx& tx) -> Status {
        RETURN_IF_ERROR(tx.Log(cell_));
        cell_->value = i + 1;
        return OkStatus();
      }).ok());
    }
  }

  std::filesystem::path root_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<Runtime> runtime_;
  Pool* pool_ = nullptr;
  CommitCell* cell_ = nullptr;
};

TEST_F(StatsOpcodeTest, DispatchReturnsDecodableSelfCountingReport) {
  WireWriter request;
  request.PutU32(static_cast<uint32_t>(puddled::Op::kStats));
  auto out = puddled::DispatchRequest(*daemon_, puddled::Credentials::Self(),
                                      request.bytes());
  EXPECT_EQ(out.fd, -1);

  WireReader reader(out.response);
  Status status;
  ASSERT_TRUE(reader.GetStatus(&status).ok());
  ASSERT_TRUE(status.ok()) << status.ToString();
  puddled::StatsReport report;
  ASSERT_TRUE(puddled::DecodeStatsReport(&reader, &report).ok());

  ASSERT_EQ(report.counters.size(), kNumCounters);
  ASSERT_EQ(report.hists.size(), kNumHists);
  uint64_t daemon_requests = 0;
  for (const auto& [name, value] : report.counters) {
    if (name == "daemon_request") {
      daemon_requests = value;
    }
  }
  // The dispatch bumps before snapshotting, so the request observes itself.
  EXPECT_GE(daemon_requests, 1u);
  bool found_stats_op = false;
  for (const auto& [name, value] : report.daemon_ops) {
    if (name == "stats") {
      found_stats_op = true;
      EXPECT_GE(value, 1u);
    }
  }
  EXPECT_TRUE(found_stats_op);
  for (const puddled::StatsHistRow& row : report.hists) {
    EXPECT_LE(row.p50_ns, row.p99_ns) << row.name;
    EXPECT_LE(row.p99_ns, row.max_ns) << row.name;
  }
}

TEST_F(StatsOpcodeTest, EmbeddedClientFetchStats) {
  puddled::EmbeddedDaemonClient client(daemon_.get());
  ASSERT_TRUE(client.Ping().ok());
  auto report = client.FetchStats();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->counters.size(), kNumCounters);
  EXPECT_EQ(report->hists.size(), kNumHists);
}

// 10 and 11 were the pointer-map opcodes: retired values stay rejected.
TEST_F(StatsOpcodeTest, UnknownOpStillRejected) {
  for (uint32_t op : {10u, 11u, 999u}) {
    WireWriter request;
    request.PutU32(op);
    request.PutU64(42);
    auto out = puddled::DispatchRequest(*daemon_, puddled::Credentials::Self(),
                                        request.bytes());
    WireReader reader(out.response);
    Status status;
    ASSERT_TRUE(reader.GetStatus(&status).ok()) << "op " << op;
    EXPECT_FALSE(status.ok()) << "op " << op;
  }
}

// Timers are sampled by whole top-level operation: a run of n operations on
// one thread adds n / kSamplePeriod samples, give or take one for the phase
// of the thread's countdown.
void ExpectSampledOps(uint64_t samples, uint64_t ops) {
  EXPECT_NEAR(static_cast<double>(samples), static_cast<double>(ops) / kSamplePeriod, 1.0);
}

// tx_commit_ns and daemon_service_ns are the only timers on the commit and
// dispatch scopes: every committed pool.Run and every dispatched request is
// counted, and one in kSamplePeriod of them adds a sample.
TEST_F(StatsOpcodeTest, OneLatencySamplePerCommitAndPerRequest) {
  ASSERT_NO_FATAL_FAILURE(OpenCell());
  constexpr uint64_t kCommits = 4 * kSamplePeriod;
  const Snapshot before_commits = Aggregate();
  CommitLogged(kCommits);
  const Snapshot commits = Delta(Aggregate(), before_commits);
  ExpectSampledOps(commits.hist(Hist::kTxCommitTicks).count(), kCommits);
  EXPECT_EQ(commits.counter(Counter::kTxCommit), kCommits);

  constexpr uint64_t kPings = 4 * kSamplePeriod;
  WireWriter ping;
  ping.PutU32(static_cast<uint32_t>(puddled::Op::kPing));
  const Snapshot before_pings = Aggregate();
  for (uint64_t i = 0; i < kPings; ++i) {
    auto out = puddled::DispatchRequest(*daemon_, puddled::Credentials::Self(), ping.bytes());
    WireReader reader(out.response);
    Status status;
    ASSERT_TRUE(reader.GetStatus(&status).ok());
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  const Snapshot pings = Delta(Aggregate(), before_pings);
  ExpectSampledOps(pings.hist(Hist::kDaemonServiceTicks).count(), kPings);
  EXPECT_EQ(pings.counter(Counter::kDaemonRequest), kPings);
}

// A sampled transaction is timed whole: each undo-only commit that logs one
// live range publishes twice, before its first store (tx.Log) and at commit
// stage 1, and a sampled one times both beside its commit.
TEST_F(StatsOpcodeTest, SampledCommitTimesEveryPublication) {
  ASSERT_NO_FATAL_FAILURE(OpenCell());
  constexpr uint64_t kCommits = 3 * kSamplePeriod;
  const Snapshot before = Aggregate();
  CommitLogged(kCommits);
  const Snapshot delta = Delta(Aggregate(), before);
  const uint64_t sampled = delta.hist(Hist::kTxCommitTicks).count();
  ExpectSampledOps(sampled, kCommits);
  EXPECT_EQ(delta.hist(Hist::kFlushPublishTicks).count(), 2 * sampled);
  EXPECT_EQ(delta.counter(Counter::kTxCommit), kCommits);
  EXPECT_EQ(delta.counter(Counter::kFlushBatchPublish), 2 * kCommits);
}

TEST(StatsReportWire, EncodeDecodeRoundTrip) {
  puddled::StatsReport report;
  report.live_threads = 3;
  report.retired_threads = 9;
  report.counters = {{"tx_begin", 17}, {"fences", 0}};
  report.daemon_ops = {{"ping", 2}};
  report.hists = {{"tx_commit_ns", 100, 123456, 10, 20, 30, 40, 50}};

  WireWriter writer;
  puddled::EncodeStatsReport(&writer, report);
  std::vector<uint8_t> bytes = writer.Take();
  WireReader reader(bytes);
  puddled::StatsReport decoded;
  ASSERT_TRUE(puddled::DecodeStatsReport(&reader, &decoded).ok());
  EXPECT_EQ(decoded.live_threads, 3u);
  EXPECT_EQ(decoded.retired_threads, 9u);
  ASSERT_EQ(decoded.counters.size(), 2u);
  EXPECT_EQ(decoded.counters[0].first, "tx_begin");
  EXPECT_EQ(decoded.counters[0].second, 17u);
  ASSERT_EQ(decoded.daemon_ops.size(), 1u);
  EXPECT_EQ(decoded.daemon_ops[0].first, "ping");
  ASSERT_EQ(decoded.hists.size(), 1u);
  EXPECT_EQ(decoded.hists[0].name, "tx_commit_ns");
  EXPECT_EQ(decoded.hists[0].sum_ns, 123456u);
  EXPECT_EQ(decoded.hists[0].max_ns, 50u);
}

TEST(CounterNames, CatalogIsCompleteAndStable) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    const char* name = CounterName(static_cast<Counter>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
  EXPECT_STREQ(CounterName(Counter::kTxCommit), "tx_commit");
  EXPECT_STREQ(CounterName(Counter::kFences), "fences");
  EXPECT_STREQ(HistName(Hist::kTxCommitTicks), "tx_commit_ns");
  EXPECT_STREQ(puddled::OpName(puddled::Op::kStats), "stats");
}

}  // namespace
}  // namespace stats
}  // namespace puddles
