#include "src/pmem/flush.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

namespace pmem {
namespace {

// Persist traffic since `before`. Counters are process-wide totals, so every
// assertion reads a delta.
PersistStats Since(const PersistStats& before) {
  const PersistStats now = ReadPersistStats();
  return {.flushed_lines = now.flushed_lines - before.flushed_lines,
          .flush_calls = now.flush_calls - before.flush_calls,
          .fences = now.fences - before.fences};
}

TEST(FlushTest, InstructionDetected) {
  FlushInstruction instr = ActiveFlushInstruction();
  // On x86-64 at least clflush must be available.
#if defined(__x86_64__)
  EXPECT_NE(instr, FlushInstruction::kNoop);
#endif
  EXPECT_NE(FlushInstructionName(instr), nullptr);
}

TEST(FlushTest, FlushDoesNotCorruptData) {
  std::vector<uint8_t> buffer(4096);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 13);
  }
  Flush(buffer.data(), buffer.size());
  Fence();
  for (size_t i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer[i], static_cast<uint8_t>(i * 13));
  }
}

TEST(FlushTest, CountersTrackLines) {
  const PersistStats before = ReadPersistStats();
  alignas(64) char data[256];
  Flush(data, 256);  // Exactly 4 lines, aligned.
  const PersistStats delta = Since(before);
  EXPECT_EQ(delta.flushed_lines, 4u);
  EXPECT_EQ(delta.flush_calls, 1u);
}

TEST(FlushTest, UnalignedRangeCoversAllTouchedLines) {
  const PersistStats before = ReadPersistStats();
  alignas(64) char data[256];
  // [63, 65) straddles two cache lines.
  Flush(data + 63, 2);
  EXPECT_EQ(Since(before).flushed_lines, 2u);
}

TEST(FlushTest, ZeroSizeIsNoop) {
  const PersistStats before = ReadPersistStats();
  char c;
  Flush(&c, 0);
  const PersistStats delta = Since(before);
  EXPECT_EQ(delta.flush_calls, 0u);
  EXPECT_EQ(delta.flushed_lines, 0u);
}

TEST(FlushTest, FenceCounts) {
  const PersistStats before = ReadPersistStats();
  Fence();
  Fence();
  EXPECT_EQ(Since(before).fences, 2u);
}

TEST(FlushTest, FlushFenceDoesBoth) {
  const PersistStats before = ReadPersistStats();
  alignas(64) char data[64];
  FlushFence(data, 64);
  const PersistStats delta = Since(before);
  EXPECT_EQ(delta.flushed_lines, 1u);
  EXPECT_EQ(delta.fences, 1u);
}

TEST(FlushTest, PersistStore64WritesAndPersists) {
  const PersistStats before = ReadPersistStats();
  alignas(64) uint64_t slot = 0;
  PersistStore64(&slot, 0xdeadbeefULL);
  EXPECT_EQ(slot, 0xdeadbeefULL);
  const PersistStats delta = Since(before);
  EXPECT_EQ(delta.flushed_lines, 1u);
  EXPECT_EQ(delta.fences, 1u);
}

// Flush and Fence count in per-thread slots; ReadPersistStats must sum them
// exactly over live threads and exited ones alike. Four writers exit, four
// stay parked on a latch, and the totals are read in both states. This test
// is the TSan witness for the per-thread persistence counters.
TEST(FlushTest, PerThreadCountsAreExactWithLiveAndExitedThreads) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  alignas(64) static char buffers[kThreads][128];
  const PersistStats before = ReadPersistStats();
  std::latch flushed(kThreads);
  std::latch release(1);
  std::vector<std::thread> exiting, parked;
  for (int t = 0; t < kThreads; ++t) {
    const bool parks = t % 2 == 0;
    (parks ? parked : exiting).emplace_back([&, t, parks] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        Flush(buffers[t], sizeof(buffers[t]));  // 2 lines.
        Fence();
      }
      flushed.count_down();
      if (parks) {
        release.wait();
      }
    });
  }
  flushed.wait();
  for (std::thread& thread : exiting) {
    thread.join();
  }
  auto expect_exact = [&](const char* when) {
    const PersistStats delta = Since(before);
    EXPECT_EQ(delta.flush_calls, kThreads * kPerThread) << when;
    EXPECT_EQ(delta.flushed_lines, 2 * kThreads * kPerThread) << when;
    EXPECT_EQ(delta.fences, kThreads * kPerThread) << when;
  };
  expect_exact("four writers parked");
  release.count_down();
  for (std::thread& thread : parked) {
    thread.join();
  }
  expect_exact("all writers joined");
}

TEST(FlushBatchTest, DedupsOverlappingRangesAtLineGranularity) {
  alignas(64) static char data[4 * 64];
  FlushBatch batch;
  EXPECT_TRUE(batch.empty());
  batch.Add(data, 64);          // Line 0.
  batch.Add(data + 16, 8);      // Line 0 again.
  batch.Add(data + 60, 8);      // Lines 0 and 1.
  batch.Add(data + 192, 1);     // Line 3.
  EXPECT_EQ(batch.pending_lines(), 3u);
  const PersistStats before = ReadPersistStats();
  batch.FlushPending();
  const PersistStats delta = Since(before);
  EXPECT_EQ(delta.flushed_lines, 3u) << "each staged line must be written back exactly once";
  EXPECT_EQ(delta.fences, 0u) << "FlushPending must not fence";
  EXPECT_TRUE(batch.empty()) << "a flushed batch is cleared";
}

TEST(FlushBatchTest, MergesAdjacentLinesIntoSingleFlushCalls) {
  alignas(64) static char data[8 * 64];
  FlushBatch batch;
  batch.Add(data + 64, 64);   // Lines 1..2 contiguous with the next add.
  batch.Add(data + 128, 64);
  batch.Add(data + 320, 64);  // Line 5, separate run.
  const PersistStats before = ReadPersistStats();
  batch.FlushPending();
  const PersistStats delta = Since(before);
  EXPECT_EQ(delta.flushed_lines, 3u);
  EXPECT_EQ(delta.flush_calls, 2u) << "contiguous lines coalesce into one Flush range";
}

// The observer contract under batching (documented in flush.h): every
// published line is reported through OnFlushRange before the closing fence,
// exactly once — batching coalesces flushes but never hides them from the
// crashsim trace recorder.
TEST(FlushBatchTest, PublicationReportsEveryLineToTheObserver) {
  class Recorder : public PersistObserver {
   public:
    void OnFlushRange(const void* /*addr*/, size_t size) override {
      flushed_bytes += size;
      ++flush_ranges;
      EXPECT_EQ(fences, 0) << "all lines must be reported before the batch's fence";
    }
    void OnFence() override { ++fences; }
    size_t flushed_bytes = 0;
    int flush_ranges = 0;
    int fences = 0;
  };
  alignas(64) static char data[4 * 64];
  Recorder recorder;
  SetPersistObserver(&recorder);
  FlushBatch batch;
  batch.Add(data, 64);
  batch.Add(data + 64, 64);
  batch.Add(data, 64);  // Duplicate: must not be double-reported.
  batch.FlushPending();
  Fence();
  SetPersistObserver(nullptr);
  EXPECT_EQ(recorder.flushed_bytes, 128u);
  EXPECT_EQ(recorder.flush_ranges, 1) << "one merged range for two adjacent lines";
  EXPECT_EQ(recorder.fences, 1);
}

}  // namespace
}  // namespace pmem
