#include "src/tx/log_format.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/crashsim/state_enumerator.h"
#include "src/crashsim/trace.h"
#include "src/pmem/flush.h"

namespace puddles {
namespace {

class LogFormatTest : public ::testing::Test {
 protected:
  static constexpr size_t kCapacity = 64 * 1024;

  void SetUp() override {
    buffer_.resize(kCapacity);
    ASSERT_TRUE(LogRegion::Format(buffer_.data(), kCapacity).ok());
    auto log = LogRegion::Attach(buffer_.data(), kCapacity);
    ASSERT_TRUE(log.ok());
    log_ = *log;
  }

  std::vector<uint8_t> buffer_;
  LogRegion log_;
};

TEST_F(LogFormatTest, FreshLogArmedForUndo) {
  EXPECT_TRUE(log_.empty());
  EXPECT_EQ(log_.seq_range(), (std::pair<uint32_t, uint32_t>{0, 2}));
  EXPECT_EQ(log_.num_entries(), 0u);
  EXPECT_TRUE(log_.next_log().is_nil());
}

TEST_F(LogFormatTest, AppendAndIterate) {
  uint64_t value1 = 0x1111;
  uint64_t value2 = 0x2222;
  ASSERT_TRUE(log_.Append(0xA000, &value1, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  ASSERT_TRUE(log_.Append(0xB000, &value2, 8, kRedoSeq, ReplayOrder::kForward).ok());
  EXPECT_EQ(log_.num_entries(), 2u);

  std::vector<LogRegion::EntryView> views;
  ASSERT_TRUE(log_.ForEachEntry([&](const LogRegion::EntryView& v) { views.push_back(v); }));
  ASSERT_EQ(views.size(), 2u);

  EXPECT_EQ(views[0].header->addr, 0xA000u);
  EXPECT_EQ(views[0].header->seq, kUndoSeq);
  EXPECT_EQ(views[0].header->order, static_cast<uint8_t>(ReplayOrder::kReverse));
  EXPECT_TRUE(views[0].checksum_ok);
  EXPECT_TRUE(views[0].valid) << "undo entry valid under range (0,2)";
  EXPECT_EQ(std::memcmp(views[0].data, &value1, 8), 0);

  EXPECT_EQ(views[1].header->seq, kRedoSeq);
  EXPECT_TRUE(views[1].checksum_ok);
  EXPECT_FALSE(views[1].valid) << "redo entry invalid under range (0,2)";
}

TEST_F(LogFormatTest, SeqRangeControlsValidity) {
  uint64_t v = 1;
  ASSERT_TRUE(log_.Append(0xA000, &v, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  ASSERT_TRUE(log_.Append(0xB000, &v, 8, kRedoSeq, ReplayOrder::kForward).ok());

  auto validity = [&]() {
    std::vector<bool> valid;
    log_.ForEachEntry([&](const LogRegion::EntryView& view) { valid.push_back(view.valid); });
    return valid;
  };

  log_.SetSeqRange(0, 2);  // Stage 1: undo only.
  EXPECT_EQ(validity(), (std::vector<bool>{true, false}));
  log_.SetSeqRange(2, 4);  // Stage 2: redo only.
  EXPECT_EQ(validity(), (std::vector<bool>{false, true}));
  log_.SetSeqRange(4, 4);  // Stage 3: nothing.
  EXPECT_EQ(validity(), (std::vector<bool>{false, false}));
  log_.SetSeqRange(0, 4);  // Hypothetical: everything.
  EXPECT_EQ(validity(), (std::vector<bool>{true, true}));
}

TEST_F(LogFormatTest, ChecksumDetectsTornData) {
  std::vector<uint8_t> payload(256, 0xee);
  ASSERT_TRUE(
      log_.Append(0xC000, payload.data(), payload.size(), kUndoSeq, ReplayOrder::kReverse).ok());
  // Corrupt one data byte (as a torn write would).
  buffer_[sizeof(LogHeader) + sizeof(LogEntryHeader) + 100] ^= 0xff;
  log_.ForEachEntry([&](const LogRegion::EntryView& view) {
    EXPECT_FALSE(view.checksum_ok);
    EXPECT_FALSE(view.valid);
  });
}

TEST_F(LogFormatTest, FillToCapacityThenOutOfMemory) {
  std::vector<uint8_t> payload(1024, 0xab);
  size_t appended = 0;
  while (true) {
    auto status =
        log_.Append(0xD000, payload.data(), payload.size(), kUndoSeq, ReplayOrder::kReverse);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kOutOfMemory);
      break;
    }
    ++appended;
  }
  EXPECT_GT(appended, 50u);
  EXPECT_LT(log_.free_bytes(), LogRegion::EntrySpan(1024));
}

TEST_F(LogFormatTest, ResetEmptiesAndRearms) {
  uint64_t v = 7;
  ASSERT_TRUE(log_.Append(0xA000, &v, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  log_.SetNextLog(Uuid::Generate());
  log_.Reset(0, 2);
  EXPECT_TRUE(log_.empty());
  EXPECT_EQ(log_.seq_range(), (std::pair<uint32_t, uint32_t>{0, 2}));
  EXPECT_TRUE(log_.next_log().is_nil());
  int count = 0;
  log_.ForEachEntry([&](const LogRegion::EntryView&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST_F(LogFormatTest, AttachValidates) {
  EXPECT_FALSE(LogRegion::Attach(buffer_.data(), kCapacity / 2).ok());
  buffer_[0] ^= 1;
  EXPECT_FALSE(LogRegion::Attach(buffer_.data(), kCapacity).ok());
}

TEST_F(LogFormatTest, AttachSeesPersistedEntries) {
  uint64_t v = 0xfeed;
  ASSERT_TRUE(log_.Append(0xA000, &v, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  auto reattached = LogRegion::Attach(buffer_.data(), kCapacity);
  ASSERT_TRUE(reattached.ok());
  EXPECT_EQ(reattached->num_entries(), 1u);
  reattached->ForEachEntry([&](const LogRegion::EntryView& view) {
    EXPECT_EQ(std::memcmp(view.data, &v, 8), 0);
  });
}

TEST_F(LogFormatTest, NextLogLinkPersists) {
  Uuid next = Uuid::Generate();
  log_.SetNextLog(next);
  auto reattached = LogRegion::Attach(buffer_.data(), kCapacity);
  ASSERT_TRUE(reattached.ok());
  EXPECT_EQ(reattached->next_log(), next);
}

TEST_F(LogFormatTest, VolatileFlagRoundTrips) {
  uint64_t v = 3;
  ASSERT_TRUE(log_.Append(reinterpret_cast<uint64_t>(&v), &v, 8, kUndoSeq,
                          ReplayOrder::kReverse, kLogEntryVolatile)
                  .ok());
  log_.ForEachEntry([&](const LogRegion::EntryView& view) {
    EXPECT_TRUE(view.header->flags & kLogEntryVolatile);
  });
}

TEST_F(LogFormatTest, EntrySpanAligns) {
  EXPECT_EQ(LogRegion::EntrySpan(0), sizeof(LogEntryHeader));
  EXPECT_EQ(LogRegion::EntrySpan(1), sizeof(LogEntryHeader) + 8);
  EXPECT_EQ(LogRegion::EntrySpan(8), sizeof(LogEntryHeader) + 8);
  EXPECT_EQ(LogRegion::EntrySpan(9), sizeof(LogEntryHeader) + 16);
}

// ---- Batched (staged) appends: torn-batch crash semantics (DESIGN.md §10).
//
// Each test stages appends without publishing, persists some subset of the
// batch's cache lines by hand (standing in for an arbitrary crash/eviction
// interleaving), crashes with crashsim's strict image (only flushed and
// fenced lines survive), and checks that replay-side validity degrades
// exactly like a torn single append: entries are either intact-and-valid or
// checksum-discarded, never applied torn. 48-byte payloads make every entry
// span exactly one 64-byte line, so "persist entry k" is a single-line flush.

class LogBatchTest : public LogFormatTest {
 protected:
  // 24-byte entry header + 40-byte payload = one 64-byte line per entry.
  static constexpr uint32_t kLineSizedPayload = 40;

  void SetUp() override {
    LogFormatTest::SetUp();
    recorder_.Start({{.base = reinterpret_cast<uintptr_t>(buffer_.data()), .size = kCapacity}});
  }

  // Power fails now: the log buffer keeps only its flushed-and-fenced lines.
  void CrashNow() {
    const crashsim::Trace trace = recorder_.Stop();
    crashsim::ApplyCrashState(trace, {.epoch = trace.epochs.size() - 1});
  }

  puddles::Status StageOne(uint64_t addr, uint8_t fill, pmem::FlushBatch* batch) {
    std::vector<uint8_t> payload(kLineSizedPayload, fill);
    return log_.AppendStaged(addr, payload.data(), kLineSizedPayload, kUndoSeq,
                             ReplayOrder::kReverse, 0, batch);
  }

  uint8_t* EntryLine(int index) {
    return buffer_.data() + sizeof(LogHeader) + static_cast<size_t>(index) * 64;
  }

  crashsim::TraceRecorder recorder_;
};

TEST_F(LogBatchTest, UnpublishedBatchInvisibleAfterCrash) {
  pmem::FlushBatch batch;
  ASSERT_TRUE(StageOne(0xA000, 0x11, &batch).ok());
  ASSERT_TRUE(StageOne(0xB000, 0x22, &batch).ok());
  EXPECT_EQ(log_.num_entries(), 2u) << "staged appends are live in the mapped view";
  // Crash with nothing published: neither FlushPending nor a fence ran.
  CrashNow();
  auto recovered = LogRegion::Attach(buffer_.data(), kCapacity);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->num_entries(), 0u)
      << "old header must hide the staged batch after a pre-publication crash";
}

TEST_F(LogBatchTest, HeaderEvictedWithTornEntriesIsFullyDiscarded) {
  pmem::FlushBatch batch;
  ASSERT_TRUE(StageOne(0xA000, 0x11, &batch).ok());
  ASSERT_TRUE(StageOne(0xB000, 0x22, &batch).ok());
  // Adversarial eviction: the header line becomes durable (admitting both
  // entries) while no entry byte does.
  pmem::FlushFence(buffer_.data(), sizeof(LogHeader));
  CrashNow();
  auto recovered = LogRegion::Attach(buffer_.data(), kCapacity);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->num_entries(), 2u);
  int seen = 0;
  recovered->ForEachEntry([&](const LogRegion::EntryView& view) {
    ++seen;
    EXPECT_FALSE(view.checksum_ok) << "torn entry " << seen << " must fail its checksum";
    EXPECT_FALSE(view.valid);
  });
}

TEST_F(LogBatchTest, PartiallyPersistedBatchKeepsOnlyIntactEntries) {
  pmem::FlushBatch batch;
  ASSERT_TRUE(StageOne(0xA000, 0x11, &batch).ok());
  ASSERT_TRUE(StageOne(0xB000, 0x22, &batch).ok());
  ASSERT_TRUE(StageOne(0xC000, 0x33, &batch).ok());
  // Eviction persisted the header and the FIRST entry's line only: the
  // intact prefix replays, the torn tail is discarded — and a torn entry
  // also severs framing for everything behind it (its size field is gone),
  // so discard is conservative, never partial application.
  pmem::Flush(buffer_.data(), sizeof(LogHeader));
  pmem::Flush(EntryLine(0), 64);
  pmem::Fence();
  CrashNow();
  auto recovered = LogRegion::Attach(buffer_.data(), kCapacity);
  ASSERT_TRUE(recovered.ok());
  std::vector<bool> ok;
  recovered->ForEachEntry([&](const LogRegion::EntryView& view) { ok.push_back(view.valid); });
  ASSERT_GE(ok.size(), 1u);
  EXPECT_TRUE(ok[0]) << "the fully persisted entry replays";
  for (size_t i = 1; i < ok.size(); ++i) {
    EXPECT_FALSE(ok[i]) << "torn entry " << i << " (and its tail) must be discarded";
  }
}

TEST_F(LogBatchTest, PublishedBatchSurvivesCrashIntact) {
  pmem::FlushBatch batch;
  ASSERT_TRUE(StageOne(0xA000, 0x11, &batch).ok());
  ASSERT_TRUE(StageOne(0xB000, 0x22, &batch).ok());
  batch.FlushPending();  // Publication: one deduplicated pass...
  pmem::Fence();         // ...and one fence for the whole batch.
  CrashNow();
  auto recovered = LogRegion::Attach(buffer_.data(), kCapacity);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->num_entries(), 2u);
  recovered->ForEachEntry([&](const LogRegion::EntryView& view) {
    EXPECT_TRUE(view.checksum_ok);
    EXPECT_TRUE(view.valid);
  });
}

TEST_F(LogFormatTest, RearmIsSingleWriteRetirement) {
  uint64_t v = 7;
  ASSERT_TRUE(log_.Append(0xA000, &v, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  ASSERT_TRUE(log_.Rearm());
  EXPECT_TRUE(log_.empty());
  EXPECT_EQ(log_.seq_range(), (std::pair<uint32_t, uint32_t>{0, 2}));
  // Preconditions: refuses a non-(0,2) range or a chained log, leaving the
  // header untouched for the general Reset path.
  log_.SetSeqRange(2, 4);
  EXPECT_FALSE(log_.Rearm());
  log_.SetSeqRange(0, 2);
  log_.SetNextLog(Uuid::Generate());
  EXPECT_FALSE(log_.Rearm());
  EXPECT_FALSE(log_.next_log().is_nil());
}

TEST_F(LogFormatTest, RetireCommittedClosesAndClears) {
  uint64_t v = 7;
  ASSERT_TRUE(log_.Append(0xA000, &v, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  log_.SetSeqRange(2, 4);
  ASSERT_TRUE(log_.RetireCommitted());
  EXPECT_TRUE(log_.empty());
  EXPECT_EQ(log_.seq_range(), (std::pair<uint32_t, uint32_t>{4, 4}));
  log_.SetSeqRange(0, 2);
  log_.SetNextLog(Uuid::Generate());
  EXPECT_FALSE(log_.RetireCommitted()) << "chained logs take the conservative Reset path";
}

}  // namespace
}  // namespace puddles
