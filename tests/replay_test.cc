#include "src/tx/replay.h"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <utility>
#include <vector>

namespace puddles {
namespace {

class ReplayTest : public ::testing::Test {
 protected:
  static constexpr size_t kLogCapacity = 16 * 1024;

  void SetUp() override {
    log_buffer_.resize(kLogCapacity);
    data_.assign(4096, 0);
    ASSERT_TRUE(LogRegion::Format(log_buffer_.data(), kLogCapacity).ok());
    auto log = LogRegion::Attach(log_buffer_.data(), kLogCapacity);
    ASSERT_TRUE(log.ok());
    log_ = *log;
  }

  uint64_t Addr(size_t offset) { return reinterpret_cast<uint64_t>(data_.data()) + offset; }

  std::vector<uint8_t> log_buffer_;
  std::vector<uint8_t> data_;
  LogRegion log_;
};

class IdentityResolver : public AddressResolver {
 public:
  void* Resolve(uint64_t addr, uint32_t /*size*/) override {
    return reinterpret_cast<void*>(addr);
  }
};

TEST_F(ReplayTest, UndoEntriesApplyInReverse) {
  // Same location logged twice: old value 1 (first), then old value 2.
  // Reverse replay must end with 1 (the oldest pre-state) in place.
  uint64_t old1 = 1, old2 = 2;
  ASSERT_TRUE(log_.Append(Addr(0), &old1, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  ASSERT_TRUE(log_.Append(Addr(0), &old2, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  std::memset(data_.data(), 0xff, 8);  // "Current" (post-modification) state.

  IdentityResolver resolver;
  auto stats = ReplayLogChain({log_}, resolver);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->applied, 2u);
  uint64_t result;
  std::memcpy(&result, data_.data(), 8);
  EXPECT_EQ(result, 1u);
}

TEST_F(ReplayTest, RedoEntriesApplyForward) {
  uint64_t new1 = 10, new2 = 20;
  ASSERT_TRUE(log_.Append(Addr(8), &new1, 8, kRedoSeq, ReplayOrder::kForward).ok());
  ASSERT_TRUE(log_.Append(Addr(8), &new2, 8, kRedoSeq, ReplayOrder::kForward).ok());
  log_.SetSeqRange(2, 4);  // Stage 2: redo valid.

  IdentityResolver resolver;
  auto stats = ReplayLogChain({log_}, resolver);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied, 2u);
  uint64_t result;
  std::memcpy(&result, data_.data() + 8, 8);
  EXPECT_EQ(result, 20u) << "forward replay ends with the newest redo value";
}

TEST_F(ReplayTest, RangeGatesWhatApplies) {
  uint64_t undo_val = 0xAA, redo_val = 0xBB;
  ASSERT_TRUE(log_.Append(Addr(0), &undo_val, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  ASSERT_TRUE(log_.Append(Addr(8), &redo_val, 8, kRedoSeq, ReplayOrder::kForward).ok());

  IdentityResolver resolver;
  // Stage 1 crash: range (0,2) → only undo applies.
  log_.SetSeqRange(0, 2);
  auto stats = ReplayLogChain({log_}, resolver);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied, 1u);
  EXPECT_EQ(stats->skipped_out_of_range, 1u);
  uint64_t at0, at8;
  std::memcpy(&at0, data_.data(), 8);
  std::memcpy(&at8, data_.data() + 8, 8);
  EXPECT_EQ(at0, 0xAAu);
  EXPECT_EQ(at8, 0u) << "redo must not apply in stage 1";

  // Stage 3: range (4,4) → nothing applies.
  std::memset(data_.data(), 0, 16);
  log_.SetSeqRange(4, 4);
  stats = ReplayLogChain({log_}, resolver);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied, 0u);
  EXPECT_EQ(stats->skipped_out_of_range, 2u);
}

TEST_F(ReplayTest, VolatileEntriesSkippedByRecovery) {
  uint64_t v = 0x77;
  ASSERT_TRUE(log_.Append(Addr(0), &v, 8, kUndoSeq, ReplayOrder::kReverse,
                          kLogEntryVolatile)
                  .ok());
  IdentityResolver resolver;
  auto stats = ReplayLogChain({log_}, resolver);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied, 0u);
  EXPECT_EQ(stats->skipped_volatile, 1u);
}

TEST_F(ReplayTest, CorruptEntrySkipped) {
  uint64_t good = 1, torn = 2;
  ASSERT_TRUE(log_.Append(Addr(0), &good, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  ASSERT_TRUE(log_.Append(Addr(8), &torn, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  // Tear the second entry's payload.
  log_buffer_[sizeof(LogHeader) + LogRegion::EntrySpan(8) + sizeof(LogEntryHeader)] ^= 0xff;

  IdentityResolver resolver;
  auto stats = ReplayLogChain({log_}, resolver);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied, 1u);
  EXPECT_EQ(stats->skipped_checksum, 1u);
  uint64_t at8;
  std::memcpy(&at8, data_.data() + 8, 8);
  EXPECT_EQ(at8, 0u) << "torn entry must not be applied";
}

TEST_F(ReplayTest, UnresolvableAddressPoisonsLog) {
  uint64_t inside = 5, outside = 6;
  ASSERT_TRUE(log_.Append(Addr(0), &inside, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  ASSERT_TRUE(log_.Append(0xdead0000, &outside, 8, kUndoSeq, ReplayOrder::kReverse).ok());

  RangeResolver resolver(reinterpret_cast<uint64_t>(data_.data()), data_.size());
  auto stats = ReplayLogChain({log_}, resolver);
  EXPECT_FALSE(stats.ok()) << "a log targeting unwritable memory must be refused";
  uint64_t at0;
  std::memcpy(&at0, data_.data(), 8);
  EXPECT_EQ(at0, 0u) << "nothing may be applied from a poisoned log";
}

TEST_F(ReplayTest, ChainedRegionsReplayAsOneLog) {
  // Build a two-region chain; the head's range governs both.
  std::vector<uint8_t> second_buffer(kLogCapacity);
  ASSERT_TRUE(LogRegion::Format(second_buffer.data(), kLogCapacity).ok());
  auto second = LogRegion::Attach(second_buffer.data(), kLogCapacity);
  ASSERT_TRUE(second.ok());

  uint64_t old1 = 1, old2 = 2;
  ASSERT_TRUE(log_.Append(Addr(0), &old1, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  ASSERT_TRUE(second->Append(Addr(0), &old2, 8, kUndoSeq, ReplayOrder::kReverse).ok());
  // The continuation region's own range says (0,2) but is ignored: prove it
  // by closing it — entries must still replay, governed by the head.
  second->SetSeqRange(4, 4);

  std::memset(data_.data(), 0xff, 8);
  IdentityResolver resolver;
  auto stats = ReplayLogChain({log_, *second}, resolver);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied, 2u);
  uint64_t result;
  std::memcpy(&result, data_.data(), 8);
  EXPECT_EQ(result, 1u) << "cross-region reverse order: oldest entry wins";
}

TEST_F(ReplayTest, EmptyChainIsNoop) {
  IdentityResolver resolver;
  auto stats = ReplayLogChain({}, resolver);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied, 0u);
}

// Log regions keyed by puddle UUID, linked as a test arranges: the opener
// OpenLogChain follows, counting its calls.
class LogChainTest : public ::testing::Test {
 protected:
  static constexpr size_t kLogCapacity = 4096;

  Uuid AddLog() {
    const Uuid uuid = Uuid::Generate();
    auto& buffer = buffers_.emplace_back(kLogCapacity);
    EXPECT_TRUE(LogRegion::Format(buffer.data(), kLogCapacity).ok());
    logs_.emplace_back(uuid, *LogRegion::Attach(buffer.data(), kLogCapacity));
    return uuid;
  }

  LogRegion* Find(const Uuid& uuid) {
    for (auto& [key, log] : logs_) {
      if (key == uuid) {
        return &log;
      }
    }
    return nullptr;
  }

  Result<std::vector<LogRegion>> Open(const Uuid& head) {
    return OpenLogChain(head, [this](const Uuid& uuid) -> Result<LogRegion> {
      ++opens_;
      LogRegion* log = Find(uuid);
      if (log == nullptr) {
        return NotFoundError("no such log puddle");
      }
      return *log;
    });
  }

  std::deque<std::vector<uint8_t>> buffers_;
  std::vector<std::pair<Uuid, LogRegion>> logs_;
  int opens_ = 0;
};

TEST_F(LogChainTest, NilHeadIsAnEmptyChain) {
  auto chain = Open(Uuid::Nil());
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_TRUE(chain->empty());
  EXPECT_EQ(opens_, 0);
}

TEST_F(LogChainTest, FollowsLinksInOrder) {
  const Uuid a = AddLog();
  const Uuid b = AddLog();
  Find(a)->SetNextLog(b);
  auto chain = Open(a);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_EQ((*chain)[0].base(), Find(a)->base());
  EXPECT_EQ((*chain)[1].base(), Find(b)->base());
}

TEST_F(LogChainTest, SelfLinkFailsAfterOneOpen) {
  const Uuid a = AddLog();
  Find(a)->SetNextLog(a);
  EXPECT_FALSE(Open(a).ok());
  EXPECT_EQ(opens_, 1);
}

TEST_F(LogChainTest, TwoPuddleCycleFailsAfterTwoOpens) {
  const Uuid a = AddLog();
  const Uuid b = AddLog();
  Find(a)->SetNextLog(b);
  Find(b)->SetNextLog(a);
  EXPECT_FALSE(Open(a).ok());
  EXPECT_EQ(opens_, 2);
}

TEST_F(LogChainTest, MissingLinkFails) {
  const Uuid a = AddLog();
  Find(a)->SetNextLog(Uuid::Generate());
  auto chain = Open(a);
  EXPECT_EQ(chain.status().code(), StatusCode::kNotFound) << chain.status().ToString();
  EXPECT_EQ(opens_, 2);
}

TEST(RetiredByEpochTest, GatesTaggedChainsAtOrBelowTheRecord) {
  std::vector<uint8_t> buffer(4096);
  ASSERT_TRUE(LogRegion::Format(buffer.data(), buffer.size()).ok());
  auto log = LogRegion::Attach(buffer.data(), buffer.size());
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE(RetiredByEpoch(*log, 7)) << "tag 0 (immediate mode) is never gated";
  log->SetEpochTagVolatile(7);
  EXPECT_TRUE(RetiredByEpoch(*log, 7));
  EXPECT_TRUE(RetiredByEpoch(*log, 8));
  EXPECT_FALSE(RetiredByEpoch(*log, 6));
}

TEST(RangeResolverTest, InRangeResolves) {
  alignas(8) static uint8_t buffer[256];
  const uint64_t base = reinterpret_cast<uint64_t>(buffer);
  RangeResolver resolver(base, sizeof(buffer));
  EXPECT_EQ(resolver.Resolve(base, 1), buffer);
  EXPECT_EQ(resolver.Resolve(base + 128, 128), buffer + 128);
  EXPECT_EQ(resolver.Resolve(base + 255, 1), buffer + 255);
  EXPECT_EQ(resolver.Resolve(base + 256, 1), nullptr);
  EXPECT_EQ(resolver.Resolve(base - 1, 1), nullptr);
  EXPECT_EQ(resolver.Resolve(base + 255, 2), nullptr);
}

TEST(RangeResolverTest, AddrNearUint64MaxDoesNotWrapPastBoundsCheck) {
  // An adversarial/corrupt log entry can carry any addr/size. With the old
  // `addr + size > base + size` check, addr near UINT64_MAX wrapped around
  // and resolved — handing the replayer a wild write target (§4.6).
  alignas(8) static uint8_t buffer[256];
  const uint64_t base = reinterpret_cast<uint64_t>(buffer);
  RangeResolver resolver(base, sizeof(buffer));
  EXPECT_EQ(resolver.Resolve(UINT64_MAX, 1), nullptr);
  EXPECT_EQ(resolver.Resolve(UINT64_MAX - 3, 8), nullptr);
  EXPECT_EQ(resolver.Resolve(UINT64_MAX - 255, UINT32_MAX), nullptr);
  // A resolver spanning the top of the address space must also stay safe.
  RangeResolver top(UINT64_MAX - 1024, 1024);
  EXPECT_EQ(top.Resolve(UINT64_MAX - 512, 1024), nullptr);
}

}  // namespace
}  // namespace puddles
