#include "src/pmhash/pmhash.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/uuid.h"
#include "src/crashsim/state_enumerator.h"
#include "src/crashsim/trace.h"

namespace puddles {
namespace {

struct Record {
  uint64_t a;
  uint64_t b;
  bool operator==(const Record&) const = default;
};

using Map = PersistentHashMap<uint64_t, Record>;

class PmHashTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kCapacity = 256;

  void SetUp() override {
    buffer_.resize(Map::RequiredBytes(kCapacity));
    ASSERT_TRUE(Map::Format(buffer_.data(), buffer_.size(), kCapacity).ok());
    auto map = Map::Attach(buffer_.data(), buffer_.size());
    ASSERT_TRUE(map.ok());
    map_ = std::make_unique<Map>(std::move(*map));
  }

  Map Reattach() {
    auto map = Map::Attach(buffer_.data(), buffer_.size());
    EXPECT_TRUE(map.ok());
    return std::move(*map);
  }

  std::vector<uint8_t> buffer_;
  std::unique_ptr<Map> map_;
};

TEST_F(PmHashTest, PutGetRoundTrip) {
  ASSERT_TRUE(map_->Put(42, {1, 2}).ok());
  auto got = map_->Get(42);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (Record{1, 2}));
  EXPECT_FALSE(map_->Get(43).ok());
  EXPECT_EQ(map_->size(), 1u);
}

TEST_F(PmHashTest, PutOverwrites) {
  ASSERT_TRUE(map_->Put(7, {1, 1}).ok());
  ASSERT_TRUE(map_->Put(7, {2, 2}).ok());
  EXPECT_EQ(map_->size(), 1u);
  EXPECT_EQ(map_->Get(7)->a, 2u);
}

TEST_F(PmHashTest, EraseRemoves) {
  ASSERT_TRUE(map_->Put(1, {9, 9}).ok());
  ASSERT_TRUE(map_->Erase(1).ok());
  EXPECT_FALSE(map_->Contains(1));
  EXPECT_EQ(map_->size(), 0u);
  EXPECT_FALSE(map_->Erase(1).ok());
}

TEST_F(PmHashTest, ReuseAfterEraseViaTombstones) {
  // Fill past capacity/2 with interleaved erases; tombstones must be reused.
  for (uint64_t i = 0; i < 180; ++i) {
    ASSERT_TRUE(map_->Put(i, {i, i}).ok()) << i;
  }
  for (uint64_t i = 0; i < 180; i += 2) {
    ASSERT_TRUE(map_->Erase(i).ok());
  }
  for (uint64_t i = 1000; i < 1080; ++i) {
    ASSERT_TRUE(map_->Put(i, {i, i}).ok()) << i;
  }
  for (uint64_t i = 1; i < 180; i += 2) {
    ASSERT_TRUE(map_->Contains(i)) << i;
  }
  for (uint64_t i = 1000; i < 1080; ++i) {
    EXPECT_EQ(map_->Get(i)->a, i);
  }
}

TEST_F(PmHashTest, FullTableReports) {
  uint64_t inserted = 0;
  for (uint64_t i = 0; i < kCapacity; ++i) {
    if (!map_->Put(i, {i, i}).ok()) {
      break;
    }
    ++inserted;
  }
  EXPECT_GE(inserted, kCapacity * 8 / 10);
  EXPECT_LT(inserted, kCapacity);  // Load-factor guard must kick in.
}

TEST_F(PmHashTest, PersistsAcrossReattach) {
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(map_->Put(i * 3, {i, i * 2}).ok());
  }
  Map reattached = Reattach();
  EXPECT_EQ(reattached.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    auto got = reattached.Get(i * 3);
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got->b, i * 2);
  }
}

TEST_F(PmHashTest, ForEachVisitsAll) {
  std::map<uint64_t, uint64_t> expected;
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(map_->Put(i * 7, {i, 0}).ok());
    expected[i * 7] = i;
  }
  std::map<uint64_t, uint64_t> seen;
  map_->ForEach([&](const uint64_t& k, const Record& v) { seen[k] = v.a; });
  EXPECT_EQ(seen, expected);
}

TEST_F(PmHashTest, UuidKeysWork) {
  using UuidMap = PersistentHashMap<Uuid, Record, UuidHash>;
  std::vector<uint8_t> buf(UuidMap::RequiredBytes(128));
  ASSERT_TRUE(UuidMap::Format(buf.data(), buf.size(), 128).ok());
  auto map = UuidMap::Attach(buf.data(), buf.size());
  ASSERT_TRUE(map.ok());
  Uuid id = Uuid::Generate();
  ASSERT_TRUE(map->Put(id, {5, 6}).ok());
  EXPECT_TRUE(map->Contains(id));
  EXPECT_FALSE(map->Contains(Uuid::Generate()));
}

// A table formatted with one value layout must refuse to attach as another:
// the header records sizeof(Slot), so schema drift (a grown record type,
// e.g. PtrMapRecord's repeat region) is an explicit format error rather
// than silent slot misinterpretation or a misleading capacity failure.
TEST_F(PmHashTest, AttachRejectsValueLayoutDrift) {
  struct WideRecord {
    uint64_t a;
    uint64_t b;
    uint64_t c;
  };
  using WideMap = PersistentHashMap<uint64_t, WideRecord>;
  using NarrowMap = PersistentHashMap<uint64_t, uint64_t>;
  std::vector<uint8_t> buf(WideMap::RequiredBytes(64));
  ASSERT_TRUE(NarrowMap::Format(buf.data(), buf.size(), 64).ok());
  ASSERT_TRUE(NarrowMap::Attach(buf.data(), buf.size()).ok());
  auto wide = WideMap::Attach(buf.data(), buf.size());
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kDataLoss);
}

// ---- Crash atomicity ----
//
// crashsim records one Put, and the sweep recovers from every state power
// could fail in: each fence boundary, plus 16 seeded subsets of the lines in
// flight at it. After each crash, Attach must observe either the pre-op or
// the post-op state — never a mix — and the post-op state after the complete
// run.

crashsim::TracedRegion Traced(const std::vector<uint8_t>& buffer) {
  return {.base = reinterpret_cast<uintptr_t>(buffer.data()), .size = buffer.size()};
}

// Records Put(key, value) on the map in `buffer`, then runs `check` on the
// map recovered from every crash state of that Put; `complete` marks the
// complete-run state.
void SweepPut(std::vector<uint8_t>& buffer, uint64_t key, const Record& value,
              const std::function<void(Map& recovered, bool complete)>& check) {
  auto map = Map::Attach(buffer.data(), buffer.size());
  ASSERT_TRUE(map.ok());
  crashsim::TraceRecorder recorder;
  recorder.Start({Traced(buffer)});
  ASSERT_TRUE(map->Put(key, value).ok());
  const crashsim::Trace trace = recorder.Stop();

  crashsim::EnumerationOptions options;
  options.eviction_subsets_per_epoch = 16;
  for (const crashsim::CrashStateSpec& spec : crashsim::EnumerateCrashStates(trace, options)) {
    SCOPED_TRACE(spec.ToString());
    crashsim::ApplyCrashState(trace, spec);
    auto recovered = Map::Attach(buffer.data(), buffer.size());
    ASSERT_TRUE(recovered.ok());
    check(*recovered, spec.epoch == trace.epochs.size());
  }
}

TEST(PmHashCrashTest, UpdateIsAtomicInEveryCrashState) {
  std::vector<uint8_t> buffer(Map::RequiredBytes(64));
  ASSERT_TRUE(Map::Format(buffer.data(), buffer.size(), 64).ok());
  ASSERT_TRUE(Map::Attach(buffer.data(), buffer.size())->Put(1, {10, 10}).ok());
  // In-place update (journaled).
  SweepPut(buffer, 1, {20, 20}, [](Map& recovered, bool complete) {
    auto got = recovered.Get(1);
    ASSERT_TRUE(got.ok()) << "key must never disappear during an update";
    EXPECT_TRUE(*got == (Record{20, 20}) || (!complete && *got == (Record{10, 10})))
        << "torn update: a=" << got->a;
  });
}

TEST(PmHashCrashTest, InsertIsAtomicInEveryCrashState) {
  std::vector<uint8_t> buffer(Map::RequiredBytes(64));
  ASSERT_TRUE(Map::Format(buffer.data(), buffer.size(), 64).ok());
  SweepPut(buffer, 5, {50, 51}, [](Map& recovered, bool complete) {
    EXPECT_TRUE(recovered.Contains(5) || !complete) << "completed insert lost";
    if (recovered.Contains(5)) {
      EXPECT_EQ(*recovered.Get(5), (Record{50, 51})) << "insert must be all-or-nothing";
    }
  });
}

// Randomized history test: interleave mutations with crashes; committed
// operations (those that returned) must all survive.
TEST(PmHashCrashHistoryTest, CommittedOpsSurviveRandomCrashes) {
  std::vector<uint8_t> buffer(Map::RequiredBytes(512));
  ASSERT_TRUE(Map::Format(buffer.data(), buffer.size(), 512).ok());

  Xoshiro256 rng(99);
  std::map<uint64_t, Record> model;
  auto map = Map::Attach(buffer.data(), buffer.size());
  ASSERT_TRUE(map.ok());

  for (int round = 0; round < 30; ++round) {
    crashsim::TraceRecorder recorder;
    recorder.Start({Traced(buffer)});
    for (int op = 0; op < 20; ++op) {
      uint64_t key = rng.Below(300);
      if (rng.Below(100) < 70 || model.find(key) == model.end()) {
        Record value{rng(), rng()};
        if (map->Put(key, value).ok()) {
          model[key] = value;
        }
      } else {
        ASSERT_TRUE(map->Erase(key).ok());
        model.erase(key);
      }
    }
    // Crash with adversarial partial eviction and recover.
    const crashsim::Trace trace = recorder.Stop();
    crashsim::ApplyCrashState(
        trace, {.epoch = trace.epochs.size() - 1, .evict = true, .eviction_seed = rng()});
    auto recovered = Map::Attach(buffer.data(), buffer.size());
    ASSERT_TRUE(recovered.ok());
    for (const auto& [key, value] : model) {
      auto got = recovered->Get(key);
      ASSERT_TRUE(got.ok()) << "round " << round << " lost key " << key;
      ASSERT_EQ(*got, value) << "round " << round << " corrupted key " << key;
    }
    map = std::move(*recovered);
  }
}

}  // namespace
}  // namespace puddles
