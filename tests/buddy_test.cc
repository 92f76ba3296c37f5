#include "src/alloc/buddy.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "src/common/rng.h"

namespace puddles {
namespace {

class BuddyTest : public ::testing::Test {
 protected:
  static constexpr size_t kHeapSize = 1 << 20;  // 1 MiB.

  void SetUp() override {
    meta_.resize(BuddyAllocator::MetaSize(kHeapSize));
    heap_.resize(kHeapSize);
    ASSERT_TRUE(BuddyAllocator::Format(meta_.data(), heap_.data(), kHeapSize).ok());
    auto attached = BuddyAllocator::Attach(meta_.data(), heap_.data(), kHeapSize);
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();
    buddy_ = std::move(*attached);
  }

  std::vector<uint8_t> meta_;
  std::vector<uint8_t> heap_;
  BuddyAllocator buddy_;
};

TEST_F(BuddyTest, FreshHeapFullyFree) {
  EXPECT_EQ(buddy_.free_bytes(), kHeapSize);
  EXPECT_TRUE(buddy_.Validate().ok());
}

TEST_F(BuddyTest, AllocateRoundsToPowerOfTwo) {
  auto offset = buddy_.Allocate(300);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(buddy_.BlockSize(*offset), 512u);
  EXPECT_EQ(buddy_.free_bytes(), kHeapSize - 512);
}

TEST_F(BuddyTest, MinimumBlockIs256) {
  auto offset = buddy_.Allocate(1);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(buddy_.BlockSize(*offset), 256u);
}

TEST_F(BuddyTest, WholeHeapAllocation) {
  auto offset = buddy_.Allocate(kHeapSize);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, 0);
  EXPECT_EQ(buddy_.free_bytes(), 0u);
  EXPECT_FALSE(buddy_.Allocate(1).ok());
  ASSERT_TRUE(buddy_.Free(*offset).ok());
  EXPECT_EQ(buddy_.free_bytes(), kHeapSize);
}

TEST_F(BuddyTest, AllocationsAreNaturallyAligned) {
  for (size_t size : {256u, 512u, 1024u, 4096u, 65536u}) {
    auto offset = buddy_.Allocate(size);
    ASSERT_TRUE(offset.ok());
    EXPECT_EQ(static_cast<uint64_t>(*offset) % size, 0u) << "size " << size;
  }
}

TEST_F(BuddyTest, FreeCoalescesBackToOneBlock) {
  std::vector<int64_t> offsets;
  for (int i = 0; i < 16; ++i) {
    auto offset = buddy_.Allocate(4096);
    ASSERT_TRUE(offset.ok());
    offsets.push_back(*offset);
  }
  EXPECT_EQ(buddy_.free_bytes(), kHeapSize - 16 * 4096);
  // Free in an interleaved order to exercise coalescing both directions.
  for (size_t i = 0; i < offsets.size(); i += 2) {
    ASSERT_TRUE(buddy_.Free(offsets[i]).ok());
  }
  for (size_t i = 1; i < offsets.size(); i += 2) {
    ASSERT_TRUE(buddy_.Free(offsets[i]).ok());
  }
  EXPECT_EQ(buddy_.free_bytes(), kHeapSize);
  ASSERT_TRUE(buddy_.Validate().ok());
  // Whole-heap allocation must succeed again: proves full coalescing.
  EXPECT_TRUE(buddy_.Allocate(kHeapSize).ok());
}

TEST_F(BuddyTest, DoubleFreeRejected) {
  auto offset = buddy_.Allocate(256);
  ASSERT_TRUE(offset.ok());
  ASSERT_TRUE(buddy_.Free(*offset).ok());
  EXPECT_FALSE(buddy_.Free(*offset).ok());
}

TEST_F(BuddyTest, FreeOfInteriorRejected) {
  auto offset = buddy_.Allocate(1024);
  ASSERT_TRUE(offset.ok());
  EXPECT_FALSE(buddy_.Free(*offset + 256).ok());
  EXPECT_FALSE(buddy_.Free(*offset + 1).ok());
  EXPECT_FALSE(buddy_.Free(-64).ok());
  EXPECT_FALSE(buddy_.Free(static_cast<int64_t>(kHeapSize)).ok());
}

TEST_F(BuddyTest, OversizeAllocationRejected) {
  EXPECT_FALSE(buddy_.Allocate(kHeapSize + 1).ok());
  EXPECT_FALSE(buddy_.Allocate(0).ok());
}

TEST_F(BuddyTest, ForEachAllocatedSeesExactlyLiveBlocks) {
  auto a = buddy_.Allocate(256);
  auto b = buddy_.Allocate(4096);
  auto c = buddy_.Allocate(512);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(buddy_.Free(*b).ok());

  std::map<int64_t, size_t> seen;
  buddy_.ForEachAllocated([&](int64_t offset, size_t size) { seen[offset] = size; });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[*a], 256u);
  EXPECT_EQ(seen[*c], 512u);
}

TEST_F(BuddyTest, AttachRejectsCorruptMeta) {
  meta_[0] ^= 0xff;  // Clobber the magic.
  auto attached = BuddyAllocator::Attach(meta_.data(), heap_.data(), kHeapSize);
  EXPECT_FALSE(attached.ok());
}

TEST_F(BuddyTest, AttachRejectsWrongGeometry) {
  auto attached = BuddyAllocator::Attach(meta_.data(), heap_.data(), kHeapSize / 2);
  EXPECT_FALSE(attached.ok());
}

TEST_F(BuddyTest, TrimKeepsAHeapWithAnAllocationInItsUpperHalf) {
  auto lower = buddy_.Allocate(kHeapSize / 2);
  auto upper = buddy_.Allocate(256);
  ASSERT_TRUE(lower.ok() && upper.ok());
  ASSERT_GE(static_cast<size_t>(*upper), kHeapSize / 2);
  ASSERT_TRUE(buddy_.Free(*lower).ok());
  ASSERT_TRUE(buddy_.TrimFreeTail(4096).ok());
  EXPECT_EQ(buddy_.heap_size(), kHeapSize);
  EXPECT_EQ(buddy_.free_bytes(), kHeapSize - 256);
  EXPECT_TRUE(buddy_.Validate().ok());
}

TEST_F(BuddyTest, TrimShrinksToTheSmallestPowerOfTwoHoldingTheHighestBlock) {
  auto small = buddy_.Allocate(256);
  auto big = buddy_.Allocate(40 << 10);  // A 64 KiB block, ending at 128 KiB.
  ASSERT_TRUE(small.ok() && big.ok());
  ASSERT_EQ(*big + (64 << 10), 128 << 10);
  ASSERT_TRUE(buddy_.TrimFreeTail(4096).ok());
  EXPECT_EQ(buddy_.heap_size(), 128u << 10);
  EXPECT_EQ(buddy_.free_bytes(), (128u << 10) - 256 - (64 << 10));
  ASSERT_TRUE(buddy_.Validate().ok()) << buddy_.Validate().ToString();
  EXPECT_TRUE(buddy_.IsAllocatedStart(*small));
  EXPECT_TRUE(buddy_.IsAllocatedStart(*big));

  // The trimmed metadata attaches at the new size, and frees coalesce up to
  // its single top-order block.
  auto reattached = BuddyAllocator::Attach(meta_.data(), heap_.data(), 128 << 10);
  ASSERT_TRUE(reattached.ok()) << reattached.status().ToString();
  ASSERT_TRUE(reattached->Free(*big).ok());
  ASSERT_TRUE(reattached->Free(*small).ok());
  EXPECT_EQ(reattached->free_bytes(), 128u << 10);
  EXPECT_TRUE(reattached->Validate().ok());
  EXPECT_FALSE(reattached->CanAllocate((128 << 10) + 1));
  EXPECT_TRUE(reattached->CanAllocate(128 << 10));
}

TEST_F(BuddyTest, TrimStopsAtTheMinimumSize) {
  ASSERT_TRUE(buddy_.Allocate(256).ok());
  ASSERT_TRUE(buddy_.TrimFreeTail(4096).ok());
  EXPECT_EQ(buddy_.heap_size(), 4096u);
  EXPECT_TRUE(buddy_.Validate().ok());
}

TEST_F(BuddyTest, TrimRefusesATopFreeBlockThatIsNotAloneInItsList) {
  ASSERT_TRUE(buddy_.Allocate(256).ok());
  // Corrupt the upper half's free node: it now claims a successor.
  int64_t bogus_next = 0;
  std::memcpy(heap_.data() + kHeapSize / 2, &bogus_next, sizeof(bogus_next));
  EXPECT_EQ(buddy_.TrimFreeTail(4096).code(), StatusCode::kDataLoss);
  EXPECT_EQ(buddy_.heap_size(), kHeapSize);
}

TEST_F(BuddyTest, LogSinkSeesMetadataWrites) {
  struct Capture {
    std::vector<std::pair<void*, size_t>> writes;
  } capture;
  LogSink sink{&capture, [](void* ctx, void* addr, size_t size) {
                 static_cast<Capture*>(ctx)->writes.emplace_back(addr, size);
               }};
  buddy_.set_log_sink(sink);
  auto offset = buddy_.Allocate(256);
  ASSERT_TRUE(offset.ok());
  EXPECT_FALSE(capture.writes.empty()) << "allocation must announce metadata writes";
  size_t before = capture.writes.size();
  ASSERT_TRUE(buddy_.Free(*offset).ok());
  EXPECT_GT(capture.writes.size(), before);
}

// Property test: a randomized allocate/free torture against a reference map,
// validating the allocator invariants throughout.
class BuddyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuddyPropertyTest, RandomTortureKeepsInvariants) {
  constexpr size_t kHeapSize = 1 << 20;
  std::vector<uint8_t> meta(BuddyAllocator::MetaSize(kHeapSize));
  std::vector<uint8_t> heap(kHeapSize);
  ASSERT_TRUE(BuddyAllocator::Format(meta.data(), heap.data(), kHeapSize).ok());
  auto attached = BuddyAllocator::Attach(meta.data(), heap.data(), kHeapSize);
  ASSERT_TRUE(attached.ok());
  BuddyAllocator buddy = std::move(*attached);

  Xoshiro256 rng(GetParam());
  std::map<int64_t, size_t> live;
  uint64_t live_bytes = 0;

  for (int step = 0; step < 3000; ++step) {
    const bool do_alloc = live.empty() || rng.Below(100) < 60;
    if (do_alloc) {
      size_t size = 1 + rng.Below(32 * 1024);
      auto offset = buddy.Allocate(size);
      if (offset.ok()) {
        size_t block = buddy.BlockSize(*offset);
        ASSERT_GE(block, size);
        // No overlap with any live block.
        auto next = live.upper_bound(*offset);
        if (next != live.end()) {
          ASSERT_LE(*offset + static_cast<int64_t>(block), next->first);
        }
        if (next != live.begin()) {
          auto prev = std::prev(next);
          ASSERT_LE(prev->first + static_cast<int64_t>(prev->second), *offset);
        }
        live[*offset] = block;
        live_bytes += block;
      }
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      ASSERT_TRUE(buddy.Free(it->first).ok());
      live_bytes -= it->second;
      live.erase(it);
    }
    ASSERT_EQ(buddy.free_bytes(), kHeapSize - live_bytes) << "at step " << step;
    if (step % 500 == 0) {
      ASSERT_TRUE(buddy.Validate().ok()) << "at step " << step;
    }
  }
  ASSERT_TRUE(buddy.Validate().ok());

  // Drain and verify complete coalescing.
  for (const auto& [offset, size] : live) {
    ASSERT_TRUE(buddy.Free(offset).ok());
  }
  EXPECT_EQ(buddy.free_bytes(), kHeapSize);
  EXPECT_TRUE(buddy.Allocate(kHeapSize).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace puddles
