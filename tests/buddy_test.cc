#include "src/alloc/buddy.h"

#include <gtest/gtest.h>

#include <algorithm>
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

  // An export's cut, made in place: TailCut at a 4 KiB page, then CutAt.
  puddles::Status TrimToPage() {
    ASSIGN_OR_RETURN(const size_t cut, buddy_.TailCut(4096));
    return buddy_.CutAt(cut);
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

// The cut lands on the first page above the highest allocated block: a
// 256 B block at 512 KiB ends the heap at 516 KiB, and the free lower half
// and the free blocks left of the cut inside that page stay.
TEST_F(BuddyTest, TrimCutsAtThePageAboveTheHighestBlock) {
  auto lower = buddy_.Allocate(kHeapSize / 2);
  auto upper = buddy_.Allocate(256);
  ASSERT_TRUE(lower.ok() && upper.ok());
  ASSERT_EQ(static_cast<size_t>(*upper), kHeapSize / 2);
  ASSERT_TRUE(buddy_.Free(*lower).ok());
  ASSERT_TRUE(TrimToPage().ok());
  EXPECT_EQ(buddy_.heap_size(), 528384u);  // 516 KiB.
  EXPECT_EQ(buddy_.free_bytes(), 528384u - 256);
  EXPECT_TRUE(buddy_.Validate().ok()) << buddy_.Validate().ToString();
  EXPECT_TRUE(buddy_.IsAllocatedStart(*upper));
  EXPECT_TRUE(buddy_.CanAllocate(kHeapSize / 2));
  EXPECT_FALSE(buddy_.CanAllocate(kHeapSize / 2 + 1));
}

// A block ending at 128 KiB cuts the heap there, a power of two this time:
// the cut metadata reattaches, and frees coalesce back to one top block.
TEST_F(BuddyTest, TrimAtAPowerOfTwoReattachesAndCoalescesToOneBlock) {
  auto small = buddy_.Allocate(256);
  auto big = buddy_.Allocate(40 << 10);  // A 64 KiB block, ending at 128 KiB.
  ASSERT_TRUE(small.ok() && big.ok());
  ASSERT_EQ(*big + (64 << 10), 128 << 10);
  ASSERT_TRUE(TrimToPage().ok());
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
  ASSERT_TRUE(TrimToPage().ok());
  EXPECT_EQ(buddy_.heap_size(), 4096u);
  EXPECT_TRUE(buddy_.Validate().ok());
}

// Blocks are aligned to their size, so only the one-granule minimum can make
// a free block straddle the cut: an empty heap's single block keeps its
// first page, as a free block of its own.
TEST_F(BuddyTest, TrimSplitsTheStraddlingFreeBlockAtTheCut) {
  ASSERT_TRUE(TrimToPage().ok());
  EXPECT_EQ(buddy_.heap_size(), 4096u);
  EXPECT_EQ(buddy_.free_bytes(), 4096u);
  ASSERT_TRUE(buddy_.Validate().ok()) << buddy_.Validate().ToString();
  auto whole = buddy_.Allocate(4096);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(*whole, 0);
  EXPECT_FALSE(buddy_.CanAllocate(256));
}

// Three pages cut at 12 KiB: the 8 KiB block at 0 has its buddy at 8 KiB,
// which would reach to 16 KiB, so frees next to the cut merge no further.
TEST_F(BuddyTest, FreeNextToTheCutDoesNotCoalescePastIt) {
  std::vector<int64_t> pages;
  for (int i = 0; i < 3; ++i) {
    auto page = buddy_.Allocate(4096);
    ASSERT_TRUE(page.ok());
    pages.push_back(*page);
  }
  ASSERT_EQ(pages.back(), 8192);
  ASSERT_TRUE(TrimToPage().ok());
  ASSERT_EQ(buddy_.heap_size(), 12288u);
  ASSERT_EQ(buddy_.free_bytes(), 0u);
  for (int64_t page : pages) {
    ASSERT_TRUE(buddy_.Free(page).ok());
    ASSERT_TRUE(buddy_.Validate().ok()) << buddy_.Validate().ToString();
  }
  EXPECT_EQ(buddy_.free_bytes(), 12288u);
  EXPECT_FALSE(buddy_.CanAllocate(8192 + 1));
  auto eight = buddy_.Allocate(8192);
  auto four = buddy_.Allocate(4096);
  ASSERT_TRUE(eight.ok() && four.ok());
  EXPECT_EQ(*eight, 0);
  EXPECT_EQ(*four, 8192);
  EXPECT_FALSE(buddy_.CanAllocate(256));
}

// A heap cut at 36 KiB, not a power of two, attaches at that size,
// validates, and allocates and frees within it.
TEST_F(BuddyTest, CutHeapReattachesValidatesAndAllocates) {
  // 256 B at 0 and 4, 8 and 16 KiB blocks fill their free buddies; the last
  // 4 KiB comes from the 32 KiB block and ends at 36 KiB.
  std::vector<int64_t> blocks;
  for (size_t size : {256u, 4096u, 8192u, 16384u, 4096u}) {
    auto block = buddy_.Allocate(size);
    ASSERT_TRUE(block.ok());
    blocks.push_back(*block);
  }
  ASSERT_EQ(blocks.back(), 32768);
  ASSERT_TRUE(TrimToPage().ok());
  ASSERT_EQ(buddy_.heap_size(), 36864u);
  EXPECT_EQ(buddy_.free_bytes(), 4096u - 256);  // 256, 512, 1 KiB and 2 KiB blocks.

  EXPECT_FALSE(BuddyAllocator::Attach(meta_.data(), heap_.data(), kHeapSize).ok());
  auto cut = BuddyAllocator::Attach(meta_.data(), heap_.data(), 36864);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  ASSERT_TRUE(cut->Validate().ok()) << cut->Validate().ToString();
  EXPECT_FALSE(cut->CanAllocate(4096));
  auto small = cut->Allocate(2048);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(*small, 2048);
  ASSERT_TRUE(cut->Free(blocks[3]).ok());  // 16 KiB; its buddy at 0 is in use.
  ASSERT_TRUE(cut->Free(blocks[4]).ok());  // Next to the cut.
  EXPECT_EQ(cut->free_bytes(), 4096u - 256 - 2048 + 16384 + 4096);
  ASSERT_TRUE(cut->Validate().ok()) << cut->Validate().ToString();
  auto again = cut->Allocate(16384);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 16384);
  EXPECT_FALSE(cut->CanAllocate(16384));
}

// An export cuts a copy of only the bytes below the cut: CutAt neither
// reads nor writes a byte past it, so garbage there changes nothing.
TEST_F(BuddyTest, CutAtReadsNothingPastTheCut) {
  for (size_t size : {256u, 4096u, 8192u}) {
    ASSERT_TRUE(buddy_.Allocate(size).ok());
  }
  auto cut = buddy_.TailCut(4096);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  ASSERT_EQ(*cut, 16384u);
  std::memset(heap_.data() + *cut, 0xAB, kHeapSize - *cut);
  ASSERT_TRUE(buddy_.CutAt(*cut).ok());
  EXPECT_EQ(buddy_.heap_size(), 16384u);
  EXPECT_EQ(buddy_.free_bytes(), 4096u - 256);
  EXPECT_TRUE(buddy_.Validate().ok()) << buddy_.Validate().ToString();
  EXPECT_TRUE(std::all_of(heap_.begin() + *cut, heap_.end(), [](uint8_t b) { return b == 0xAB; }));
}

// A cut through an allocated block is DataLoss.
TEST_F(BuddyTest, CutAtRefusesToCutAnAllocatedBlock) {
  auto block = buddy_.Allocate(8192);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(*block, 0);
  EXPECT_EQ(buddy_.CutAt(4096).code(), StatusCode::kDataLoss);
}

// A corrupt free list fails the trim's validation: DataLoss, and the heap
// keeps its size.
TEST_F(BuddyTest, TrimRefusesACorruptFreeList) {
  ASSERT_TRUE(buddy_.Allocate(256).ok());
  // Corrupt the upper half's free node: it now claims a successor.
  int64_t bogus_next = 0;
  std::memcpy(heap_.data() + kHeapSize / 2, &bogus_next, sizeof(bogus_next));
  EXPECT_EQ(TrimToPage().code(), StatusCode::kDataLoss);
  EXPECT_EQ(buddy_.heap_size(), kHeapSize);
  EXPECT_EQ(buddy_.free_bytes(), kHeapSize - 256);
}

// Validate bounds every block it follows, so it can vet untrusted metadata:
// a free list naming a block past the heap's end is DataLoss.
TEST_F(BuddyTest, ValidateRejectsAFreeBlockPastTheHeapEnd) {
  ASSERT_TRUE(buddy_.Allocate(256).ok());
  int64_t past_end = static_cast<int64_t>(kHeapSize);
  std::memcpy(heap_.data() + kHeapSize / 2, &past_end, sizeof(past_end));
  EXPECT_EQ(buddy_.Validate().code(), StatusCode::kDataLoss);
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
