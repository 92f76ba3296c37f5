#include "src/alloc/object_heap.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "src/common/rng.h"

namespace puddles {

struct TestNode {
  TestNode* next;
  uint64_t value;
};

struct BigRecord {
  char payload[1000];
};

namespace {

class ObjectHeapTest : public ::testing::Test {
 protected:
  static constexpr size_t kHeapSize = 1 << 20;

  void SetUp() override {
    meta_.resize(ObjectHeap::MetaSize(kHeapSize));
    heap_buf_.resize(kHeapSize);
    ASSERT_TRUE(ObjectHeap::Format(meta_.data(), heap_buf_.data(), kHeapSize).ok());
    auto attached = ObjectHeap::Attach(meta_.data(), heap_buf_.data(), kHeapSize);
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();
    heap_ = std::move(*attached);
  }

  std::vector<uint8_t> meta_;
  std::vector<uint8_t> heap_buf_;
  ObjectHeap heap_;
};

TEST_F(ObjectHeapTest, TypedAllocationCarriesTypeId) {
  auto node = heap_.AllocateTyped<TestNode>();
  ASSERT_TRUE(node.ok());
  const ObjectHeader* header = heap_.HeaderOf(*node);
  ASSERT_NE(header, nullptr);
  EXPECT_EQ(header->type_id, TypeIdOf<TestNode>());
  EXPECT_EQ(header->size, sizeof(TestNode));
}

TEST_F(ObjectHeapTest, SmallObjectsGoToSlabs) {
  // Two small same-type objects should land adjacent within one slab.
  auto a = heap_.AllocateTyped<TestNode>();
  auto b = heap_.AllocateTyped<TestNode>();
  ASSERT_TRUE(a.ok() && b.ok());
  auto delta = reinterpret_cast<intptr_t>(*b) - reinterpret_cast<intptr_t>(*a);
  EXPECT_LT(std::abs(delta), static_cast<intptr_t>(kSlabBlockSize));
}

TEST_F(ObjectHeapTest, LargeObjectsGoToBuddy) {
  auto big = heap_.AllocateTyped<BigRecord>();
  ASSERT_TRUE(big.ok());
  const ObjectHeader* header = heap_.HeaderOf(*big);
  ASSERT_NE(header, nullptr);
  EXPECT_EQ(header->size, sizeof(BigRecord));
  EXPECT_TRUE(heap_.IsLiveObject(*big));
}

TEST_F(ObjectHeapTest, ArrayAllocation) {
  auto arr = heap_.AllocateTyped<TestNode>(100);
  ASSERT_TRUE(arr.ok());
  const ObjectHeader* header = heap_.HeaderOf(*arr);
  ASSERT_NE(header, nullptr);
  EXPECT_EQ(header->size, 100 * sizeof(TestNode));
  EXPECT_EQ(header->type_id, TypeIdOf<TestNode>());
}

TEST_F(ObjectHeapTest, FreeMakesObjectDead) {
  auto node = heap_.AllocateTyped<TestNode>();
  ASSERT_TRUE(node.ok());
  EXPECT_TRUE(heap_.IsLiveObject(*node));
  ASSERT_TRUE(heap_.Free(*node).ok());
  EXPECT_FALSE(heap_.IsLiveObject(*node));
  EXPECT_FALSE(heap_.Free(*node).ok()) << "double free must be rejected";
}

TEST_F(ObjectHeapTest, ZeroSizeRejected) {
  auto r = heap_.Allocate(0, kRawBytesTypeId);
  EXPECT_FALSE(r.ok());
}

TEST_F(ObjectHeapTest, ForEachObjectSeesMixedSizes) {
  auto small = heap_.AllocateTyped<TestNode>();
  auto big = heap_.AllocateTyped<BigRecord>();
  auto raw = heap_.Allocate(5000, kRawBytesTypeId);
  ASSERT_TRUE(small.ok() && big.ok() && raw.ok());

  std::map<void*, TypeId> seen;
  heap_.ForEachObject([&](void* payload, const ObjectHeader& header, size_t capacity) {
    EXPECT_GE(capacity, header.size) << "slot/block must hold the requested payload";
    seen[payload] = header.type_id;
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[*small], TypeIdOf<TestNode>());
  EXPECT_EQ(seen[*big], TypeIdOf<BigRecord>());
  EXPECT_EQ(seen[static_cast<void*>(*raw)], kRawBytesTypeId);
}

TEST_F(ObjectHeapTest, ForEachSkipsFreedObjects) {
  auto a = heap_.AllocateTyped<TestNode>();
  auto b = heap_.AllocateTyped<TestNode>();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(heap_.Free(*a).ok());
  std::set<void*> seen;
  heap_.ForEachObject(
      [&](void* payload, const ObjectHeader&, size_t) { seen.insert(payload); });
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen.count(*b));
}

TEST_F(ObjectHeapTest, ReattachSeesSameObjects) {
  auto node = heap_.AllocateTyped<TestNode>();
  ASSERT_TRUE(node.ok());
  (*node)->value = 77;

  // Simulate a process restart: attach fresh over the same memory.
  auto reattached = ObjectHeap::Attach(meta_.data(), heap_buf_.data(), kHeapSize);
  ASSERT_TRUE(reattached.ok());
  int count = 0;
  reattached->ForEachObject([&](void* payload, const ObjectHeader& header, size_t) {
    ++count;
    EXPECT_EQ(header.type_id, TypeIdOf<TestNode>());
    EXPECT_EQ(static_cast<TestNode*>(payload)->value, 77u);
  });
  EXPECT_EQ(count, 1);
}

TEST_F(ObjectHeapTest, HeaderOfRejectsGarbagePointers) {
  EXPECT_EQ(heap_.HeaderOf(nullptr), nullptr);
  EXPECT_EQ(heap_.HeaderOf(heap_buf_.data()), nullptr);  // Heap start, no header before it.
  int stack_var;
  EXPECT_EQ(heap_.HeaderOf(&stack_var), nullptr);
}

TEST_F(ObjectHeapTest, CapacityOfMatchesForEachObject) {
  auto small = heap_.AllocateTyped<TestNode>();  // 16 + 16 B: a 32 B slab slot.
  auto big = heap_.AllocateTyped<BigRecord>();   // 1016 B: a 1 KiB buddy block.
  ASSERT_TRUE(small.ok() && big.ok());
  std::map<const void*, size_t> reported;
  heap_.ForEachObject([&](void* payload, const ObjectHeader&, size_t capacity) {
    reported[payload] = capacity;
  });
  EXPECT_EQ(heap_.CapacityOf(*small), 32u - sizeof(ObjectHeader));
  EXPECT_EQ(heap_.CapacityOf(*big), 1024u - sizeof(ObjectHeader));
  EXPECT_EQ(heap_.CapacityOf(*small), reported[*small]);
  EXPECT_EQ(heap_.CapacityOf(*big), reported[*big]);
  // Inside an object, not at the start of a slot or block: no capacity.
  EXPECT_EQ(heap_.CapacityOf(reinterpret_cast<uint8_t*>(*small) + 8), 0u);
  EXPECT_EQ(heap_.CapacityOf(reinterpret_cast<uint8_t*>(*big) + 64), 0u);
}

TEST_F(ObjectHeapTest, ExhaustionReportsOutOfMemory) {
  std::vector<void*> allocations;
  while (true) {
    auto r = heap_.Allocate(32 * 1024 - 16, kRawBytesTypeId);  // Exactly one 32 KiB block.
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kOutOfMemory);
      break;
    }
    allocations.push_back(*r);
  }
  EXPECT_GT(allocations.size(), 10u);
  for (void* p : allocations) {
    ASSERT_TRUE(heap_.Free(p).ok());
  }
  EXPECT_EQ(heap_.free_bytes(), kHeapSize);
}

class ObjectHeapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ObjectHeapPropertyTest, TortureWithIterationCrossCheck) {
  constexpr size_t kHeapSize = 1 << 20;
  std::vector<uint8_t> meta(ObjectHeap::MetaSize(kHeapSize));
  std::vector<uint8_t> heap_buf(kHeapSize);
  ASSERT_TRUE(ObjectHeap::Format(meta.data(), heap_buf.data(), kHeapSize).ok());
  auto attached = ObjectHeap::Attach(meta.data(), heap_buf.data(), kHeapSize);
  ASSERT_TRUE(attached.ok());
  ObjectHeap heap = std::move(*attached);

  Xoshiro256 rng(GetParam());
  std::map<void*, std::pair<size_t, uint8_t>> live;  // payload -> (size, fill byte)

  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Below(100) < 55) {
      size_t size = 1 + rng.Below(2048);
      auto r = heap.Allocate(size, kRawBytesTypeId);
      if (!r.ok()) {
        continue;
      }
      auto fill = static_cast<uint8_t>(rng.Below(255) + 1);
      std::memset(*r, fill, size);
      live[*r] = {size, fill};
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      // Contents must be intact right up to the free: catches any allocator
      // metadata overlapping user payloads.
      auto* bytes = static_cast<uint8_t*>(it->first);
      for (size_t i = 0; i < it->second.first; ++i) {
        ASSERT_EQ(bytes[i], it->second.second) << "payload corrupted at byte " << i;
      }
      ASSERT_TRUE(heap.Free(it->first).ok());
      live.erase(it);
    }
    if (step % 500 == 0) {
      // Iteration must see exactly the live set.
      std::set<void*> seen;
      heap.ForEachObject(
          [&](void* payload, const ObjectHeader&, size_t) { seen.insert(payload); });
      ASSERT_EQ(seen.size(), live.size()) << "step " << step;
      for (const auto& [payload, meta_info] : live) {
        ASSERT_TRUE(seen.count(payload)) << "live object missing from iteration";
      }
      ASSERT_TRUE(heap.Validate().ok());
    }
  }
  for (const auto& [payload, info] : live) {
    ASSERT_TRUE(heap.Free(payload).ok());
  }
  EXPECT_EQ(heap.free_bytes(), kHeapSize);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectHeapPropertyTest, ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace puddles
