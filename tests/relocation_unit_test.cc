// Unit tests for the pieces of the relocation engine: range bookkeeping
// (RangeAllocator), address translation (Translator — the sorted interval
// table, its hardened Add, and its equivalence with the linear reference
// scan), and the streaming pointer-rewrite pass over a puddle heap —
// including frontier resume and byte-stability, the properties crash-resumed
// rewrites rely on (§4.2, DESIGN.md §7).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/range_allocator.h"
#include "src/common/rng.h"
#include "src/libpuddles/relocation.h"
#include "src/libpuddles/type_registry.h"

namespace puddles {

struct RelNode {
  RelNode* next;
  RelNode* prev;
  uint64_t payload;
};

namespace {

// The process registry as RewritePuddle's pointer-map lookup.
const PtrMapRecord* Registered(TypeId type_id) { return TypeRegistry::Instance().Lookup(type_id); }

TEST(RangeAllocatorTest, AllocateClaimFreeCycle) {
  RangeAllocator alloc(0x1000000, 0x100000);
  auto a = alloc.Allocate(0x10000);
  ASSERT_TRUE(a.ok());
  EXPECT_GE(*a, 0x1000000u);
  auto b = alloc.Allocate(0x10000);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_FALSE(alloc.IsFree(*a, 0x10000));
  ASSERT_TRUE(alloc.Free(*a).ok());
  EXPECT_TRUE(alloc.IsFree(*a, 0x10000));
  // First-fit reuses the freed hole.
  auto c = alloc.Allocate(0x10000);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);
}

TEST(RangeAllocatorTest, ClaimRejectsOverlap) {
  RangeAllocator alloc(0, 0x100000);
  ASSERT_TRUE(alloc.Claim(0x10000, 0x10000).ok());
  EXPECT_FALSE(alloc.Claim(0x10000, 0x1000).ok());
  EXPECT_FALSE(alloc.Claim(0x18000, 0x10000).ok());
  EXPECT_FALSE(alloc.Claim(0x8000, 0x10000).ok());
  EXPECT_TRUE(alloc.Claim(0x20000, 0x1000).ok());
  EXPECT_FALSE(alloc.Claim(0x200000, 0x1000).ok()) << "outside managed range";
  // A base near 2^64 whose end wraps past zero is outside too.
  EXPECT_FALSE(alloc.Claim(~uint64_t{0xfff}, 0x2000).ok());
  EXPECT_FALSE(alloc.IsFree(~uint64_t{0xfff}, 0x2000));
}

TEST(RangeAllocatorTest, ContainingLookup) {
  RangeAllocator alloc(0, 0x100000);
  ASSERT_TRUE(alloc.Claim(0x10000, 0x10000).ok());
  auto hit = alloc.Containing(0x15000);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->first, 0x10000u);
  EXPECT_EQ(hit->second, 0x10000u);
  EXPECT_FALSE(alloc.Containing(0x20000).ok());
  EXPECT_FALSE(alloc.Containing(0xfff).ok());
}

TEST(RangeAllocatorTest, Exhaustion) {
  RangeAllocator alloc(0, 0x3000);
  ASSERT_TRUE(alloc.Allocate(0x1000).ok());
  ASSERT_TRUE(alloc.Allocate(0x1000).ok());
  ASSERT_TRUE(alloc.Allocate(0x1000).ok());
  auto full = alloc.Allocate(0x1000);
  EXPECT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kOutOfMemory);
}

// First fit skips a gap too small for the request and never overlaps an
// existing claim; allocations come back page-aligned and disjoint.
TEST(RangeAllocatorTest, AllocateRoutesAroundClaims) {
  RangeAllocator alloc(0x1000000, 0x400000);
  const uint64_t claimed = 0x1000000 + 0x100000;
  ASSERT_TRUE(alloc.Claim(claimed, 0x100000).ok());
  auto big = alloc.Allocate(0x180000);  // Larger than the gap below the claim.
  ASSERT_TRUE(big.ok());
  EXPECT_GE(*big, claimed + 0x100000);
  auto small = alloc.Allocate(0x1001);  // Fits below the claim; rounds to 2 pages.
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(*small, 0x1000000u);
  EXPECT_FALSE(alloc.IsFree(*small + 0x1000, 0x1000));
  auto next = alloc.Allocate(0x1000);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, *small + 0x2000);
  EXPECT_EQ(alloc.count(), 4u);
}

TEST(TranslatorTest, TranslatesOnlyOldRanges) {
  Translator translator;
  ASSERT_TRUE(translator.Add(/*old_base=*/0x1000, /*size=*/0x1000, /*new_base=*/0x9000).ok());
  ASSERT_TRUE(translator.Add(0x5000, 0x1000, 0x2000).ok());  // Negative delta.

  uint64_t out = 0;
  EXPECT_TRUE(translator.Translate(0x1000, &out));
  EXPECT_EQ(out, 0x9000u);
  EXPECT_TRUE(translator.Translate(0x1fff, &out));
  EXPECT_EQ(out, 0x9fffu);
  EXPECT_TRUE(translator.Translate(0x5800, &out));
  EXPECT_EQ(out, 0x2800u);
  EXPECT_FALSE(translator.Translate(0x2000, &out)) << "one past end";
  EXPECT_FALSE(translator.Translate(0x9000, &out)) << "new range not translated";
  EXPECT_FALSE(translator.Translate(0, &out));
}

TEST(TranslatorTest, IdentityEntriesElided) {
  Translator translator;
  ASSERT_TRUE(translator.Add(0x1000, 0x1000, 0x1000).ok());
  EXPECT_TRUE(translator.empty());
}

TEST(TranslatorTest, AddRejectsWraparoundAndZeroSize) {
  Translator translator;
  // old_base + size wraps past UINT64_MAX: accepting it would make [old_lo,
  // old_hi) swallow nearly every address (same hazard as the
  // RangeResolver::Resolve overflow fix, §4.6).
  EXPECT_FALSE(translator.Add(~uint64_t{0} - 0x100, 0x1000, 0x9000).ok());
  EXPECT_FALSE(translator.Add(0x1000, 0, 0x9000).ok());
  EXPECT_TRUE(translator.empty());
  uint64_t out = 0;
  EXPECT_FALSE(translator.Translate(0x10, &out));
  EXPECT_FALSE(translator.Translate(~uint64_t{0} - 0x50, &out));
}

TEST(TranslatorTest, AddRejectsOverlappingAndDuplicateRanges) {
  Translator translator;
  ASSERT_TRUE(translator.Add(0x10000, 0x1000, 0x90000).ok());
  EXPECT_FALSE(translator.Add(0x10000, 0x1000, 0xa0000).ok()) << "duplicate";
  EXPECT_FALSE(translator.Add(0x10800, 0x1000, 0xa0000).ok()) << "overlaps tail";
  EXPECT_FALSE(translator.Add(0xf800, 0x1000, 0xa0000).ok()) << "overlaps head";
  EXPECT_FALSE(translator.Add(0xf000, 0x4000, 0xa0000).ok()) << "encloses";
  EXPECT_FALSE(translator.Add(0x10400, 0x100, 0xa0000).ok()) << "contained";
  EXPECT_EQ(translator.size(), 1u);
  // Adjacent, non-overlapping ranges are fine.
  EXPECT_TRUE(translator.Add(0x11000, 0x1000, 0xb0000).ok());
  EXPECT_TRUE(translator.Add(0xf000, 0x1000, 0xc0000).ok());
  uint64_t out = 0;
  EXPECT_TRUE(translator.Translate(0x10500, &out));
  EXPECT_EQ(out, 0x90500u) << "rejected Adds must not disturb the table";
}

TEST(TranslatorTest, BinarySearchMatchesLinearOnRandomizedInputs) {
  // Differential test for the interval table + MRU cache against the O(E)
  // reference scan, across entry counts bracketing the bench configurations.
  for (size_t num_entries : {1u, 8u, 64u, 512u}) {
    Translator translator;
    Xoshiro256 rng(0x5eed + num_entries);
    std::vector<std::pair<uint64_t, uint64_t>> ranges;  // {lo, size}
    uint64_t cursor = 0x100000;
    for (size_t i = 0; i < num_entries; ++i) {
      cursor += 0x1000 + rng.Below(0x40000);  // Random gaps keep ranges disjoint.
      const uint64_t size = 0x1000 * (1 + rng.Below(16));
      ASSERT_TRUE(translator.Add(cursor, size, 0x4000000000ULL + i * 0x1000000).ok());
      ranges.push_back({cursor, size});
      cursor += size;
    }
    for (int probe = 0; probe < 20000; ++probe) {
      uint64_t addr;
      switch (rng.Below(4)) {
        case 0: {  // Inside a range (with locality runs the MRU serves).
          auto& [lo, size] = ranges[rng.Below(ranges.size())];
          addr = lo + rng.Below(size);
          break;
        }
        case 1: {  // Boundary probes: lo-1, lo, hi-1, hi.
          auto& [lo, size] = ranges[rng.Below(ranges.size())];
          const uint64_t edges[4] = {lo - 1, lo, lo + size - 1, lo + size};
          addr = edges[rng.Below(4)];
          break;
        }
        default:
          addr = rng();
          break;
      }
      uint64_t indexed = 0, linear = 0;
      const bool indexed_hit = translator.Translate(addr, &indexed);
      const bool linear_hit = translator.TranslateLinear(addr, &linear);
      ASSERT_EQ(indexed_hit, linear_hit) << "addr=" << std::hex << addr;
      if (indexed_hit) {
        ASSERT_EQ(indexed, linear) << "addr=" << std::hex << addr;
      }
    }
  }
}

class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)TypeRegistry::Instance().Register<RelNode>(
        {offsetof(RelNode, next), offsetof(RelNode, prev)});
    params_.kind = PuddleKind::kData;
    params_.heap_size = 1 << 20;
    params_.uuid = Uuid::Generate();
    params_.base_addr = 0x40000000000ULL;
    size_t file_size = Puddle::FileSizeFor(params_.kind, params_.heap_size);
    file_.resize(file_size);
    EXPECT_TRUE(Puddle::Format(file_.data(), file_size, params_).ok());
    auto puddle = Puddle::Attach(file_.data(), file_size);
    EXPECT_TRUE(puddle.ok());
    puddle_ = *puddle;
  }

  PuddleParams params_;
  std::vector<uint8_t> file_;
  Puddle puddle_;
};

TEST_F(RewriteTest, RewritesRegisteredPointerFields) {
  auto heap = puddle_.object_heap();
  ASSERT_TRUE(heap.ok());
  auto node = heap->AllocateTyped<RelNode>();
  ASSERT_TRUE(node.ok());
  // Pointers into a pretend old range [0x1000, 0x2000); payload must not move.
  (*node)->next = reinterpret_cast<RelNode*>(0x1100);
  (*node)->prev = reinterpret_cast<RelNode*>(0x1f00);
  (*node)->payload = 0x1500;  // Looks like an old-range address but is data.

  Translator translator;
  ASSERT_TRUE(translator.Add(0x1000, 0x1000, 0x100000).ok());
  puddle_.AssignNewBase(puddle_.base_addr() + 0x1000000);  // Mark needs-rewrite.

  auto stats = RewritePuddle(puddle_, translator, Registered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pointers_rewritten, 2u);
  EXPECT_EQ((*node)->next, reinterpret_cast<RelNode*>(0x100100));
  EXPECT_EQ((*node)->prev, reinterpret_cast<RelNode*>(0x100f00));
  EXPECT_EQ((*node)->payload, 0x1500u) << "non-pointer field untouched (pointer maps!)";
  EXPECT_FALSE(puddle_.needs_rewrite());
}

TEST_F(RewriteTest, RewriteIsIdempotent) {
  auto heap = puddle_.object_heap();
  ASSERT_TRUE(heap.ok());
  auto node = heap->AllocateTyped<RelNode>();
  ASSERT_TRUE(node.ok());
  (*node)->next = reinterpret_cast<RelNode*>(0x1100);
  (*node)->prev = nullptr;

  Translator translator;
  ASSERT_TRUE(translator.Add(0x1000, 0x1000, 0x100000).ok());

  // Run the rewrite twice — as after a crash mid-rewrite. The second pass
  // must not double-translate (new range is outside every old range).
  ASSERT_TRUE(RewritePuddle(puddle_, translator, Registered).ok());
  EXPECT_EQ((*node)->next, reinterpret_cast<RelNode*>(0x100100));
  ASSERT_TRUE(RewritePuddle(puddle_, translator, Registered).ok());
  EXPECT_EQ((*node)->next, reinterpret_cast<RelNode*>(0x100100));
}

TEST_F(RewriteTest, ArraysStrideByElementSize) {
  auto heap = puddle_.object_heap();
  ASSERT_TRUE(heap.ok());
  auto arr = heap->AllocateTyped<RelNode>(8);
  ASSERT_TRUE(arr.ok());
  for (int i = 0; i < 8; ++i) {
    (*arr)[i].next = reinterpret_cast<RelNode*>(0x1000 + i * 8);
    (*arr)[i].prev = nullptr;
    (*arr)[i].payload = static_cast<uint64_t>(i);
  }
  Translator translator;
  ASSERT_TRUE(translator.Add(0x1000, 0x1000, 0x200000).ok());
  auto stats = RewritePuddle(puddle_, translator, Registered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pointers_rewritten, 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ((*arr)[i].next, reinterpret_cast<RelNode*>(0x200000 + i * 8)) << i;
    EXPECT_EQ((*arr)[i].payload, static_cast<uint64_t>(i));
  }
}

TEST_F(RewriteTest, RawBytesNeverTouched) {
  auto heap = puddle_.object_heap();
  ASSERT_TRUE(heap.ok());
  auto raw = heap->Allocate(64, kRawBytesTypeId);
  ASSERT_TRUE(raw.ok());
  auto* words = static_cast<uint64_t*>(*raw);
  words[0] = 0x1100;  // Would translate if treated as a pointer.

  Translator translator;
  ASSERT_TRUE(translator.Add(0x1000, 0x1000, 0x300000).ok());
  auto stats = RewritePuddle(puddle_, translator, Registered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pointers_rewritten, 0u);
  EXPECT_EQ(words[0], 0x1100u);
}

// An object whose type has no pointer map may hold pointers nothing can
// find. The rewrite must not pass it: the frontier persists at that object
// and the puddle stays flagged, so a run that has the map resumes there.
TEST_F(RewriteTest, UnknownTypeStopsTheRewriteAtItsObject) {
  struct Unmapped {
    RelNode* next;
    uint64_t a;
    uint64_t b;
  };
  static_assert(sizeof(Unmapped) == sizeof(RelNode), "one slab class keeps walk order");
  TypeRegistry& registry = TypeRegistry::Instance();  // Unmapped: registered below.

  auto heap = puddle_.object_heap();
  ASSERT_TRUE(heap.ok());
  auto before = heap->AllocateTyped<RelNode>();
  auto unmapped = heap->AllocateTyped<Unmapped>();
  auto after = heap->AllocateTyped<RelNode>();
  ASSERT_TRUE(before.ok() && unmapped.ok() && after.ok());
  (*before)->next = reinterpret_cast<RelNode*>(0x1100);
  (*unmapped)->next = reinterpret_cast<RelNode*>(0x1300);
  (*after)->next = reinterpret_cast<RelNode*>(0x1200);

  Translator translator;
  ASSERT_TRUE(translator.Add(0x1000, 0x1000, 0x100000).ok());
  puddle_.AssignNewBase(puddle_.base_addr() + 0x1000000);

  auto stopped = RewritePuddle(puddle_, translator, Registered);
  EXPECT_EQ(stopped.status().code(), StatusCode::kFailedPrecondition)
      << stopped.status().ToString();
  EXPECT_TRUE(puddle_.needs_rewrite());
  EXPECT_EQ(puddle_.rewrite_frontier(), 1u) << "durable up to the unmapped object";
  EXPECT_EQ((*before)->next, reinterpret_cast<RelNode*>(0x100100));
  EXPECT_EQ((*unmapped)->next, reinterpret_cast<RelNode*>(0x1300));
  EXPECT_EQ((*after)->next, reinterpret_cast<RelNode*>(0x1200)) << "nothing past the stop";

  ASSERT_TRUE(registry.Register<Unmapped>(&Unmapped::next).ok());
  auto resumed = RewritePuddle(puddle_, translator, Registered);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->objects_skipped_resume, 1u);
  EXPECT_EQ(resumed->pointers_rewritten, 2u);
  EXPECT_EQ((*before)->next, reinterpret_cast<RelNode*>(0x100100)) << "not translated twice";
  EXPECT_EQ((*unmapped)->next, reinterpret_cast<RelNode*>(0x100300));
  EXPECT_EQ((*after)->next, reinterpret_cast<RelNode*>(0x100200));
  EXPECT_FALSE(puddle_.needs_rewrite());
}

TEST_F(RewriteTest, ResumesFromPersistedFrontier) {
  auto heap = puddle_.object_heap();
  ASSERT_TRUE(heap.ok());
  // 12 nodes, each pointing into the old range; the walk visits them in
  // address order, so node i has walk index i.
  constexpr int kNodes = 12;
  std::vector<RelNode*> nodes;
  for (int i = 0; i < kNodes; ++i) {
    auto node = heap->AllocateTyped<RelNode>();
    ASSERT_TRUE(node.ok());
    (*node)->next = reinterpret_cast<RelNode*>(0x1000 + i * 16);
    (*node)->prev = nullptr;
    (*node)->payload = static_cast<uint64_t>(i);
    nodes.push_back(*node);
  }

  Translator translator;
  ASSERT_TRUE(translator.Add(0x1000, 0x1000, 0x100000).ok());

  // Simulate a crash mid-rewrite: the frontier says the first 5 objects are
  // durably translated. Reflect that in the heap (they WERE translated before
  // the crash) and run the resume.
  puddle_.AssignNewBase(puddle_.base_addr() + 0x1000000);
  EXPECT_EQ(puddle_.rewrite_frontier(), 0u) << "new assignment restarts the rewrite";
  constexpr uint64_t kFrontier = 5;
  for (uint64_t i = 0; i < kFrontier; ++i) {
    nodes[i]->next = reinterpret_cast<RelNode*>(0x100000 + i * 16);
  }
  puddle_.AdvanceRewriteFrontier(kFrontier);

  RewriteOptions options;
  options.batch_objects = 3;  // Force several frontier advances.
  auto stats = RewritePuddle(puddle_, translator, Registered, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->objects_skipped_resume, kFrontier);
  EXPECT_EQ(stats->objects_visited, static_cast<uint64_t>(kNodes) - kFrontier);
  EXPECT_EQ(stats->pointers_rewritten, static_cast<uint64_t>(kNodes) - kFrontier);
  EXPECT_GE(stats->frontier_advances, 2u) << "batch=3 over 7 objects persists progress";
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(nodes[i]->next, reinterpret_cast<RelNode*>(0x100000 + i * 16)) << i;
  }
  EXPECT_FALSE(puddle_.needs_rewrite());
  EXPECT_EQ(puddle_.rewrite_frontier(), 0u) << "CompleteRewrite resets the frontier";
}

TEST_F(RewriteTest, FrontierMakesHeapFlushToFlagClearGapByteStable) {
  // The satellite-3 crash window: everything is translated and flushed, the
  // final frontier is durable, but the crash hits before the needs-rewrite
  // flag clears. The re-run must leave the heap byte-identical EVEN when a
  // new base coincidentally lands inside another member's old range — the
  // case where re-translation is NOT idempotent: here member A's old range
  // [0x1000,0x2000) maps into [0x5000,0x6000), which is member B's old
  // range, so a second pass would bounce A's pointers on into 0x9xxx.
  auto heap = puddle_.object_heap();
  ASSERT_TRUE(heap.ok());
  auto node = heap->AllocateTyped<RelNode>();
  ASSERT_TRUE(node.ok());
  (*node)->next = reinterpret_cast<RelNode*>(0x1100);
  (*node)->prev = reinterpret_cast<RelNode*>(0x5f00);  // Straight into B's old range.
  (*node)->payload = 7;

  Translator translator;
  ASSERT_TRUE(translator.Add(0x1000, 0x1000, 0x5000).ok());  // A: new == B's old.
  ASSERT_TRUE(translator.Add(0x5000, 0x1000, 0x9000).ok());  // B.

  puddle_.AssignNewBase(puddle_.base_addr() + 0x1000000);
  ASSERT_TRUE(RewritePuddle(puddle_, translator, Registered).ok());
  EXPECT_EQ((*node)->next, reinterpret_cast<RelNode*>(0x5100));
  EXPECT_EQ((*node)->prev, reinterpret_cast<RelNode*>(0x9f00));

  // Crash: the flag-clear did not persist, but the final frontier did.
  // Reconstruct that durable state and re-run recovery's rewrite.
  puddle_.header()->flags |= kPuddleNeedsRewrite;
  puddle_.header()->rewrite_frontier = 1;  // One live object, fully processed.
  std::vector<uint8_t> before(puddle_.heap(), puddle_.heap() + puddle_.heap_size());
  auto stats = RewritePuddle(puddle_, translator, Registered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->objects_skipped_resume, 1u);
  EXPECT_EQ(stats->pointers_rewritten, 0u);
  EXPECT_EQ(std::memcmp(before.data(), puddle_.heap(), before.size()), 0)
      << "re-run must not double-translate 0x5100 into 0x9100";
  EXPECT_EQ((*node)->next, reinterpret_cast<RelNode*>(0x5100));
  EXPECT_FALSE(puddle_.needs_rewrite());
}

TEST_F(RewriteTest, InflatedObjectSizeCannotScanAllocatorSlack) {
  // Regression for the array-stride over-scan: an object whose recorded size
  // exceeds its slab slot's capacity must not have the walk stride into the
  // slot padding / neighboring slot, where garbage that happens to fall in a
  // moved old range would get "translated".
  auto heap = puddle_.object_heap();
  ASSERT_TRUE(heap.ok());
  auto node = heap->AllocateTyped<RelNode>();  // 24 B payload → 48 B slab slot.
  ASSERT_TRUE(node.ok());
  auto neighbor = heap->AllocateTyped<RelNode>();  // Adjacent slot in the slab.
  ASSERT_TRUE(neighbor.ok());
  (*node)->next = reinterpret_cast<RelNode*>(0x1100);
  (*node)->prev = nullptr;
  (*node)->payload = 1;
  (*neighbor)->next = nullptr;
  (*neighbor)->prev = nullptr;
  (*neighbor)->payload = 2;
  // Plant an old-range-looking value in the slot slack right after the
  // payload — exactly where element 1 of a phantom array would sit.
  auto* slack = reinterpret_cast<uint64_t*>(reinterpret_cast<uint8_t*>(*node) +
                                            sizeof(RelNode));
  *slack = 0x1200;
  // Corrupt the header: size now claims two elements (48 B > the slot's
  // payload capacity).
  auto* header = const_cast<ObjectHeader*>(heap->HeaderOf(*node));
  ASSERT_NE(header, nullptr);
  header->size = 2 * sizeof(RelNode);

  Translator translator;
  ASSERT_TRUE(translator.Add(0x1000, 0x1000, 0x700000).ok());
  auto stats = RewritePuddle(puddle_, translator, Registered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*node)->next, reinterpret_cast<RelNode*>(0x700100)) << "element 0 rewritten";
  EXPECT_EQ(*slack, 0x1200u) << "slack byte walked as a phantom element";
  EXPECT_EQ((*neighbor)->payload, 2u);
  header->size = sizeof(RelNode);  // Restore before the heap is validated.
}

TEST(TypeRegistryTest, RegistrationAndConflicts) {
  auto& registry = TypeRegistry::Instance();
  struct Fresh {
    Fresh* link;
    uint64_t v;
  };
  ASSERT_TRUE(registry.Register<Fresh>({offsetof(Fresh, link)}).ok());
  const PtrMapRecord* map = registry.Lookup(TypeIdOf<Fresh>());
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->num_fields, 1u);
  EXPECT_EQ(map->object_size, sizeof(Fresh));

  // Identical re-registration is a no-op; conflicting one is rejected.
  EXPECT_TRUE(registry.Register<Fresh>({offsetof(Fresh, link)}).ok());
  EXPECT_FALSE(registry.Register<Fresh>({offsetof(Fresh, v)}).ok());
  // Offsets out of range rejected.
  struct Tiny {
    uint32_t x;
  };
  EXPECT_FALSE(registry.Register<Tiny>({0}).ok()) << "no room for a pointer";
}

}  // namespace
}  // namespace puddles
