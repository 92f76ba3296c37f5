// Differential fuzzing for the relocation engine (DESIGN.md §7).
//
// The sorted interval table behind Translator::Translate carries two pieces
// of mutable state the O(E) reference scan does not: the sorted entry vector
// (rebuilt insert-by-insert) and a one-entry MRU cache that survives across
// queries — and must be invalidated when Add shifts entry indexes. These
// tests drive randomized interval tables through thousands of pointers with
// Add calls *interleaved* between query batches, asserting Translate ==
// TranslateLinear on every probe, including after rejected (overlapping)
// Adds. A second suite fuzzes the rewrite pass over wide objects registered
// with repeat regions (the PtrMapRecord pointer-array extension that keeps
// ART Node48/Node256 relocatable), with the expected image computed through
// TranslateLinear.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/libpuddles/relocation.h"
#include "src/libpuddles/type_registry.h"

namespace puddles {
namespace {

// Random probe addresses: in-range, boundary, near-miss, and wild.
uint64_t ProbeAddr(Xoshiro256& rng,
                   const std::vector<std::pair<uint64_t, uint64_t>>& ranges) {
  if (ranges.empty()) {
    return rng();
  }
  const auto& [lo, size] = ranges[rng.Below(ranges.size())];
  switch (rng.Below(6)) {
    case 0:
      return lo + rng.Below(size);  // Inside (locality runs hit the MRU).
    case 1:
      return lo;  // First covered byte.
    case 2:
      return lo + size - 1;  // Last covered byte.
    case 3:
      return lo - 1;  // Just below: must pass through.
    case 4:
      return lo + size;  // Just past: must pass through.
    default:
      return rng();  // Wild.
  }
}

void CheckDifferential(const Translator& translator, uint64_t addr) {
  uint64_t indexed = 0, linear = 0;
  const bool indexed_hit = translator.Translate(addr, &indexed);
  const bool linear_hit = translator.TranslateLinear(addr, &linear);
  ASSERT_EQ(indexed_hit, linear_hit) << "addr=" << std::hex << addr;
  if (indexed_hit) {
    ASSERT_EQ(indexed, linear) << "addr=" << std::hex << addr;
  }
}

// The core fuzz loop: grow the table one random entry at a time, probing
// thousands of pointers between Adds, so every query batch runs against a
// table (and MRU cache) that just shifted under it.
TEST(TranslatorFuzz, DifferentialAcrossInterleavedAdds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Translator translator;
    Xoshiro256 rng(0xF00D + seed);
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    // Non-overlapping candidates carved from a shuffled lattice, added in
    // random (not sorted) order so Add's sorted-insert shifts existing
    // entries — exactly the case the MRU cache index must survive.
    std::vector<uint64_t> slots;
    for (uint64_t i = 0; i < 96; ++i) {
      slots.push_back(0x100000 + i * 0x100000);
    }
    for (size_t i = slots.size(); i > 1; --i) {
      std::swap(slots[i - 1], slots[rng.Below(i)]);
    }
    for (size_t entry = 0; entry < slots.size(); ++entry) {
      const uint64_t lo = slots[entry] + rng.Below(0x1000);
      const uint64_t size = 0x100 + rng.Below(0xE0000);
      ASSERT_TRUE(translator.Add(lo, size, 0x7000000000ULL + entry * 0x10000000).ok());
      ranges.push_back({lo, size});
      // Warm the MRU on the freshest entry, then probe everything.
      uint64_t warmed;
      (void)translator.Translate(lo + size / 2, &warmed);
      for (int probe = 0; probe < 200; ++probe) {
        CheckDifferential(translator, ProbeAddr(rng, ranges));
      }
    }
    ASSERT_EQ(translator.size(), ranges.size());
  }
}

// Rejected Adds (overlaps, duplicates, zero-size, wraparound) must leave the
// table — and its cache — exactly as before: the differential keeps holding.
TEST(TranslatorFuzz, RejectedAddsLeaveTableConsistent) {
  Translator translator;
  Xoshiro256 rng(0xBAD5EED);
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  uint64_t cursor = 0x200000;
  for (int i = 0; i < 64; ++i) {
    cursor += 0x2000 + rng.Below(0x8000);
    const uint64_t size = 0x1000 + rng.Below(0x4000);
    ASSERT_TRUE(translator.Add(cursor, size, 0x9000000000ULL + i * 0x100000).ok());
    ranges.push_back({cursor, size});
    cursor += size;
  }
  for (int round = 0; round < 2000; ++round) {
    // Warm the cache somewhere, then attempt a bad Add, then re-verify.
    CheckDifferential(translator, ProbeAddr(rng, ranges));
    const auto& [lo, size] = ranges[rng.Below(ranges.size())];
    switch (rng.Below(4)) {
      case 0:
        EXPECT_FALSE(translator.Add(lo, size, 0xDEAD0000).ok());  // Duplicate.
        break;
      case 1:
        EXPECT_FALSE(translator.Add(lo + size / 2, size, 0xDEAD0000).ok());  // Overlap.
        break;
      case 2:
        EXPECT_FALSE(translator.Add(lo, 0, 0xDEAD0000).ok());  // Zero size.
        break;
      default:
        EXPECT_FALSE(translator.Add(~uint64_t{0} - 16, 64, 0xDEAD0000).ok());  // Wrap.
        break;
    }
    EXPECT_EQ(translator.size(), ranges.size());
    for (int probe = 0; probe < 8; ++probe) {
      CheckDifferential(translator, ProbeAddr(rng, ranges));
    }
  }
}

// ---- Rewrite over repeat-region (wide-node) pointer maps ----

// A wide node shaped like the ART's Node48/Node256: a couple of explicit
// header fields plus a homogeneous child array past kMaxPtrFields.
struct WideNode {
  uint64_t tag;            // Not a pointer; must never be touched.
  WideNode* header_link;   // Explicit field.
  uint64_t filler;         // Not a pointer.
  WideNode* children[64];  // Repeat region.
};

class RewriteFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)TypeRegistry::Instance().RegisterWithArray<WideNode>(
        {offsetof(WideNode, header_link)}, offsetof(WideNode, children), 64);
    params_.kind = PuddleKind::kData;
    params_.heap_size = 1 << 20;
    params_.uuid = Uuid::Generate();
    params_.base_addr = 0x40000000000ULL;
    size_t file_size = Puddle::FileSizeFor(params_.kind, params_.heap_size);
    file_.resize(file_size);
    ASSERT_TRUE(Puddle::Format(file_.data(), file_size, params_).ok());
    auto puddle = Puddle::Attach(file_.data(), file_size);
    ASSERT_TRUE(puddle.ok());
    puddle_ = *puddle;
  }

  PuddleParams params_;
  std::vector<uint8_t> file_;
  Puddle puddle_;
};

TEST_F(RewriteFuzzTest, RepeatRegionSlotsRewriteDifferentially) {
  auto heap = puddle_.object_heap();
  ASSERT_TRUE(heap.ok());

  Translator translator;
  Xoshiro256 rng(0xA47);
  uint64_t cursor = 0x10000;
  for (int i = 0; i < 24; ++i) {
    cursor += 0x1000 + rng.Below(0x4000);
    const uint64_t size = 0x800 + rng.Below(0x2000);
    ASSERT_TRUE(translator.Add(cursor, size, 0x6000000000ULL + i * 0x1000000).ok());
    cursor += size;
  }

  // Random pointer soup across several wide nodes: ~half the slots land in
  // moved ranges, the rest (nulls, wild addresses, non-pointer fields) must
  // pass through untouched.
  std::vector<WideNode*> nodes;
  std::vector<WideNode> expected;
  for (int n = 0; n < 6; ++n) {
    auto node = heap->AllocateTyped<WideNode>();
    ASSERT_TRUE(node.ok());
    auto fill = [&](uint64_t r) -> WideNode* {
      switch (r % 3) {
        case 0:
          return nullptr;
        case 1:
          return reinterpret_cast<WideNode*>(0x10000 + (r % 0x50000));  // Maybe moved.
        default:
          return reinterpret_cast<WideNode*>(r | 0x8000000000ULL);  // Foreign.
      }
    };
    (*node)->tag = rng();
    (*node)->header_link = fill(rng());
    (*node)->filler = 0x10000 + rng.Below(0x50000);  // Pointer-looking data.
    for (auto& child : (*node)->children) {
      child = fill(rng());
    }
    // Expected image via the reference translator.
    WideNode want = **node;
    auto xlat = [&](WideNode* p) {
      uint64_t out;
      return translator.TranslateLinear(reinterpret_cast<uint64_t>(p), &out)
                 ? reinterpret_cast<WideNode*>(out)
                 : p;
    };
    want.header_link = xlat(want.header_link);
    for (auto& child : want.children) {
      child = xlat(child);
    }
    nodes.push_back(*node);
    expected.push_back(want);
  }

  puddle_.AssignNewBase(puddle_.base_addr() + 0x1000000);
  auto stats = RewritePuddle(puddle_, translator, [](TypeId type_id) {
    return TypeRegistry::Instance().Lookup(type_id);
  });
  ASSERT_TRUE(stats.ok());
  // 65 slots per node (1 explicit + 64 repeat), all visited.
  EXPECT_EQ(stats->pointers_visited, nodes.size() * 65u);
  EXPECT_GT(stats->pointers_rewritten, 0u);

  for (size_t n = 0; n < nodes.size(); ++n) {
    EXPECT_EQ(nodes[n]->tag, expected[n].tag) << n;
    EXPECT_EQ(nodes[n]->filler, expected[n].filler) << "non-pointer field touched";
    EXPECT_EQ(nodes[n]->header_link, expected[n].header_link) << n;
    for (int c = 0; c < 64; ++c) {
      ASSERT_EQ(nodes[n]->children[c], expected[n].children[c]) << n << "/" << c;
    }
  }
  EXPECT_FALSE(puddle_.needs_rewrite());
}

TEST(TypeRegistryArray, RejectsOutOfBoundsRepeatRegion) {
  struct Small {
    uint64_t a;
    Small* p;
  };
  EXPECT_FALSE(TypeRegistry::Instance()
                   .RegisterWithArray<Small>({}, offsetof(Small, p), 4)
                   .ok());
  // Values past 32 bits must not wrap into range: a count of 2^32 + 1 read
  // as 1 would hide every other slot from relocation and the GC.
  EXPECT_EQ(TypeRegistry::Instance()
                .RegisterWithArray<Small>({}, offsetof(Small, p), (size_t{1} << 32) + 1)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TypeRegistry::Instance()
                .RegisterWithArray<Small>({}, (size_t{1} << 32) + offsetof(Small, p), 1)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TypeRegistry::Instance()
                .RegisterWithArray<Small>({(size_t{1} << 32) + offsetof(Small, p)}, 0, 0)
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(TypeRegistry::Instance()
                  .RegisterWithArray<Small>({}, offsetof(Small, p), 1)
                  .ok());
  const PtrMapRecord* record = TypeRegistry::Instance().Lookup(TypeIdOf<Small>());
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->repeat_offset, offsetof(Small, p));
  EXPECT_EQ(record->repeat_count, 1u);
}

}  // namespace
}  // namespace puddles
