#include "src/puddles/format.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace puddles {
namespace {

PuddleParams DataParams(size_t heap = 1 << 20) {
  PuddleParams params;
  params.kind = PuddleKind::kData;
  params.heap_size = heap;
  params.uuid = Uuid::Generate();
  params.base_addr = 0x10000000000ULL;
  return params;
}

TEST(PuddleFormatTest, FileSizeIncludesMetaForDataPuddles) {
  size_t data_size = Puddle::FileSizeFor(PuddleKind::kData, 1 << 20);
  size_t log_size = Puddle::FileSizeFor(PuddleKind::kLog, 1 << 20);
  EXPECT_GT(data_size, log_size) << "data puddles carry allocator metadata";
  EXPECT_EQ(log_size, kPuddleHeaderPage + (1 << 20));
}

TEST(PuddleFormatTest, HeaderOverheadIsSmall) {
  // Paper §4.3: ~0.2% metadata overhead; ours is bounded at ~1% (DESIGN.md).
  size_t heap = kDefaultHeapSize;
  size_t file = Puddle::FileSizeFor(PuddleKind::kData, heap);
  EXPECT_LT(file - heap, heap / 100);
}

TEST(PuddleFormatTest, FormatAttachRoundTrip) {
  PuddleParams params = DataParams();
  size_t file_size = Puddle::FileSizeFor(params.kind, params.heap_size);
  std::vector<uint8_t> file(file_size);
  ASSERT_TRUE(Puddle::Format(file.data(), file_size, params).ok());

  auto puddle = Puddle::Attach(file.data(), file_size);
  ASSERT_TRUE(puddle.ok()) << puddle.status().ToString();
  EXPECT_EQ(puddle->uuid(), params.uuid);
  EXPECT_EQ(puddle->kind(), PuddleKind::kData);
  EXPECT_EQ(puddle->heap_size(), params.heap_size);
  EXPECT_EQ(puddle->base_addr(), params.base_addr);
  EXPECT_FALSE(puddle->needs_rewrite());
  EXPECT_EQ(puddle->heap(), file.data() + puddle->header()->heap_offset);
}

TEST(PuddleFormatTest, DataPuddleHasWorkingObjectHeap) {
  PuddleParams params = DataParams();
  size_t file_size = Puddle::FileSizeFor(params.kind, params.heap_size);
  std::vector<uint8_t> file(file_size);
  ASSERT_TRUE(Puddle::Format(file.data(), file_size, params).ok());
  auto puddle = Puddle::Attach(file.data(), file_size);
  ASSERT_TRUE(puddle.ok());

  auto heap = puddle->object_heap();
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  auto obj = heap->Allocate(100, kRawBytesTypeId);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(heap->IsLiveObject(*obj));
  EXPECT_EQ(heap->heap_base(), puddle->heap());
}

TEST(PuddleFormatTest, LogPuddleHasNoObjectHeap) {
  PuddleParams params = DataParams();
  params.kind = PuddleKind::kLog;
  size_t file_size = Puddle::FileSizeFor(params.kind, params.heap_size);
  std::vector<uint8_t> file(file_size);
  ASSERT_TRUE(Puddle::Format(file.data(), file_size, params).ok());
  auto puddle = Puddle::Attach(file.data(), file_size);
  ASSERT_TRUE(puddle.ok());
  EXPECT_FALSE(puddle->object_heap().ok());
}

TEST(PuddleFormatTest, AttachRejectsCorruption) {
  PuddleParams params = DataParams();
  size_t file_size = Puddle::FileSizeFor(params.kind, params.heap_size);
  std::vector<uint8_t> file(file_size);
  ASSERT_TRUE(Puddle::Format(file.data(), file_size, params).ok());

  EXPECT_FALSE(Puddle::Attach(file.data(), file_size - 4096).ok());  // Size mismatch.

  // A heap offset whose sum with the heap size wraps past 2^64.
  auto* header = reinterpret_cast<PuddleHeader*>(file.data());
  const uint64_t heap_offset = header->heap_offset;
  header->heap_offset = ~uint64_t{0} - 4095;
  EXPECT_EQ(Puddle::Attach(file.data(), file_size).status().code(), StatusCode::kDataLoss);
  header->heap_offset = heap_offset;
  ASSERT_TRUE(Puddle::Attach(file.data(), file_size).ok());

  file[0] ^= 0x1;                                                    // Magic corruption.
  EXPECT_FALSE(Puddle::Attach(file.data(), file_size).ok());
}

// The geometry import requires of a data puddle (§4.6): a fresh one has it,
// and each broken field fails it with DataLoss.
TEST(PuddleFormatTest, CheckDataGeometry) {
  PuddleParams params = DataParams();
  size_t file_size = Puddle::FileSizeFor(params.kind, params.heap_size);
  std::vector<uint8_t> file(file_size);
  ASSERT_TRUE(Puddle::Format(file.data(), file_size, params).ok());
  auto puddle = Puddle::Attach(file.data(), file_size);
  ASSERT_TRUE(puddle.ok());
  EXPECT_TRUE(puddle->CheckDataGeometry().ok());

  PuddleHeader* header = puddle->header();
  const PuddleHeader pristine = *header;
  auto broken = [&](const std::function<void(PuddleHeader*)>& edit) {
    *header = pristine;
    edit(header);
    return puddle->CheckDataGeometry().code() == StatusCode::kDataLoss;
  };
  EXPECT_TRUE(broken([](PuddleHeader* h) { h->heap_size -= 4096; }));
  EXPECT_TRUE(broken([](PuddleHeader* h) { h->heap_size = 2048; }));
  EXPECT_TRUE(broken([](PuddleHeader* h) { h->meta_size = 4096; }));
  EXPECT_TRUE(broken([](PuddleHeader* h) { h->meta_size = ~uint64_t{0}; }));
  EXPECT_TRUE(broken([](PuddleHeader* h) { h->heap_offset += 4096; }));
  EXPECT_TRUE(broken([](PuddleHeader* h) { h->file_size += 4096; }));
  EXPECT_TRUE(broken([](PuddleHeader* h) { h->kind = PuddleKind::kLog; }));
  *header = pristine;
  EXPECT_TRUE(puddle->CheckDataGeometry().ok());
}

TEST(PuddleFormatTest, FormatRejectsBadGeometry) {
  PuddleParams params = DataParams();
  params.heap_size = (1 << 20) + 4096;  // Not a power of two.
  std::vector<uint8_t> file(4 << 20);
  EXPECT_FALSE(Puddle::Format(file.data(), file.size(), params).ok());

  params = DataParams();
  params.uuid = Uuid::Nil();
  EXPECT_FALSE(
      Puddle::Format(file.data(), Puddle::FileSizeFor(params.kind, params.heap_size), params)
          .ok());
}

TEST(PuddleFormatTest, AssignNewBaseRecordsRelocationState) {
  PuddleParams params = DataParams();
  size_t file_size = Puddle::FileSizeFor(params.kind, params.heap_size);
  std::vector<uint8_t> file(file_size);
  ASSERT_TRUE(Puddle::Format(file.data(), file_size, params).ok());
  auto puddle = Puddle::Attach(file.data(), file_size);
  ASSERT_TRUE(puddle.ok());

  const uint64_t old_base = puddle->base_addr();
  const uint64_t new_base = old_base + (16 << 20);
  puddle->AssignNewBase(new_base);
  EXPECT_TRUE(puddle->needs_rewrite());
  EXPECT_EQ(puddle->base_addr(), new_base);
  EXPECT_EQ(puddle->header()->prev_base_addr, old_base);

  puddle->CompleteRewrite();
  EXPECT_FALSE(puddle->needs_rewrite());
  EXPECT_EQ(puddle->header()->prev_base_addr, 0u);
  EXPECT_EQ(puddle->base_addr(), new_base);
}

TEST(PuddleFormatTest, RewriteFrontierLifecycle) {
  PuddleParams params = DataParams();
  size_t file_size = Puddle::FileSizeFor(params.kind, params.heap_size);
  std::vector<uint8_t> file(file_size);
  ASSERT_TRUE(Puddle::Format(file.data(), file_size, params).ok());
  auto puddle = Puddle::Attach(file.data(), file_size);
  ASSERT_TRUE(puddle.ok());
  EXPECT_EQ(puddle->rewrite_frontier(), 0u) << "fresh puddles start at zero";

  puddle->AssignNewBase(puddle->base_addr() + (16 << 20));
  EXPECT_EQ(puddle->rewrite_frontier(), 0u);
  puddle->AdvanceRewriteFrontier(42);
  EXPECT_EQ(puddle->rewrite_frontier(), 42u);
  EXPECT_TRUE(puddle->needs_rewrite()) << "advancing progress keeps the obligation";

  // A second relocation (re-import of a mid-rewrite export) restarts the walk.
  puddle->AssignNewBase(puddle->base_addr() + (32 << 20));
  EXPECT_EQ(puddle->rewrite_frontier(), 0u);

  puddle->AdvanceRewriteFrontier(7);
  puddle->CompleteRewrite();
  EXPECT_FALSE(puddle->needs_rewrite());
  EXPECT_EQ(puddle->rewrite_frontier(), 0u) << "completion resets the frontier";

  // The frontier survives a detach/attach cycle (it is header state, not
  // process state).
  puddle->AssignNewBase(puddle->base_addr() + (48 << 20));
  puddle->AdvanceRewriteFrontier(9);
  auto reattached = Puddle::Attach(file.data(), file_size);
  ASSERT_TRUE(reattached.ok());
  EXPECT_TRUE(reattached->needs_rewrite());
  EXPECT_EQ(reattached->rewrite_frontier(), 9u);
}

TEST(PuddleFormatTest, AttachRejectsVersionMismatch) {
  PuddleParams params = DataParams();
  size_t file_size = Puddle::FileSizeFor(params.kind, params.heap_size);
  std::vector<uint8_t> file(file_size);
  ASSERT_TRUE(Puddle::Format(file.data(), file_size, params).ok());
  auto* header = reinterpret_cast<PuddleHeader*>(file.data());
  EXPECT_EQ(header->version, kPuddleVersion);
  header->version = 1;  // Pre-frontier layout: no in-place upgrade.
  EXPECT_FALSE(Puddle::Attach(file.data(), file_size).ok());
}

TEST(PuddleFormatTest, HeapAddrAtBaseUsesAssignedBase) {
  PuddleParams params = DataParams();
  size_t file_size = Puddle::FileSizeFor(params.kind, params.heap_size);
  std::vector<uint8_t> file(file_size);
  ASSERT_TRUE(Puddle::Format(file.data(), file_size, params).ok());
  auto puddle = Puddle::Attach(file.data(), file_size);
  ASSERT_TRUE(puddle.ok());
  EXPECT_EQ(puddle->heap_addr_at_base(),
            params.base_addr + puddle->header()->heap_offset);
}

}  // namespace
}  // namespace puddles
