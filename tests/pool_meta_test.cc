#include "src/puddles/pool_meta.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/align.h"
#include "src/crashsim/state_enumerator.h"
#include "src/crashsim/trace.h"
#include "src/tx/log_space.h"

namespace puddles {
namespace {

// Opens a one-segment chain whose head is `puddle`.
SegmentOpener Only(const Puddle& puddle) {
  return [puddle](const Uuid&) -> puddles::Result<Puddle> { return puddle; };
}

class PoolMetaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    params_.kind = PuddleKind::kPoolMeta;
    params_.heap_size = 1 << 20;
    params_.uuid = Uuid::Generate();
    params_.base_addr = 0x20000000000ULL;
    size_t file_size = Puddle::FileSizeFor(params_.kind, params_.heap_size);
    file_.resize(file_size);
    ASSERT_TRUE(Puddle::Format(file_.data(), file_size, params_).ok());
    auto puddle = Puddle::Attach(file_.data(), file_size);
    ASSERT_TRUE(puddle.ok());
    puddle_ = *puddle;
  }

  puddles::Result<PoolMetaView> Attach() {
    return PoolMetaView::Attach(params_.uuid, Only(puddle_));
  }

  PuddleParams params_;
  std::vector<uint8_t> file_;
  Puddle puddle_;
};

TEST_F(PoolMetaTest, FormatAttachRoundTrip) {
  Uuid pool_uuid = Uuid::Generate();
  ASSERT_TRUE(PoolMetaView::Format(puddle_, pool_uuid, "accounts").ok());
  auto meta = Attach();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->pool_uuid(), pool_uuid);
  EXPECT_STREQ(meta->name(), "accounts");
  EXPECT_EQ(meta->num_members(), 0u);
  EXPECT_FALSE(meta->has_root());
  EXPECT_GT(meta->capacity(), 1000u);
}

TEST_F(PoolMetaTest, RejectsWrongKind) {
  PuddleParams data_params = params_;
  data_params.kind = PuddleKind::kData;
  data_params.uuid = Uuid::Generate();
  size_t file_size = Puddle::FileSizeFor(data_params.kind, data_params.heap_size);
  std::vector<uint8_t> data_file(file_size);
  ASSERT_TRUE(Puddle::Format(data_file.data(), file_size, data_params).ok());
  auto puddle = Puddle::Attach(data_file.data(), file_size);
  ASSERT_TRUE(puddle.ok());
  EXPECT_FALSE(PoolMetaView::Format(*puddle, Uuid::Generate(), "x").ok());
  EXPECT_FALSE(PoolMetaView::Attach(data_params.uuid, Only(*puddle)).ok());
}

TEST_F(PoolMetaTest, RejectsOverlongName) {
  std::string long_name(kPoolNameMax + 10, 'x');
  EXPECT_FALSE(PoolMetaView::Format(puddle_, Uuid::Generate(), long_name.c_str()).ok());
}

TEST_F(PoolMetaTest, MembersAppendAndReplace) {
  ASSERT_TRUE(PoolMetaView::Format(puddle_, Uuid::Generate(), "p").ok());
  auto meta = Attach();
  ASSERT_TRUE(meta.ok());

  std::vector<Uuid> members;
  for (int i = 0; i < 10; ++i) {
    members.push_back(Uuid::Generate());
    ASSERT_TRUE(meta->AddMember(members.back()).ok());
  }
  EXPECT_EQ(meta->num_members(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(meta->member(i), members[i]);
    EXPECT_TRUE(meta->HasMember(members[i]));
    EXPECT_EQ(meta->member_old_base(i), 0u);
  }
  EXPECT_FALSE(meta->HasMember(Uuid::Generate()));

  Uuid replacement = Uuid::Generate();
  ASSERT_TRUE(meta->ReplaceMember(3, replacement).ok());
  EXPECT_EQ(meta->member(3), replacement);
  EXPECT_FALSE(meta->HasMember(members[3]));
  EXPECT_FALSE(meta->ReplaceMember(99, replacement).ok());
}

TEST_F(PoolMetaTest, RootDesignation) {
  ASSERT_TRUE(PoolMetaView::Format(puddle_, Uuid::Generate(), "p").ok());
  auto meta = Attach();
  ASSERT_TRUE(meta.ok());
  Uuid root_puddle = Uuid::Generate();
  meta->SetRoot(root_puddle, 4096);
  EXPECT_TRUE(meta->has_root());
  EXPECT_EQ(meta->root_puddle(), root_puddle);
  EXPECT_EQ(meta->root_offset(), 4096u);

  // Persists across reattach.
  auto reattached = Attach();
  ASSERT_TRUE(reattached.ok());
  EXPECT_EQ(reattached->root_puddle(), root_puddle);
}

TEST_F(PoolMetaTest, TranslationTable) {
  ASSERT_TRUE(PoolMetaView::Format(puddle_, Uuid::Generate(), "p").ok());
  auto meta = Attach();
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(meta->AddMember(Uuid::Generate()).ok());
  ASSERT_TRUE(meta->AddMember(Uuid::Generate()).ok());

  EXPECT_FALSE(meta->HasTranslations());
  meta->SetMemberOldBase(1, 0x30000000000ULL);
  EXPECT_TRUE(meta->HasTranslations());
  EXPECT_EQ(meta->member_old_base(0), 0u);
  EXPECT_EQ(meta->member_old_base(1), 0x30000000000ULL);

  meta->ClearTranslationTable();
  EXPECT_FALSE(meta->HasTranslations());
}

// ---- The segment chain ----

// Page-aligned in-memory pool meta segments, found by UUID.
class Segments {
 public:
  struct Segment {
    Uuid uuid;
    uint8_t* base = nullptr;
    size_t size = 0;
    Puddle view;
  };

  ~Segments() {
    for (Segment& segment : segments_) {
      std::free(segment.base);
    }
  }

  Segment& Add(size_t heap_size) {
    Segment& segment = segments_.emplace_back();
    PuddleParams params;
    params.kind = PuddleKind::kPoolMeta;
    params.heap_size = heap_size;
    params.uuid = Uuid::Generate();
    segment.uuid = params.uuid;
    segment.size = Puddle::FileSizeFor(params.kind, heap_size);
    segment.base = static_cast<uint8_t*>(std::aligned_alloc(kPageSize, segment.size));
    std::memset(segment.base, 0, segment.size);
    EXPECT_TRUE(Puddle::Format(segment.base, segment.size, params).ok());
    segment.view = *Puddle::Attach(segment.base, segment.size);
    return segment;
  }

  SegmentOpener Opener() {
    return [this](const Uuid& uuid) -> puddles::Result<Puddle> {
      for (const Segment& segment : segments_) {
        if (segment.uuid == uuid) {
          return segment.view;
        }
      }
      return NotFoundError("no such segment");
    };
  }

  puddles::Result<PoolMetaView> Attach() {
    return PoolMetaView::Attach(segments_.front().uuid, Opener());
  }

 private:
  std::deque<Segment> segments_;
};

TEST(PoolMetaChainTest, MembersAddressTheWholeChain) {
  Segments segments;
  ASSERT_TRUE(PoolMetaView::Format(segments.Add(kPoolMetaHeapSize).view, Uuid::Generate(), "p")
                  .ok());
  auto meta = segments.Attach();
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->capacity(), 165u) << "one page holds 165 members";

  std::vector<Uuid> members;
  while (!meta->full()) {
    members.push_back(Uuid::Generate());
    ASSERT_TRUE(meta->AddMember(members.back()).ok());
  }
  EXPECT_EQ(meta->AddMember(Uuid::Generate()).code(), StatusCode::kOutOfMemory);

  // Two continuations, each twice its predecessor's heap.
  for (size_t heap = 2 * kPoolMetaHeapSize; meta->num_segments() < 3; heap *= 2) {
    auto& next = segments.Add(heap);
    ASSERT_EQ(meta->tail_heap_size() * 2, heap);
    ASSERT_TRUE(meta->AppendSegment(next.uuid, next.view).ok());
    while (!meta->full()) {
      members.push_back(Uuid::Generate());
      ASSERT_TRUE(meta->AddMember(members.back()).ok());
    }
  }
  members.push_back(Uuid::Generate());
  auto& last = segments.Add(8 * kPoolMetaHeapSize);
  ASSERT_TRUE(meta->AppendSegment(last.uuid, last.view).ok());
  ASSERT_TRUE(meta->AddMember(members.back()).ok());

  // Indices, old bases and replacement cross segment boundaries.
  const uint32_t boundary = 165;
  meta->SetMemberOldBase(boundary, 0x30000000000ULL);
  const Uuid replacement = Uuid::Generate();
  ASSERT_TRUE(meta->ReplaceMember(boundary - 1, replacement).ok());
  members[boundary - 1] = replacement;
  meta->SetRoot(members.back(), 64);

  auto reattached = segments.Attach();
  ASSERT_TRUE(reattached.ok()) << reattached.status().ToString();
  EXPECT_EQ(reattached->num_segments(), 4u);
  ASSERT_EQ(reattached->num_members(), members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(reattached->member(i), members[i]) << i;
    EXPECT_EQ(reattached->member_old_base(i), i == boundary ? 0x30000000000ULL : 0u) << i;
  }
  EXPECT_TRUE(reattached->member(reattached->num_members()).is_nil());
  EXPECT_TRUE(reattached->HasMember(members.back()));
  EXPECT_TRUE(reattached->HasTranslations());
  EXPECT_EQ(reattached->root_puddle(), members.back());
  reattached->ClearTranslationTable();
  EXPECT_FALSE(reattached->HasTranslations());
}

TEST(PoolMetaChainTest, AttachRejectsRevisitsAndTheUnchainedLayout) {
  Segments segments;
  auto& head = segments.Add(kPoolMetaHeapSize);
  ASSERT_TRUE(PoolMetaView::Format(head.view, Uuid::Generate(), "p").ok());
  auto* header = reinterpret_cast<PoolMetaHeader*>(head.view.heap());

  header->next_segment = head.uuid;
  EXPECT_EQ(segments.Attach().status().code(), StatusCode::kDataLoss) << "self-link";

  auto& next = segments.Add(2 * kPoolMetaHeapSize);
  header->next_segment = Uuid::Nil();
  auto meta = segments.Attach();
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(meta->AppendSegment(next.uuid, next.view).ok());
  reinterpret_cast<PoolMetaHeader*>(next.view.heap())->next_segment = head.uuid;
  EXPECT_EQ(segments.Attach().status().code(), StatusCode::kDataLoss) << "two-segment cycle";

  reinterpret_cast<PoolMetaHeader*>(next.view.heap())->next_segment = Uuid::Generate();
  EXPECT_EQ(segments.Attach().status().code(), StatusCode::kNotFound) << "dangling link";

  header->next_segment = Uuid::Nil();
  header->magic = 0x4154454d4c4f4f50ULL;  // "POOLMETA": the layout before segments.
  EXPECT_EQ(segments.Attach().status().code(), StatusCode::kDataLoss);
}

// Growth persists the new segment formatted before the tail's link to it:
// every fence-boundary crash state, with seeded evictions, attaches to a
// chain of one or two segments holding a prefix of the member list.
TEST(PoolMetaChainTest, SegmentLinkCrashStatesAttachToAMemberPrefix) {
  Segments segments;
  auto& head = segments.Add(kPoolMetaHeapSize);
  ASSERT_TRUE(PoolMetaView::Format(head.view, Uuid::Generate(), "p").ok());
  auto meta = segments.Attach();
  ASSERT_TRUE(meta.ok());
  std::vector<Uuid> members;
  while (!meta->full()) {
    members.push_back(Uuid::Generate());
    ASSERT_TRUE(meta->AddMember(members.back()).ok());
  }
  auto& next = segments.Add(2 * kPoolMetaHeapSize);

  crashsim::TraceRecorder recorder;
  recorder.Start({{.base = reinterpret_cast<uintptr_t>(head.base), .size = head.size},
                  {.base = reinterpret_cast<uintptr_t>(next.base), .size = next.size}});
  ASSERT_TRUE(meta->AppendSegment(next.uuid, next.view).ok());
  members.push_back(Uuid::Generate());
  ASSERT_TRUE(meta->AddMember(members.back()).ok());
  const crashsim::Trace trace = recorder.Stop();

  const auto states = crashsim::EnumerateCrashStates(trace, {});
  ASSERT_FALSE(states.empty());
  std::set<uint32_t> chain_lengths;
  std::set<uint32_t> member_counts;
  for (const crashsim::CrashStateSpec& spec : states) {
    crashsim::ApplyCrashState(trace, spec);
    auto recovered = segments.Attach();
    ASSERT_TRUE(recovered.ok()) << spec.ToString() << ": " << recovered.status().ToString();
    ASSERT_LE(recovered->num_members(), members.size()) << spec.ToString();
    for (uint32_t i = 0; i < recovered->num_members(); ++i) {
      ASSERT_EQ(recovered->member(i), members[i]) << spec.ToString() << " member " << i;
    }
    chain_lengths.insert(recovered->num_segments());
    member_counts.insert(recovered->num_members());
  }
  EXPECT_EQ(chain_lengths, (std::set<uint32_t>{1, 2})) << "the sweep must cross the link";
  EXPECT_EQ(member_counts.size(), 2u) << "and the appended member's publication";
}

// ---- The pointer-map table ----

PtrMapRecord MapFor(uint64_t type_id, uint32_t object_size, uint32_t field) {
  PtrMapRecord record{};
  record.type_id = type_id;
  record.object_size = object_size;
  record.num_fields = 1;
  record.field_offsets[0] = field;
  return record;
}

bool SameMap(const PtrMapRecord& a, const PtrMapRecord& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(PtrMapValidationTest, RejectsRecordsOutsideTheirObjectOrNotCanonical) {
  EXPECT_TRUE(ValidatePtrMap(MapFor(7, 16, 8)).ok());
  EXPECT_EQ(ValidatePtrMap(MapFor(7, 16, 9)).code(), StatusCode::kInvalidArgument)
      << "field outside its object";
  EXPECT_EQ(ValidatePtrMap(MapFor(7, 0, 0)).code(), StatusCode::kInvalidArgument);
  PtrMapRecord stray = MapFor(7, 16, 0);
  stray.field_offsets[1] = 8;  // Past num_fields.
  EXPECT_EQ(ValidatePtrMap(stray).code(), StatusCode::kInvalidArgument)
      << "a stray offset would make two equal maps compare different";
  PtrMapRecord repeat = MapFor(7, 32, 0);
  repeat.repeat_offset = 8;
  EXPECT_EQ(ValidatePtrMap(repeat).code(), StatusCode::kInvalidArgument)
      << "repeat offset without a region";
  repeat.repeat_count = 3;
  EXPECT_TRUE(ValidatePtrMap(repeat).ok());
  repeat.repeat_count = 4;
  EXPECT_EQ(ValidatePtrMap(repeat).code(), StatusCode::kInvalidArgument)
      << "region past the object";

  PtrMapRecord two = MapFor(7, 32, 0);
  two.num_fields = 2;
  two.field_offsets[1] = 16;
  EXPECT_TRUE(ValidatePtrMap(two).ok());
  std::swap(two.field_offsets[0], two.field_offsets[1]);
  EXPECT_EQ(ValidatePtrMap(two).code(), StatusCode::kInvalidArgument)
      << "descending offsets: another byte form of the same map";
  two.field_offsets[0] = 16;
  EXPECT_EQ(ValidatePtrMap(two).code(), StatusCode::kInvalidArgument) << "one slot twice";
  two.field_offsets[0] = 12;
  EXPECT_EQ(ValidatePtrMap(two).code(), StatusCode::kInvalidArgument) << "overlapping slots";
  PtrMapRecord inside = MapFor(7, 32, 16);
  inside.repeat_offset = 8;
  inside.repeat_count = 2;
  EXPECT_EQ(ValidatePtrMap(inside).code(), StatusCode::kInvalidArgument)
      << "a field inside the pointer-array region";
  inside.field_offsets[0] = 0;
  EXPECT_TRUE(ValidatePtrMap(inside).ok());
}

// Members grow up and maps grow down through one heap: each map costs a
// page-sized segment six member slots, and both tables read back across the
// chain in append order.
TEST(PoolMetaChainTest, PtrMapsShareTheSegmentHeapAcrossTheChain) {
  Segments segments;
  ASSERT_TRUE(PoolMetaView::Format(segments.Add(kPoolMetaHeapSize).view, Uuid::Generate(), "p")
                  .ok());
  auto meta = segments.Attach();
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  std::vector<PtrMapRecord> maps;
  maps.push_back(MapFor(100, 16, 8));
  ASSERT_TRUE(meta->AddPtrMap(maps.back()).ok());
  EXPECT_EQ(meta->capacity(), 165u - 6) << "a map takes six member slots";
  EXPECT_EQ(meta->AddPtrMap(MapFor(101, 16, 9)).code(), StatusCode::kInvalidArgument);

  std::vector<Uuid> members;
  for (int i = 0; i < 100; ++i) {
    members.push_back(Uuid::Generate());
    ASSERT_TRUE(meta->AddMember(members.back()).ok());
  }
  puddles::Status added = OkStatus();
  for (uint64_t type = 101; added.ok(); ++type) {
    added = meta->AddPtrMap(MapFor(type, 24, 16));
    if (added.ok()) {
      maps.push_back(MapFor(type, 24, 16));
    }
  }
  EXPECT_EQ(added.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(maps.size(), 10u) << "(3960 - 100 * 24) / 144 maps fit beside 100 members";
  EXPECT_EQ(meta->capacity() - meta->num_members(), 5u) << "120 bytes left hold five members";

  auto& next = segments.Add(2 * kPoolMetaHeapSize);
  ASSERT_TRUE(meta->AppendSegment(next.uuid, next.view).ok());
  maps.push_back(MapFor(200, 8, 0));
  ASSERT_TRUE(meta->AddPtrMap(maps.back()).ok());
  members.push_back(Uuid::Generate());
  ASSERT_TRUE(meta->AddMember(members.back()).ok());

  auto reattached = segments.Attach();
  ASSERT_TRUE(reattached.ok()) << reattached.status().ToString();
  ASSERT_EQ(reattached->num_ptr_maps(), maps.size());
  for (uint32_t i = 0; i < maps.size(); ++i) {
    EXPECT_TRUE(SameMap(reattached->ptr_map(i), maps[i])) << i;
  }
  ASSERT_EQ(reattached->num_members(), members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(reattached->member(i), members[i]) << i;
  }
}

// A recorded map is on-media input: Attach validates every one, and counts
// whose tables overlap, with DataLoss.
TEST(PoolMetaChainTest, AttachRejectsAMalformedPtrMapOrOverlappingTables) {
  Segments segments;
  auto& head = segments.Add(kPoolMetaHeapSize);
  ASSERT_TRUE(PoolMetaView::Format(head.view, Uuid::Generate(), "p").ok());
  auto meta = segments.Attach();
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(meta->AddPtrMap(MapFor(100, 16, 8)).ok());
  ASSERT_TRUE(segments.Attach().ok());

  auto* header = reinterpret_cast<PoolMetaHeader*>(head.view.heap());
  auto* record = reinterpret_cast<PtrMapRecord*>(static_cast<uint8_t*>(head.view.heap()) +
                                                 head.view.heap_size()) - 1;
  record->field_offsets[0] = 16;  // Past the 16-byte object.
  EXPECT_EQ(segments.Attach().status().code(), StatusCode::kDataLoss);
  record->field_offsets[0] = 8;
  ASSERT_TRUE(segments.Attach().ok());

  header->num_members = 160;  // 160 * 24 + 144 > 3960.
  EXPECT_EQ(segments.Attach().status().code(), StatusCode::kDataLoss);
}

// A map persists before the count that publishes it, as a member does: every
// fence-boundary crash state of two appends, with a segment chained between
// them as Pool::RecordPtrMap chains one, attaches to a prefix of the records.
TEST(PoolMetaChainTest, PtrMapAppendCrashStatesAttachToARecordPrefix) {
  Segments segments;
  auto& head = segments.Add(kPoolMetaHeapSize);
  ASSERT_TRUE(PoolMetaView::Format(head.view, Uuid::Generate(), "p").ok());
  auto meta = segments.Attach();
  ASSERT_TRUE(meta.ok());
  while (meta->capacity() - meta->num_members() > 6) {  // Room for one map.
    ASSERT_TRUE(meta->AddMember(Uuid::Generate()).ok());
  }
  auto& next = segments.Add(2 * kPoolMetaHeapSize);
  const std::vector<PtrMapRecord> maps = {MapFor(100, 16, 8), MapFor(101, 24, 0)};

  crashsim::TraceRecorder recorder;
  recorder.Start({{.base = reinterpret_cast<uintptr_t>(head.base), .size = head.size},
                  {.base = reinterpret_cast<uintptr_t>(next.base), .size = next.size}});
  ASSERT_TRUE(meta->AddPtrMap(maps[0]).ok());
  ASSERT_EQ(meta->AddPtrMap(maps[1]).code(), StatusCode::kOutOfMemory);
  ASSERT_TRUE(meta->AppendSegment(next.uuid, next.view).ok());
  ASSERT_TRUE(meta->AddPtrMap(maps[1]).ok());
  const crashsim::Trace trace = recorder.Stop();

  const auto states = crashsim::EnumerateCrashStates(trace, {});
  ASSERT_FALSE(states.empty());
  std::set<uint32_t> record_counts;
  for (const crashsim::CrashStateSpec& spec : states) {
    crashsim::ApplyCrashState(trace, spec);
    auto recovered = segments.Attach();
    ASSERT_TRUE(recovered.ok()) << spec.ToString() << ": " << recovered.status().ToString();
    ASSERT_LE(recovered->num_ptr_maps(), maps.size()) << spec.ToString();
    for (uint32_t i = 0; i < recovered->num_ptr_maps(); ++i) {
      ASSERT_TRUE(SameMap(recovered->ptr_map(i), maps[i])) << spec.ToString() << " map " << i;
    }
    record_counts.insert(recovered->num_ptr_maps());
  }
  EXPECT_EQ(record_counts, (std::set<uint32_t>{0, 1, 2})) << "the sweep must cross both publishes";
}

// ---- Log space (Fig. 5 directory) ----

class LogSpaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PuddleParams params;
    params.kind = PuddleKind::kLogSpace;
    params.heap_size = 1 << 20;
    params.uuid = Uuid::Generate();
    size_t file_size = Puddle::FileSizeFor(params.kind, params.heap_size);
    file_.resize(file_size);
    ASSERT_TRUE(Puddle::Format(file_.data(), file_size, params).ok());
    auto puddle = Puddle::Attach(file_.data(), file_size);
    ASSERT_TRUE(puddle.ok());
    puddle_ = *puddle;
  }

  std::vector<uint8_t> file_;
  Puddle puddle_;
};

TEST_F(LogSpaceTest, FormatAndAddLogs) {
  ASSERT_TRUE(LogSpaceView::Format(puddle_).ok());
  auto view = LogSpaceView::Attach(puddle_);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_entries(), 0u);

  std::vector<Uuid> logs;
  for (int i = 0; i < 16; ++i) {
    logs.push_back(Uuid::Generate());
    ASSERT_TRUE(view->AddLog(logs.back()).ok());
  }
  EXPECT_EQ(view->num_entries(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(view->entry(i), logs[i]);
    EXPECT_TRUE(view->Contains(logs[i]));
  }
  EXPECT_FALSE(view->Contains(Uuid::Generate()));

  // Reattach preserves entries (the directory the daemon reads at recovery).
  auto reattached = LogSpaceView::Attach(puddle_);
  ASSERT_TRUE(reattached.ok());
  EXPECT_EQ(reattached->num_entries(), 16u);
}

TEST_F(LogSpaceTest, AttachRejectsUnformatted) {
  EXPECT_FALSE(LogSpaceView::Attach(puddle_).ok());
}

}  // namespace
}  // namespace puddles
