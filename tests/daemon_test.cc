#include "src/daemon/daemon.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "src/pmem/mapped_file.h"
#include "src/puddles/format.h"
#include "src/tx/log_format.h"
#include "src/tx/log_space.h"

namespace puddled {
namespace {

namespace fs = std::filesystem;

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("puddled_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    auto daemon = Daemon::Start({.root_dir = root_.string()});
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(*daemon);
  }

  void TearDown() override {
    daemon_.reset();
    fs::remove_all(root_);
  }

  void Restart() {
    daemon_.reset();
    auto daemon = Daemon::Start({.root_dir = root_.string()});
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(*daemon);
  }

  fs::path root_;
  std::unique_ptr<Daemon> daemon_;
  Credentials alice_{1000, 1000};
  Credentials bob_{1001, 1001};
  Credentials carol_same_group_{1002, 1000};
};

TEST_F(DaemonTest, CreatePuddleReturnsUsableFd) {
  auto created = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto [info, fd] = *created;
  EXPECT_FALSE(info.uuid.is_nil());
  EXPECT_GT(info.base_addr, 0u);
  EXPECT_EQ(info.heap_size, 1u << 20);

  auto file = pmem::PmemFile::FromFd(fd);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->size(), info.file_size);
  auto base = file->Map();
  ASSERT_TRUE(base.ok());
  auto puddle = puddles::Puddle::Attach(*base, file->size());
  ASSERT_TRUE(puddle.ok());
  EXPECT_EQ(puddle->uuid(), info.uuid);
  EXPECT_EQ(puddle->base_addr(), info.base_addr);
}

TEST_F(DaemonTest, BaseAddressesDoNotOverlap) {
  uint64_t prev_end = 0;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  for (int i = 0; i < 8; ++i) {
    auto created = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_);
    ASSERT_TRUE(created.ok());
    ranges.push_back({created->first.base_addr, created->first.file_size});
    ::close(created->second);
  }
  std::sort(ranges.begin(), ranges.end());
  for (const auto& [base, size] : ranges) {
    EXPECT_GE(base, prev_end) << "overlapping assignment";
    prev_end = base + size;
  }
}

TEST_F(DaemonTest, AccessControlMatrix) {
  auto created = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_, Uuid::Nil(), 0640);
  ASSERT_TRUE(created.ok());
  ::close(created->second);
  const Uuid uuid = created->first.uuid;

  // Owner: read and write.
  auto owner_rw = daemon_->GetPuddle(uuid, alice_, /*write=*/true);
  ASSERT_TRUE(owner_rw.ok());
  ::close(owner_rw->second);

  // Same group: read only (mode 0640).
  auto group_read = daemon_->GetPuddle(uuid, carol_same_group_, /*write=*/false);
  ASSERT_TRUE(group_read.ok());
  ::close(group_read->second);
  auto group_write = daemon_->GetPuddle(uuid, carol_same_group_, /*write=*/true);
  EXPECT_EQ(group_write.status().code(), puddles::StatusCode::kPermissionDenied);

  // Other: nothing.
  auto other_read = daemon_->GetPuddle(uuid, bob_, /*write=*/false);
  EXPECT_EQ(other_read.status().code(), puddles::StatusCode::kPermissionDenied);
}

TEST_F(DaemonTest, ReadOnlyFdIsEnforcedByKernel) {
  auto created = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_, Uuid::Nil(), 0644);
  ASSERT_TRUE(created.ok());
  ::close(created->second);

  auto read_only = daemon_->GetPuddle(created->first.uuid, bob_, /*write=*/false);
  ASSERT_TRUE(read_only.ok());
  auto file = pmem::PmemFile::FromFd(read_only->second, /*writable=*/false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Map().ok());
  // A writable mapping over the read-only capability must fail.
  auto rw_file = pmem::PmemFile::FromFd(::dup(file->fd()), /*writable=*/true);
  ASSERT_TRUE(rw_file.ok());
  EXPECT_FALSE(rw_file->Map().ok()) << "kernel must reject PROT_WRITE on O_RDONLY fd";
}

TEST_F(DaemonTest, GetUnknownPuddleFails) {
  auto result = daemon_->GetPuddle(Uuid::Generate(), alice_, false);
  EXPECT_EQ(result.status().code(), puddles::StatusCode::kNotFound);
}

TEST_F(DaemonTest, RegistryPersistsAcrossRestart) {
  auto created = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_);
  ASSERT_TRUE(created.ok());
  ::close(created->second);
  const PuddleInfo original = created->first;

  Restart();

  auto reopened = daemon_->GetPuddle(original.uuid, alice_, true);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->first.base_addr, original.base_addr) << "assignments must be stable";
  ::close(reopened->second);

  // New puddles must not collide with pre-restart assignments.
  auto fresh = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->first.base_addr, original.base_addr);
  ::close(fresh->second);
}

TEST_F(DaemonTest, DeletePuddleRemovesFileAndRecord) {
  auto created = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_);
  ASSERT_TRUE(created.ok());
  ::close(created->second);
  const Uuid uuid = created->first.uuid;

  EXPECT_EQ(daemon_->DeletePuddle(uuid, bob_).code(),
            puddles::StatusCode::kPermissionDenied);
  ASSERT_TRUE(daemon_->DeletePuddle(uuid, alice_).ok());
  EXPECT_EQ(daemon_->GetPuddle(uuid, alice_, false).status().code(),
            puddles::StatusCode::kNotFound);
  // Address range can be reused.
  auto fresh = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->first.base_addr, created->first.base_addr);
  ::close(fresh->second);
}

TEST_F(DaemonTest, FindPuddleByAddr) {
  auto created = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_);
  ASSERT_TRUE(created.ok());
  ::close(created->second);
  const PuddleInfo info = created->first;

  auto found = daemon_->FindPuddleByAddr(info.base_addr + info.file_size / 2, alice_);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->uuid, info.uuid);

  auto missing = daemon_->FindPuddleByAddr(info.base_addr + (64ULL << 30), alice_);
  EXPECT_FALSE(missing.ok());
}

TEST_F(DaemonTest, PoolLifecycle) {
  auto pool = daemon_->CreatePool("accounts", alice_);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EXPECT_STREQ(pool->name, "accounts");

  EXPECT_EQ(daemon_->CreatePool("accounts", alice_).status().code(),
            puddles::StatusCode::kAlreadyExists);

  auto opened = daemon_->OpenPool("accounts", alice_);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->pool_uuid, pool->pool_uuid);
  EXPECT_EQ(opened->meta_puddle, pool->meta_puddle);

  EXPECT_EQ(daemon_->OpenPool("nope", alice_).status().code(),
            puddles::StatusCode::kNotFound);
  EXPECT_EQ(daemon_->OpenPool("accounts", bob_).status().code(),
            puddles::StatusCode::kPermissionDenied);

  Restart();
  EXPECT_TRUE(daemon_->OpenPool("accounts", alice_).ok());
}

TEST_F(DaemonTest, PtrMapRoundTrip) {
  PtrMapRecord record{};
  record.type_id = 0xabcdef;
  record.object_size = 24;
  record.num_fields = 2;
  record.field_offsets[0] = 0;
  record.field_offsets[1] = 8;
  ASSERT_TRUE(daemon_->RegisterPtrMap(record).ok());

  auto fetched = daemon_->GetPtrMap(0xabcdef);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->num_fields, 2u);
  EXPECT_EQ(fetched->field_offsets[1], 8u);
  EXPECT_FALSE(daemon_->GetPtrMap(0x123).ok());

  Restart();
  EXPECT_TRUE(daemon_->GetPtrMap(0xabcdef).ok()) << "pointer maps must persist";
}

TEST_F(DaemonTest, RegisterLogSpaceValidatesKind) {
  auto data = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_);
  ASSERT_TRUE(data.ok());
  ::close(data->second);
  EXPECT_FALSE(daemon_->RegisterLogSpace(data->first.uuid, alice_).ok());

  auto ls = daemon_->CreatePuddle(PuddleKind::kLogSpace, 1 << 20, alice_);
  ASSERT_TRUE(ls.ok());
  ::close(ls->second);
  EXPECT_TRUE(daemon_->RegisterLogSpace(ls->first.uuid, alice_).ok());
  EXPECT_FALSE(daemon_->RegisterLogSpace(ls->first.uuid, bob_).ok())
      << "cannot register someone else's log space";
}

TEST_F(DaemonTest, ShardedRegistriesUnderConcurrentMutation) {
  // The daemon-side registries are sharded by uuid/type-id hash so the event
  // server's worker pool can mutate them in parallel. Hammer creates,
  // registrations, and lookups from several threads, then prove the sharded
  // files reopen as one coherent registry.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  std::vector<std::vector<Uuid>> created(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures, &created] {
      Credentials who{static_cast<uint32_t>(2000 + t), 2000};
      for (int i = 0; i < kPerThread; ++i) {
        auto puddle = daemon_->CreatePuddle(PuddleKind::kData, 1 << 16, who);
        if (!puddle.ok()) {
          ++failures;
          continue;
        }
        ::close(puddle->second);
        created[t].push_back(puddle->first.uuid);

        PtrMapRecord record{};
        record.type_id = static_cast<uint64_t>(t) * kPerThread + i + 1;
        record.num_fields = 1;
        record.object_size = 16;
        record.field_offsets[0] = 8;
        if (!daemon_->RegisterPtrMap(record).ok()) {
          ++failures;
        }
        // Read back something another shard likely owns.
        auto looked_up = daemon_->GetPuddle(created[t].front(), who, false);
        if (!looked_up.ok()) {
          ++failures;
        } else {
          ::close(looked_up->second);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_EQ(failures.load(), 0);

  // Every shard file exists on disk (the daemon runs 8 shards).
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_TRUE(fs::exists(root_ / ("puddles." + std::to_string(s) + ".tbl")));
    EXPECT_TRUE(fs::exists(root_ / ("ptrmaps." + std::to_string(s) + ".tbl")));
  }

  Restart();
  for (int t = 0; t < kThreads; ++t) {
    Credentials who{static_cast<uint32_t>(2000 + t), 2000};
    ASSERT_EQ(created[t].size(), static_cast<size_t>(kPerThread));
    for (const Uuid& uuid : created[t]) {
      auto got = daemon_->GetPuddle(uuid, who, false);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ::close(got->second);
    }
    for (int i = 0; i < kPerThread; ++i) {
      const uint64_t type_id = static_cast<uint64_t>(t) * kPerThread + i + 1;
      EXPECT_TRUE(daemon_->GetPtrMap(type_id).ok()) << "type_id " << type_id;
    }
  }
}

TEST_F(DaemonTest, ReopenWithDifferentShardCountIsRejected) {
  // Shard count is baked into the on-disk layout; a root with an extra or a
  // missing shard file was written with another count, and opening it would
  // silently hide the records in the files that do not match.
  daemon_.reset();
  const fs::path last = root_ / "puddles.7.tbl";
  const fs::path extra = root_ / "puddles.8.tbl";
  fs::copy_file(last, extra);
  auto with_extra = Daemon::Start({.root_dir = root_.string()});
  EXPECT_EQ(with_extra.status().code(), puddles::StatusCode::kFailedPrecondition);
  fs::remove(extra);

  const fs::path aside = root_ / "puddles.7.tbl.aside";
  fs::rename(last, aside);
  auto with_missing = Daemon::Start({.root_dir = root_.string()});
  EXPECT_EQ(with_missing.status().code(), puddles::StatusCode::kFailedPrecondition);
  fs::rename(aside, last);

  auto same = Daemon::Start({.root_dir = root_.string()});
  EXPECT_TRUE(same.ok()) << same.status().ToString();
}

// A puddle created through the daemon and mapped into this process (at any
// address; recovery maps data puddles at their assigned bases itself).
struct MappedPuddle {
  PuddleInfo info;
  pmem::PmemFile file;
  puddles::Puddle puddle;
};

MappedPuddle CreateMapped(Daemon& daemon, PuddleKind kind, const Credentials& creds) {
  auto created = daemon.CreatePuddle(kind, 1 << 16, creds);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  auto file = pmem::PmemFile::FromFd(created->second);
  EXPECT_TRUE(file.ok());
  auto base = file->Map();
  EXPECT_TRUE(base.ok());
  auto puddle = puddles::Puddle::Attach(*base, file->size());
  EXPECT_TRUE(puddle.ok());
  return {created->first, std::move(*file), *puddle};
}

puddles::LogRegion FormatLog(const MappedPuddle& log) {
  EXPECT_TRUE(puddles::LogRegion::Format(log.puddle.heap(), log.puddle.heap_size()).ok());
  return *puddles::LogRegion::Attach(log.puddle.heap(), log.puddle.heap_size());
}

// A log whose next_log names itself must not stall recovery (each pass of
// an unbounded walk opens and maps the same file again) or stop it: that
// chain is skipped, and the other logs of the log space still replay.
TEST_F(DaemonTest, RecoverySkipsSelfLinkedLogAndReplaysTheRest) {
  MappedPuddle data = CreateMapped(*daemon_, PuddleKind::kData, alice_);
  auto* word = reinterpret_cast<uint64_t*>(data.puddle.heap());
  *word = 0xbad;
  pmem::FlushFence(word, sizeof(*word));
  const uint64_t word_addr = data.puddle.heap_addr_at_base();

  MappedPuddle cyclic = CreateMapped(*daemon_, PuddleKind::kLog, alice_);
  FormatLog(cyclic).SetNextLog(cyclic.info.uuid);
  MappedPuddle valid = CreateMapped(*daemon_, PuddleKind::kLog, alice_);
  const uint64_t old_value = 42;
  ASSERT_TRUE(FormatLog(valid)
                  .Append(word_addr, &old_value, sizeof(old_value), puddles::kUndoSeq,
                          puddles::ReplayOrder::kReverse)
                  .ok());

  MappedPuddle space = CreateMapped(*daemon_, PuddleKind::kLogSpace, alice_);
  ASSERT_TRUE(puddles::LogSpaceView::Format(space.puddle).ok());
  auto view = puddles::LogSpaceView::Attach(space.puddle);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->AddLog(cyclic.info.uuid).ok());
  ASSERT_TRUE(view->AddLog(valid.info.uuid).ok());
  ASSERT_TRUE(daemon_->RegisterLogSpace(space.info.uuid, alice_).ok());

  auto report = daemon_->RunRecovery();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->logs_scanned, 2u);
  EXPECT_EQ(report->logs_replayed, 1u);
  EXPECT_EQ(report->entries_applied, 1u);
  EXPECT_EQ(*word, old_value);
}

TEST(DaemonAccessTest, CheckAccessBits) {
  Credentials owner{1, 1}, groupie{2, 1}, other{3, 3};
  // 0600: owner rw, nobody else.
  EXPECT_TRUE(Daemon::CheckAccess(1, 1, 0600, owner, false).ok());
  EXPECT_TRUE(Daemon::CheckAccess(1, 1, 0600, owner, true).ok());
  EXPECT_FALSE(Daemon::CheckAccess(1, 1, 0600, groupie, false).ok());
  EXPECT_FALSE(Daemon::CheckAccess(1, 1, 0600, other, false).ok());
  // 0664.
  EXPECT_TRUE(Daemon::CheckAccess(1, 1, 0664, groupie, true).ok());
  EXPECT_TRUE(Daemon::CheckAccess(1, 1, 0664, other, false).ok());
  EXPECT_FALSE(Daemon::CheckAccess(1, 1, 0664, other, true).ok());
  // 0200: write-only owner.
  EXPECT_TRUE(Daemon::CheckAccess(1, 1, 0200, owner, true).ok());
  EXPECT_FALSE(Daemon::CheckAccess(1, 1, 0200, owner, false).ok());
}

TEST(DaemonStartTest, RejectsEmptyRoot) {
  EXPECT_FALSE(Daemon::Start({.root_dir = ""}).ok());
}

}  // namespace
}  // namespace puddled
