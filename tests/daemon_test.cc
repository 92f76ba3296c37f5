#include "src/daemon/daemon.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "src/daemon/protocol.h"
#include "src/ipc/wire.h"
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

TEST_F(DaemonTest, FailedCreateLeavesNothingBehind) {
  auto first = daemon_->CreatePuddle(PuddleKind::kData, 64 << 10, alice_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ::close(first->second);
  const uint64_t records = daemon_->puddle_count();

  // Refused after its range and file are taken: a 128-byte data heap is
  // below the allocator's minimum, so formatting fails.
  EXPECT_FALSE(daemon_->CreatePuddle(PuddleKind::kData, 128, alice_).ok());
  // Refused before anything is taken: the kind is outside PuddleKind.
  EXPECT_EQ(daemon_->CreatePuddle(static_cast<PuddleKind>(77), 4096, alice_).status().code(),
            puddles::StatusCode::kInvalidArgument);

  EXPECT_EQ(daemon_->puddle_count(), records);
  uint64_t files = 0;
  for (const auto& entry : fs::directory_iterator(root_)) {
    files += entry.path().extension() == ".pud" ? 1 : 0;
  }
  EXPECT_EQ(files, records) << "a .pud file without a record";
  auto next = daemon_->CreatePuddle(PuddleKind::kData, 64 << 10, alice_);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ::close(next->second);
  EXPECT_EQ(next->first.base_addr,
            first->first.base_addr + puddles::AlignUp(first->first.file_size, puddles::kPageSize))
      << "the failed create kept its address range";
}

TEST_F(DaemonTest, EveryTruncatedRequestIsRefused) {
  auto puddle = daemon_->CreatePuddle(PuddleKind::kData, 1 << 20, alice_);
  ASSERT_TRUE(puddle.ok()) << puddle.status().ToString();
  ::close(puddle->second);
  ASSERT_TRUE(daemon_->CreatePool("truncated", alice_).ok());
  const Uuid uuid = puddle->first.uuid;
  const uint64_t records = daemon_->puddle_count();

  // One well-formed request per opcode the dispatcher serves.
  std::vector<std::pair<Op, puddles::WireWriter>> requests;
  auto request = [&](Op op) -> puddles::WireWriter& {
    puddles::WireWriter& w = requests.emplace_back(op, puddles::WireWriter()).second;
    w.PutU32(static_cast<uint32_t>(op));
    return w;
  };
  request(Op::kPing);
  {
    puddles::WireWriter& w = request(Op::kCreatePuddle);
    w.PutU32(static_cast<uint32_t>(PuddleKind::kData));
    w.PutU64(1 << 20);
    w.PutUuid(Uuid::Nil());
    w.PutU32(0600);
  }
  {
    puddles::WireWriter& w = request(Op::kGetPuddle);
    w.PutUuid(uuid);
    w.PutU8(1);
  }
  request(Op::kStatPuddle).PutUuid(uuid);
  request(Op::kFindByAddr).PutU64(puddle->first.base_addr);
  request(Op::kDeletePuddle).PutUuid(uuid);
  {
    puddles::WireWriter& w = request(Op::kCreatePool);
    w.PutString("another");
    w.PutU32(0600);
  }
  request(Op::kOpenPool).PutString("truncated");
  request(Op::kRegisterLogSpace).PutUuid(uuid);
  request(Op::kCompleteRewrite).PutUuid(uuid);
  {
    puddles::WireWriter& w = request(Op::kExportPool);
    w.PutString("truncated");
    w.PutString((root_ / "export").string());
  }
  {
    puddles::WireWriter& w = request(Op::kImportPool);
    w.PutString((root_ / "export").string());
    w.PutString("imported");
    w.PutU32(0600);
  }
  request(Op::kStats);
  ASSERT_EQ(requests.size(), 13u);

  for (const auto& [op, full] : requests) {
    const std::vector<uint8_t>& bytes = full.bytes();
    for (size_t length = 0; length < bytes.size(); ++length) {
      const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + length);
      DispatchResult out = DispatchRequest(*daemon_, alice_, prefix);
      puddles::WireReader reader(out.response);
      puddles::Status status;
      ASSERT_TRUE(reader.GetStatus(&status).ok());
      EXPECT_FALSE(status.ok()) << OpName(op) << " request accepted at " << length << " of "
                                << bytes.size() << " bytes";
      EXPECT_EQ(out.fd, -1);
      EXPECT_EQ(daemon_->puddle_count(), records);
    }
  }
}

TEST_F(DaemonTest, ShardedRegistriesUnderConcurrentMutation) {
  // The puddle registry is sharded by uuid hash so connection threads can
  // mutate it in parallel. Hammer creates and lookups from several threads,
  // then prove the sharded files reopen as one coherent registry.
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

// A fresh root formats its registry tables over the zeros of their
// just-created files, writing only each header: the puddle shards, the pool
// table and the log-space table take puts, and a restart finds them all.
TEST_F(DaemonTest, FreshRootTablesKeepTheirPutsAcrossRestart) {
  std::vector<PuddleInfo> created;
  for (int i = 0; i < 64; ++i) {
    auto puddle = daemon_->CreatePuddle(PuddleKind::kData, 1 << 16, alice_);
    ASSERT_TRUE(puddle.ok()) << puddle.status().ToString();
    ::close(puddle->second);
    created.push_back(puddle->first);
  }
  auto pool = daemon_->CreatePool("fresh", alice_);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  MappedPuddle space = CreateMapped(*daemon_, PuddleKind::kLogSpace, alice_);
  ASSERT_TRUE(puddles::LogSpaceView::Format(space.puddle).ok());
  ASSERT_TRUE(daemon_->RegisterLogSpace(space.info.uuid, alice_).ok());
  const uint64_t records = daemon_->puddle_count();
  ASSERT_EQ(records, created.size() + 2) << "the data puddles, the pool meta, the log space";

  Restart();
  EXPECT_EQ(daemon_->puddle_count(), records);
  for (const PuddleInfo& info : created) {
    auto stat = daemon_->StatPuddle(info.uuid, alice_);
    ASSERT_TRUE(stat.ok()) << stat.status().ToString();
    EXPECT_EQ(stat->base_addr, info.base_addr);
  }
  auto opened = daemon_->OpenPool("fresh", alice_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->pool_uuid, pool->pool_uuid);
  auto report = daemon_->RunRecovery();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->log_spaces_scanned, 1u);
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
