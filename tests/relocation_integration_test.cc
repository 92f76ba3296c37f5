// Location independence end to end (paper §4.2, §5.3): pools are exported as
// raw puddle files, imported as copies with fresh UUIDs, relocated on address
// conflict with incremental pointer rewriting — and multiple copies open
// simultaneously with native pointers, which PMDK-style systems cannot do.
#include <gtest/gtest.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/alloc/buddy.h"
#include "src/libpuddles/fault_router.h"
#include "src/libpuddles/libpuddles.h"
#include "src/pmem/flush.h"
#include "src/pmem/mapped_file.h"
#include "src/puddles/pool_meta.h"
#include "src/workloads/adapters.h"
#include "src/workloads/list.h"

extern char** environ;

namespace puddles {

struct RelocNode {
  RelocNode* next;
  uint64_t value;
};

struct RelocHead {
  RelocNode* head;
  RelocNode* tail;
  uint64_t count;
};

namespace {

namespace fs = std::filesystem;

void RegisterTypes() {
  static bool done = [] {
    (void)TypeRegistry::Instance().Register<RelocNode>({offsetof(RelocNode, next)});
    (void)TypeRegistry::Instance().Register<RelocHead>(&RelocHead::head,
                                                       &RelocHead::tail);
    return true;
  }();
  (void)done;
}

class RelocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterTypes();
    // A parameterized test's name holds a '/': flatten it, so base_ is one
    // directory and TearDown's remove_all leaves nothing behind.
    std::string name = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    base_ = fs::temp_directory_path() / ("reloc_test_" + std::to_string(::getpid()) + "_" + name);
    fs::remove_all(base_);
    fs::create_directories(base_);
    auto daemon = puddled::Daemon::Start({.root_dir = (base_ / "root").string()});
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(*daemon);
    auto runtime =
        Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
    ASSERT_TRUE(runtime.ok());
    runtime_ = std::move(*runtime);
  }

  void TearDown() override {
    runtime_.reset();
    daemon_.reset();
    fs::remove_all(base_);
  }

  // Builds a linked list of `n` nodes in a new pool and returns the pool.
  Pool* BuildListPool(const std::string& name, uint64_t n) {
    auto pool = runtime_->CreatePool(name);
    EXPECT_TRUE(pool.ok());
    Pool& p = **pool;
    EXPECT_TRUE(p.Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(RelocHead * head, tx.Alloc<RelocHead>());
      head->head = nullptr;
      head->tail = nullptr;
      head->count = 0;
      return p.SetRoot(head);
    }).ok());
    for (uint64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(p.Run([&](Tx& tx) -> puddles::Status {
        ASSIGN_OR_RETURN(RelocHead * head, p.Root<RelocHead>());
        ASSIGN_OR_RETURN(RelocNode * node, tx.Alloc<RelocNode>());
        node->value = i;
        node->next = nullptr;
        RETURN_IF_ERROR(tx.Log(head));
        if (head->tail == nullptr) {
          head->head = node;
        } else {
          RETURN_IF_ERROR(tx.LogField(head->tail, &RelocNode::next));
          head->tail->next = node;
        }
        head->tail = node;
        head->count++;
        return OkStatus();
      }).ok()) << i;
    }
    return &p;
  }

  // Restarts the daemon (and a fresh runtime) on `root`.
  void Restart(const fs::path& root) {
    runtime_.reset();
    daemon_.reset();
    auto daemon = puddled::Daemon::Start({.root_dir = root.string()});
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(*daemon);
    auto runtime =
        Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
    ASSERT_TRUE(runtime.ok());
    runtime_ = std::move(*runtime);
  }

  size_t CountPuddleFiles(const fs::path& dir) {
    size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      files += entry.path().extension() == ".pud" ? 1 : 0;
    }
    return files;
  }

  static uint64_t SumList(Pool& pool) {
    RelocHead* head = *pool.Root<RelocHead>();
    uint64_t sum = 0;
    for (RelocNode* node = head->head; node != nullptr; node = node->next) {
      sum += node->value;
    }
    return sum;
  }

  fs::path base_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<Runtime> runtime_;
};

TEST_F(RelocationTest, ExportProducesManifestAndFiles) {
  BuildListPool("source", 50);
  ASSERT_TRUE(runtime_->ExportPool("source", (base_ / "export").string()).ok());
  EXPECT_TRUE(fs::exists(base_ / "export" / "manifest.bin"));
  size_t puddle_files = 0;
  for (const auto& entry : fs::directory_iterator(base_ / "export")) {
    if (entry.path().extension() == ".pud") {
      ++puddle_files;
    }
  }
  EXPECT_GE(puddle_files, 2u) << "meta puddle + at least one data puddle";
}

TEST_F(RelocationTest, ImportedCopyConflictsAndRelocates) {
  Pool* source = BuildListPool("source", 100);
  const uint64_t expected = SumList(*source);

  ASSERT_TRUE(runtime_->ExportPool("source", (base_ / "export").string()).ok());

  // Importing into the same daemon: every original address is still claimed,
  // so the copy must relocate (the paper's clone-and-open-both scenario).
  auto import = runtime_->client().ImportPool((base_ / "export").string(), "copy");
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_GT(import->members_relocated, 0u) << "copies must conflict with originals";

  auto copy = runtime_->OpenPool("copy");
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();

  // Both copies are simultaneously traversable with native pointers.
  EXPECT_EQ(SumList(*source), expected);
  EXPECT_EQ(SumList(**copy), expected);

  // And they are genuinely different memory.
  RelocNode* source_head = (*source->Root<RelocHead>())->head;
  RelocNode* copy_head = (*(*copy)->Root<RelocHead>())->head;
  EXPECT_NE(source_head, copy_head);

  // Writes to the copy do not bleed into the source.
  ASSERT_TRUE((*copy)->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogField(copy_head, &RelocNode::value));
    copy_head->value += 5000;
    return OkStatus();
  }).ok());
  EXPECT_EQ(SumList(**copy), expected + 5000);
  EXPECT_EQ(SumList(*source), expected);

  auto stats = runtime_->stats();
  EXPECT_GT(stats.pointers_rewritten, 0u) << "relocation must have rewritten pointers";
}

TEST_F(RelocationTest, ThreeCopiesOpenSimultaneously) {
  Pool* source = BuildListPool("source", 40);
  const uint64_t expected = SumList(*source);
  ASSERT_TRUE(runtime_->ExportPool("source", (base_ / "export").string()).ok());

  auto copy1 = runtime_->ImportPool((base_ / "export").string(), "copy1");
  auto copy2 = runtime_->ImportPool((base_ / "export").string(), "copy2");
  ASSERT_TRUE(copy1.ok());
  ASSERT_TRUE(copy2.ok());
  EXPECT_EQ(SumList(*source), expected);
  EXPECT_EQ(SumList(**copy1), expected);
  EXPECT_EQ(SumList(**copy2), expected);
}

TEST_F(RelocationTest, ImportIntoFreshSpaceNeedsNoRewrite) {
  // Exported to disk, original deleted (daemon restarted on a fresh root):
  // the old addresses are free, so the import keeps them — the "common case"
  // fast path of §4.2.
  BuildListPool("source", 30);
  ASSERT_TRUE(runtime_->ExportPool("source", (base_ / "export").string()).ok());
  runtime_.reset();
  daemon_.reset();

  auto daemon = puddled::Daemon::Start({.root_dir = (base_ / "root2").string()});
  ASSERT_TRUE(daemon.ok());
  daemon_ = std::move(*daemon);
  auto runtime =
      Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
  ASSERT_TRUE(runtime.ok());
  runtime_ = std::move(*runtime);

  auto import = runtime_->client().ImportPool((base_ / "export").string(), "migrated");
  ASSERT_TRUE(import.ok());
  EXPECT_EQ(import->members_relocated, 0u) << "no conflicts in an empty space";

  auto pool = runtime_->OpenPool("migrated");
  ASSERT_TRUE(pool.ok());
  uint64_t expected = 0;
  for (uint64_t i = 0; i < 30; ++i) {
    expected += i;
  }
  EXPECT_EQ(SumList(**pool), expected);
}

// OpenPool matches the full requested name against PoolRecord::name, which
// keeps 63 bytes: a longer name is refused before anything is copied.
TEST_F(RelocationTest, ImportRefusesNamesThatCannotBeOpened) {
  Pool* source = BuildListPool("source", 10);
  const uint64_t expected = SumList(*source);
  ASSERT_TRUE(runtime_->ExportPool("source", (base_ / "export").string()).ok());
  const uint64_t puddles_before = daemon_->puddle_count();

  auto refused = runtime_->client().ImportPool((base_ / "export").string(), std::string(64, 'n'));
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument) << refused.status().ToString();
  EXPECT_EQ(daemon_->puddle_count(), puddles_before);

  const std::string longest(63, 'n');
  auto import = runtime_->client().ImportPool((base_ / "export").string(), longest);
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  auto copy = runtime_->OpenPool(longest);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_EQ(SumList(**copy), expected);
}

// An import that fails part way leaves nothing behind: no copied file, no
// record and no address claim. Into an empty space, the repaired export then
// keeps every original address; a leaked claim would relocate its puddle.
TEST_F(RelocationTest, FailedImportLeavesNoCopyOrClaim) {
  Pool* source = BuildListPool("source", 30);
  const uint64_t expected = SumList(*source);
  const Uuid meta = source->info().meta_puddle;
  const fs::path export_dir = base_ / "export";
  ASSERT_TRUE(runtime_->ExportPool("source", export_dir.string()).ok());
  runtime_.reset();
  daemon_.reset();

  auto daemon = puddled::Daemon::Start({.root_dir = (base_ / "root2").string()});
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  daemon_ = std::move(*daemon);
  auto runtime =
      Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
  ASSERT_TRUE(runtime.ok());
  runtime_ = std::move(*runtime);

  auto count_puddle_files = [&] {
    size_t files = 0;
    for (const auto& entry : fs::directory_iterator(base_ / "root2")) {
      files += entry.path().extension() == ".pud" ? 1 : 0;
    }
    return files;
  };
  const size_t files_before = count_puddle_files();
  const uint64_t puddles_before = daemon_->puddle_count();

  // Hide one data member: the meta puddle is copied before its turn comes.
  fs::path member;
  for (const auto& entry : fs::directory_iterator(export_dir)) {
    if (entry.path().extension() == ".pud" && entry.path().stem() != meta.ToString()) {
      member = entry.path();
      break;
    }
  }
  ASSERT_FALSE(member.empty());
  const fs::path hidden = member.string() + ".hidden";
  fs::rename(member, hidden);

  auto failed = runtime_->client().ImportPool(export_dir.string(), "migrated");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(count_puddle_files(), files_before);
  EXPECT_EQ(daemon_->puddle_count(), puddles_before);

  fs::rename(hidden, member);
  auto import = runtime_->client().ImportPool(export_dir.string(), "migrated");
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->members_relocated, 0u) << "a failed import's claim outlived it";
  auto pool = runtime_->OpenPool("migrated");
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EXPECT_EQ(SumList(**pool), expected);
}

TEST_F(RelocationTest, MultiPuddleListRelocatesOnDemand) {
  // A list large enough to span puddles: importing a conflicting copy forces
  // relocation; traversal then faults in and rewrites each puddle on demand
  // (the §4.2 cascade).
  constexpr uint64_t kNodes = 90000;  // 90k * 32 B slots overflows one 2 MiB puddle.
  Pool* source = BuildListPool("source", kNodes);
  ASSERT_GT(source->member_count(), 1u) << "test needs a multi-puddle pool";
  const uint64_t expected = SumList(*source);

  ASSERT_TRUE(runtime_->ExportPool("source", (base_ / "export").string()).ok());
  auto before = FaultRouter::Instance().stats();
  auto copy = runtime_->ImportPool((base_ / "export").string(), "copy");
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();

  EXPECT_EQ(SumList(**copy), expected);
  auto after = FaultRouter::Instance().stats();
  EXPECT_GT(after.faults_handled, before.faults_handled)
      << "traversal must fault-map the non-root puddles on demand";
  EXPECT_EQ(SumList(*source), expected) << "original undisturbed";
}

TEST_F(RelocationTest, StaleExportedFrontierStillRewritesIdentityImports) {
  // An export taken from a puddle whose CompleteRewrite tore between its two
  // fences carries (flag clear, frontier = count) — harmless at home, but a
  // member imported WITHOUT a base conflict is armed for rewrite by the
  // identity branch of Daemon::ImportPool, and resuming from the stale
  // frontier there would skip the whole rewrite and leave its inter-member
  // pointers targeting the source pool's memory.
  constexpr uint64_t kNodes = 90000;  // Multi-puddle pool: mixed-conflict import.
  Pool* source = BuildListPool("source", kNodes);
  ASSERT_GT(source->member_count(), 1u);
  const uint64_t expected = SumList(*source);
  ASSERT_TRUE(runtime_->ExportPool("source", (base_ / "export").string()).ok());

  // To get a MIXED import (some identity, some conflicting) the freed holes
  // must not be re-captured by first-fit relocation of earlier-imported
  // members: free the meta puddle and every data member except the LAST —
  // imports claim bases in manifest order, so all identity claims land
  // before the surviving member forces a relocation.
  std::vector<Uuid> victims;  // Source members to delete, in base order.
  victims.push_back(source->info().meta_puddle);
  std::vector<Uuid> data_members;
  for (Runtime::Entry* entry : runtime_->Entries()) {  // Base-ordered.
    if (entry->info.pool_uuid == source->info().pool_uuid &&
        entry->info.kind == static_cast<uint32_t>(PuddleKind::kData)) {
      data_members.push_back(entry->info.uuid);
    }
  }
  ASSERT_GT(data_members.size(), 1u);
  victims.insert(victims.end(), data_members.begin(), data_members.end() - 1);

  // Plant the torn-completion header state in every exported data member.
  for (const auto& dirent : fs::directory_iterator(base_ / "export")) {
    if (dirent.path().extension() != ".pud") {
      continue;
    }
    auto file = pmem::PmemFile::Open(dirent.path().string());
    ASSERT_TRUE(file.ok());
    auto mapped = file->Map();
    ASSERT_TRUE(mapped.ok());
    auto puddle = Puddle::Attach(*mapped, file->size());
    ASSERT_TRUE(puddle.ok());
    if (puddle->kind() == PuddleKind::kData) {
      puddle->header()->rewrite_frontier = 1'000'000;
      pmem::FlushFence(puddle->header(), sizeof(PuddleHeader));
    }
  }

  // Reboot so the victim's range is genuinely free to claim, then delete it:
  // the import now sees one conflict-free (identity) member among conflicts.
  runtime_.reset();
  daemon_.reset();
  auto daemon = puddled::Daemon::Start({.root_dir = (base_ / "root").string()});
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  daemon_ = std::move(*daemon);
  auto runtime =
      Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
  ASSERT_TRUE(runtime.ok());
  runtime_ = std::move(*runtime);
  for (const Uuid& victim : victims) {
    ASSERT_TRUE(runtime_->client().DeletePuddle(victim).ok());
  }

  auto import = runtime_->client().ImportPool((base_ / "export").string(), "copy");
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_GT(import->members_relocated, 0u);
  EXPECT_LT(import->members_relocated, import->members_imported)
      << "test needs at least one identity (conflict-free) data member";

  auto copy = runtime_->OpenPool("copy");
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_EQ(SumList(**copy), expected);
  // Every recovered pointer must resolve inside the copy — a stale pointer
  // surviving the skipped rewrite would land in a source member instead.
  RelocHead* head = *(*copy)->Root<RelocHead>();
  uint64_t checked = 0;
  for (RelocNode* node = head->head; node != nullptr; node = node->next) {
    Runtime::Entry* entry =
        runtime_->FindEntryByAddr(reinterpret_cast<uintptr_t>(node));
    ASSERT_NE(entry, nullptr);
    ASSERT_EQ(entry->info.pool_uuid, (*copy)->info().pool_uuid)
        << "node " << checked << " still points into the source pool";
    ++checked;
  }
  EXPECT_EQ(checked, kNodes);
}

TEST_F(RelocationTest, RewriteStatsCountPointers) {
  // Direct unit-level check of the rewrite pass over a relocated puddle.
  Pool* source = BuildListPool("source", 64);
  const uint64_t expected = SumList(*source);
  ASSERT_TRUE(runtime_->ExportPool("source", (base_ / "export").string()).ok());
  auto import = runtime_->client().ImportPool((base_ / "export").string(), "copy");
  ASSERT_TRUE(import.ok());
  auto before = runtime_->stats();
  auto copy = runtime_->OpenPool("copy");
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(SumList(**copy), expected);
  auto stats = runtime_->stats();
  // 64 nodes (1 pointer each; tail's next is null) + head object (2 pointers).
  EXPECT_GE(stats.pointers_rewritten - before.pointers_rewritten, 64u);
}

// A pool meta chain mapped straight from a daemon's (or an export's) files.
struct MappedChain {
  std::vector<pmem::PmemFile> files;
  PoolMetaView meta;
};

std::unique_ptr<MappedChain> MapChain(const std::function<std::string(const Uuid&)>& path_of,
                                      const Uuid& head) {
  auto chain = std::make_unique<MappedChain>();
  auto meta = PoolMetaView::Attach(head, [&](const Uuid& uuid) -> puddles::Result<Puddle> {
    ASSIGN_OR_RETURN(pmem::PmemFile file, pmem::PmemFile::Open(path_of(uuid)));
    ASSIGN_OR_RETURN(void* base, file.Map());
    ASSIGN_OR_RETURN(Puddle puddle, Puddle::Attach(base, file.size()));
    chain->files.push_back(std::move(file));
    return puddle;
  });
  EXPECT_TRUE(meta.ok()) << meta.status().ToString();
  if (meta.ok()) {
    chain->meta = *meta;
  }
  return chain;
}

// Calls `fn` on every puddle file of an export directory, mapped writable.
void ForEachExportedPuddle(const fs::path& dir, const std::function<void(Puddle&)>& fn) {
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (dirent.path().extension() != ".pud") {
      continue;
    }
    auto file = pmem::PmemFile::Open(dirent.path().string());
    ASSERT_TRUE(file.ok());
    auto mapped = file->Map();
    ASSERT_TRUE(mapped.ok());
    auto puddle = Puddle::Attach(*mapped, file->size());
    ASSERT_TRUE(puddle.ok()) << puddle.status().ToString();
    fn(*puddle);
  }
}

using StateList = workloads::PersistentList<workloads::PuddlesAdapter>;
constexpr uint64_t kShipListVars = 16384;

// Paper Fig. 14's shipped state, as bench/e2e's ship-list seeds it: a
// 16,384-variable list in pool "state", whose allocations end at 549,056 B
// of a 2 MiB heap.
void SeedShipList(Runtime& runtime) {
  StateList::RegisterTypes();
  auto pool = runtime.CreatePool("state");
  ASSERT_TRUE(pool.ok());
  StateList list{workloads::PuddlesAdapter(*pool)};
  ASSERT_TRUE(list.Init().ok());
  for (uint64_t i = 0; i < kShipListVars; ++i) {
    ASSERT_TRUE(list.InsertTail(i).ok());
  }
  ASSERT_EQ((*pool)->member_count(), 1u);
}

// The ship-list seed's export cuts its member at the next page, a 552,960 B
// heap behind the 16 KiB header and metadata, and the importer maps and
// relocates the cut copy with every pointer intact.
TEST_F(RelocationTest, ShipListSeedImportIsCutAtItsLastPage) {
  const uint64_t expected = kShipListVars * (kShipListVars - 1) / 2;
  ASSERT_NO_FATAL_FAILURE(SeedShipList(*runtime_));
  ASSERT_TRUE(runtime_->ExportPool("state", (base_ / "export").string()).ok());

  auto import = runtime_->client().ImportPool((base_ / "export").string(), "copy");
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_GT(import->members_relocated, 0u);
  auto copy = runtime_->OpenPool("copy");
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  auto chain = MapChain([&](const Uuid& uuid) { return daemon_->PuddlePath(uuid); },
                        import->pool.meta_puddle);
  ASSERT_EQ(chain->meta.num_members(), 1u);
  auto member = daemon_->StatPuddle(chain->meta.member(0), puddled::Credentials::Self());
  ASSERT_TRUE(member.ok());
  EXPECT_EQ(member->heap_size, 552960u);
  EXPECT_EQ(member->file_size, 569344u) << "header page + metadata + heap";
  auto meta_segment = daemon_->StatPuddle(import->pool.meta_puddle, puddled::Credentials::Self());
  ASSERT_TRUE(meta_segment.ok());
  EXPECT_EQ(meta_segment->file_size, 8192u) << "a one-page pool meta";

  auto* head = *(*copy)->Root<StateList::Head>();
  uint64_t sum = 0;
  uint64_t count = 0;
  for (StateList::Node* n = head->head; n != nullptr; n = n->next) {
    Runtime::Entry* entry = runtime_->FindEntryByAddr(reinterpret_cast<uintptr_t>(n));
    ASSERT_NE(entry, nullptr);
    ASSERT_EQ(entry->info.pool_uuid, (*copy)->info().pool_uuid) << "node " << count;
    sum += n->value;
    ++count;
  }
  EXPECT_EQ(count, kShipListVars);
  EXPECT_EQ(sum, expected);
}

// Bytes this process has read and written through system calls
// (/proc/self/io rchar and wchar), or nullopt where the kernel does not say.
std::optional<std::pair<uint64_t, uint64_t>> IoBytes() {
  std::ifstream io("/proc/self/io");
  std::optional<uint64_t> read, written;
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "rchar:") {
      read = value;
    } else if (key == "wchar:") {
      written = value;
    }
  }
  if (!read || !written) {
    return std::nullopt;
  }
  return std::make_pair(*read, *written);
}

// An export copies only what it ships: the ship-list seed's member file is
// 2,129,920 B, but the export reads and writes no more bytes than the
// export directory ends up holding (the cut member, the one-page pool meta
// and the manifest), give or take a page for reading the counts themselves.
TEST_F(RelocationTest, ShipListSeedExportCopiesOnlyWhatItShips) {
  ASSERT_NO_FATAL_FAILURE(SeedShipList(*runtime_));
  const auto before = IoBytes();
  if (!before) {
    GTEST_SKIP() << "no /proc/self/io byte counts";
  }
  ASSERT_TRUE(runtime_->ExportPool("state", (base_ / "export").string()).ok());
  const auto after = IoBytes();
  ASSERT_TRUE(after);
  uint64_t shipped = 0;
  for (const auto& dirent : fs::directory_iterator(base_ / "export")) {
    shipped += fs::file_size(dirent.path());
  }
  EXPECT_EQ(shipped, 569344u + 8192u + fs::file_size(base_ / "export" / "manifest.bin"));
  EXPECT_LE(after->first - before->first, shipped + kPageSize) << "bytes read";
  EXPECT_LE(after->second - before->second, shipped + kPageSize) << "bytes written";
}

// An imported copy is already at its live extent: its re-export copies the
// member as it is, and that export imports with every value intact.
TEST_F(RelocationTest, ShipListSeedReExportShipsTheCutMemberAsItIs) {
  ASSERT_NO_FATAL_FAILURE(SeedShipList(*runtime_));
  ASSERT_TRUE(runtime_->ExportPool("state", (base_ / "export").string()).ok());
  ASSERT_TRUE(runtime_->client().ImportPool((base_ / "export").string(), "copy").ok());
  ASSERT_TRUE(runtime_->OpenPool("copy").ok());
  ASSERT_TRUE(runtime_->ExportPool("copy", (base_ / "reexport").string()).ok());
  std::vector<uintmax_t> sizes;
  for (const auto& dirent : fs::directory_iterator(base_ / "reexport")) {
    if (dirent.path().extension() == ".pud") {
      sizes.push_back(fs::file_size(dirent.path()));
    }
  }
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<uintmax_t>{8192u, 569344u})) << "pool meta, then the member";

  auto import = runtime_->client().ImportPool((base_ / "reexport").string(), "again");
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  auto again = runtime_->OpenPool("again");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto* head = *(*again)->Root<StateList::Head>();
  uint64_t sum = 0;
  uint64_t count = 0;
  for (StateList::Node* n = head->head; n != nullptr; n = n->next) {
    sum += n->value;
    ++count;
  }
  EXPECT_EQ(count, kShipListVars);
  EXPECT_EQ(sum, kShipListVars * (kShipListVars - 1) / 2);
}

// A member table grown past two continuation segments (with small data
// puddles made through the daemon) survives export, import into another
// root where its addresses are taken, relocation, and a daemon restart.
TEST_F(RelocationTest, ChainedPoolMetaRoundTripsThroughExportImportAndRestart) {
  const puddled::Credentials creds = puddled::Credentials::Self();
  Pool* source = BuildListPool("source", 50);
  const uint64_t expected = SumList(*source);
  const Uuid pool_uuid = source->info().pool_uuid;
  const Uuid head = source->info().meta_puddle;
  runtime_.reset();  // The pool's cached meta view would go stale below.

  {
    auto path_of = [&](const Uuid& uuid) { return daemon_->PuddlePath(uuid); };
    auto chain = MapChain(path_of, head);
    PoolMetaView& meta = chain->meta;
    while (meta.num_segments() < 3 || meta.num_members() < 165 + 335 + 10) {
      if (meta.full()) {
        auto segment = daemon_->CreatePuddle(PuddleKind::kPoolMeta, 2 * meta.tail_heap_size(),
                                             creds, pool_uuid);
        ASSERT_TRUE(segment.ok()) << segment.status().ToString();
        ::close(segment->second);
        auto file = pmem::PmemFile::Open(path_of(segment->first.uuid));
        ASSERT_TRUE(file.ok());
        auto mapped = file->Map();
        ASSERT_TRUE(mapped.ok());
        auto puddle = Puddle::Attach(*mapped, file->size());
        ASSERT_TRUE(puddle.ok());
        ASSERT_TRUE(meta.AppendSegment(segment->first.uuid, *puddle).ok());
        chain->files.push_back(std::move(*file));
      }
      auto member = daemon_->CreatePuddle(PuddleKind::kData, 4096, creds, pool_uuid);
      ASSERT_TRUE(member.ok()) << member.status().ToString();
      ::close(member->second);
      ASSERT_TRUE(meta.AddMember(member->first.uuid).ok());
    }
  }
  const fs::path export_dir = base_ / "export";
  ASSERT_TRUE(daemon_->ExportPool("source", export_dir.string(), creds).ok());

  // Another root, whose first pool takes the source's first addresses.
  Restart(base_ / "root2");
  BuildListPool("filler", 1);
  auto import = runtime_->client().ImportPool(export_dir.string(), "copy");
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_GT(import->members_relocated, 0u);
  EXPECT_EQ(import->members_imported, 1u + 165 + 335 + 9);

  auto check_copy = [&](std::vector<Uuid>* members, std::vector<uint64_t>* old_bases) {
    auto copy = runtime_->OpenPool("copy");
    ASSERT_TRUE(copy.ok()) << copy.status().ToString();
    EXPECT_EQ(SumList(**copy), expected);
    EXPECT_EQ((*copy)->member_count(), import->members_imported);
    EXPECT_FALSE((*copy)->translator().empty());
    auto chain = MapChain([&](const Uuid& uuid) { return daemon_->PuddlePath(uuid); },
                          (*copy)->info().meta_puddle);
    EXPECT_EQ(chain->meta.num_segments(), 3u);
    members->clear();
    old_bases->clear();
    for (uint32_t i = 0; i < chain->meta.num_members(); ++i) {
      auto info = daemon_->StatPuddle(chain->meta.member(i), puddled::Credentials::Self());
      ASSERT_TRUE(info.ok()) << "member " << i << " is not the copy's";
      EXPECT_EQ(info->pool_uuid, (*copy)->info().pool_uuid);
      members->push_back(chain->meta.member(i));
      old_bases->push_back(chain->meta.member_old_base(i));
    }
    EXPECT_NE(old_bases->front(), 0u) << "the root's member was relocated";
  };
  std::vector<Uuid> members;
  std::vector<uint64_t> old_bases;
  check_copy(&members, &old_bases);

  Restart(base_ / "root2");
  std::vector<Uuid> members_after;
  std::vector<uint64_t> old_bases_after;
  check_copy(&members_after, &old_bases_after);
  EXPECT_EQ(members_after, members);
  EXPECT_EQ(old_bases_after, old_bases);
}

// fwrite only buffers the manifest: its bytes reach the file, or fail to,
// at the flush. Here the manifest is a link to /dev/full, whose every write
// fails with ENOSPC, and the export must say so and remove the manifest, so
// that the partial export is never imported.
TEST_F(RelocationTest, ExportReportsAManifestThatCannotBeWritten) {
  BuildListPool("source", 10);
  const fs::path export_dir = base_ / "export";
  fs::create_directories(export_dir);
  fs::create_symlink("/dev/full", export_dir / "manifest.bin");
  puddles::Status exported = runtime_->ExportPool("source", export_dir.string());
  EXPECT_EQ(exported.code(), StatusCode::kIoError) << exported.ToString();
  EXPECT_FALSE(fs::exists(fs::symlink_status(export_dir / "manifest.bin")))
      << "a failed export left a manifest behind";
}

// Runs tests/pointer_map_peer.cc with `args` and returns its exit status.
int RunPeer(const std::vector<std::string>& args) {
  std::vector<std::string> argv_strings = {POINTER_MAP_PEER};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_strings) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (::posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ) != 0) {
    return -1;
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
}

// A pool carries its own pointer maps: another process that registered none
// of its types imports a copy, which relocates with the pool's maps, and a
// walk of the copy reads the source's values. So does a process that
// registered the head's layout with its members listed the other way round,
// since the order is not part of a map.
TEST_F(RelocationTest, ImporterThatRegisteredNoTypeRelocatesWithThePoolsMaps) {
  constexpr uint64_t kNodes = 40;
  Pool* source = BuildListPool("source", kNodes);
  const uint64_t expected = SumList(*source);
  const fs::path export_dir = base_ / "export";
  ASSERT_TRUE(runtime_->ExportPool("source", export_dir.string()).ok());
  runtime_.reset();
  daemon_.reset();  // The peer's daemon takes this root, source pool and all.
  for (const char* mode : {"unregistered", "permuted"}) {
    EXPECT_EQ(RunPeer({mode, (base_ / "root").string(), export_dir.string(),
                       std::to_string(expected), std::to_string(kNodes)}),
              0)
        << mode;
  }
}

// A process whose type of the same name has another layout cannot open the
// copy: OpenPool fails with FailedPrecondition before any member is mapped,
// so every member keeps its rewrite flag and its bytes.
TEST_F(RelocationTest, AnotherLayoutOfARecordedTypeFailsTheOpenAndRewritesNothing) {
  BuildListPool("source", 40);
  const fs::path export_dir = base_ / "export";
  ASSERT_TRUE(runtime_->ExportPool("source", export_dir.string()).ok());
  runtime_.reset();
  daemon_.reset();
  EXPECT_EQ(RunPeer({"conflicting", (base_ / "root").string(), export_dir.string()}), 0);
}

// Import treats an export as untrusted input (§4.6): each corruption fails
// with DataLoss and leaves no copied file, no record and no address claim —
// the repaired export then imports into the same root with every original
// address.
struct ImportCorruption {
  const char* name;
  // Edits the export; `meta_uuid` names its pool meta's first segment.
  std::function<void(const fs::path&, const Uuid& meta_uuid)> corrupt;
};

class ImportCorruptionTest : public RelocationTest,
                             public ::testing::WithParamInterface<ImportCorruption> {};

void CorruptDataMember(const fs::path& dir, const std::function<void(PuddleHeader*)>& edit) {
  ForEachExportedPuddle(dir, [&](Puddle& puddle) {
    if (puddle.kind() == PuddleKind::kData) {
      edit(puddle.header());
      pmem::FlushFence(puddle.header(), sizeof(PuddleHeader));
    }
  });
}

// Moves a pointer field of the first map recorded in segment `meta_uuid`
// to the end of its object, outside it.
void CorruptFirstPtrMap(const fs::path& dir, const Uuid& meta_uuid) {
  ForEachExportedPuddle(dir, [&](Puddle& puddle) {
    if (puddle.uuid() == meta_uuid) {
      auto* end = reinterpret_cast<PtrMapRecord*>(static_cast<uint8_t*>(puddle.heap()) +
                                                  puddle.heap_size());
      PtrMapRecord& first = end[-1];
      first.field_offsets[0] = first.object_size;
      pmem::FlushFence(&first, sizeof(first));
    }
  });
}

// Makes a data member's free list name a block past its heap's end: the
// lowest free block's link (FreeNode::next, its first field) points at the
// first byte after the heap. The buddy metadata follows the object heap's
// own fields, so it attaches at MetaSize's difference into the metadata.
void LinkFreeListPastTheHeapEnd(const fs::path& dir) {
  ForEachExportedPuddle(dir, [&](Puddle& puddle) {
    if (puddle.kind() != PuddleKind::kData) {
      return;
    }
    const size_t heap_size = puddle.heap_size();
    auto* meta = reinterpret_cast<uint8_t*>(puddle.header()) + puddle.header()->meta_offset +
                 ObjectHeap::MetaSize(heap_size) - BuddyAllocator::MetaSize(heap_size);
    auto buddy = BuddyAllocator::Attach(meta, puddle.heap(), heap_size);
    ASSERT_TRUE(buddy.ok()) << buddy.status().ToString();
    int64_t free_block = 0;
    buddy->ForEachAllocated([&](int64_t offset, size_t size) {
      if (offset == free_block) {
        free_block += static_cast<int64_t>(size);
      }
    });
    ASSERT_LT(static_cast<size_t>(free_block), heap_size) << "the member has no free block";
    const auto past_end = static_cast<int64_t>(heap_size);
    std::memcpy(puddle.heap() + free_block, &past_end, sizeof(past_end));
    pmem::FlushFence(puddle.heap() + free_block, sizeof(past_end));
  });
}

void LinkFirstSegment(const fs::path& dir, const Uuid& meta_uuid, const Uuid& next) {
  ForEachExportedPuddle(dir, [&](Puddle& puddle) {
    if (puddle.uuid() == meta_uuid) {
      reinterpret_cast<PoolMetaHeader*>(puddle.heap())->next_segment = next;
      pmem::FlushFence(puddle.heap(), sizeof(PoolMetaHeader));
    }
  });
}

TEST_P(ImportCorruptionTest, FailsWithDataLossAndLeavesNothing) {
  Pool* source = BuildListPool("source", 30);
  const uint64_t expected = SumList(*source);
  const Uuid meta = source->info().meta_puddle;
  const fs::path export_dir = base_ / "export";
  const fs::path pristine = base_ / "pristine";
  ASSERT_TRUE(runtime_->ExportPool("source", export_dir.string()).ok());
  fs::copy(export_dir, pristine);
  Restart(base_ / "root2");
  const size_t files_before = CountPuddleFiles(base_ / "root2");
  const uint64_t puddles_before = daemon_->puddle_count();

  GetParam().corrupt(export_dir, meta);
  auto failed = runtime_->client().ImportPool(export_dir.string(), "migrated");
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss) << failed.status().ToString();
  EXPECT_EQ(CountPuddleFiles(base_ / "root2"), files_before);
  EXPECT_EQ(daemon_->puddle_count(), puddles_before);
  EXPECT_FALSE(runtime_->OpenPool("migrated").ok());

  auto import = runtime_->client().ImportPool(pristine.string(), "migrated");
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->members_relocated, 0u) << "a failed import's claim outlived it";
  auto pool = runtime_->OpenPool("migrated");
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EXPECT_EQ(SumList(**pool), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ImportCorruptionTest,
    ::testing::Values(
        ImportCorruption{"HeapEndsBeforeTheFileEnd",
                         [](const fs::path& dir, const Uuid&) {
                           CorruptDataMember(dir, [](PuddleHeader* h) { h->heap_size -= 4096; });
                         }},
        ImportCorruption{"HeapPastTheFileEnd",
                         [](const fs::path& dir, const Uuid&) {
                           CorruptDataMember(dir, [](PuddleHeader* h) { h->heap_size *= 2; });
                         }},
        ImportCorruption{"MetadataSmallerThanItsHeapNeeds",
                         [](const fs::path& dir, const Uuid&) {
                           CorruptDataMember(dir, [](PuddleHeader* h) { h->meta_size = 4096; });
                         }},
        ImportCorruption{"FreeListNamesABlockPastTheHeapEnd",
                         [](const fs::path& dir, const Uuid&) { LinkFreeListPastTheHeapEnd(dir); }},
        ImportCorruption{"SegmentLinksToItself",
                         [](const fs::path& dir, const Uuid& meta) {
                           LinkFirstSegment(dir, meta, meta);
                         }},
        ImportCorruption{"ChainLongerThanTheManifest",
                         [](const fs::path& dir, const Uuid& meta) {
                           LinkFirstSegment(dir, meta, Uuid::Generate());
                         }},
        ImportCorruption{"PointerMapFieldOutsideItsObject",
                         [](const fs::path& dir, const Uuid& meta) {
                           CorruptFirstPtrMap(dir, meta);
                         }}),
    [](const ::testing::TestParamInfo<ImportCorruption>& info) { return info.param.name; });

struct UnmappedHead {
  RelocNode* first;
};

// Relocation never passes an object whose type has no pointer map (the
// importer never registered UnmappedHead): the open fails and the member
// keeps its rewrite obligation. Once the map is registered, the reopen
// resumes and the root's pointer lands in the copy.
TEST_F(RelocationTest, OpenFailsUntilAnUnmappedRootTypeIsRegistered) {
  auto created = runtime_->CreatePool("source");
  ASSERT_TRUE(created.ok());
  Pool& source = **created;
  ASSERT_TRUE(source.Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(UnmappedHead * head, tx.Alloc<UnmappedHead>());
    ASSIGN_OR_RETURN(RelocNode * node, tx.Alloc<RelocNode>());
    node->next = nullptr;
    node->value = 42;
    head->first = node;
    return source.SetRoot(head);
  }).ok());
  ASSERT_TRUE(runtime_->ExportPool("source", (base_ / "export").string()).ok());
  auto import = runtime_->client().ImportPool((base_ / "export").string(), "copy");
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  ASSERT_GT(import->members_relocated, 0u);

  auto refused = runtime_->OpenPool("copy");
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status().ToString();
  auto chain = MapChain([&](const Uuid& uuid) { return daemon_->PuddlePath(uuid); },
                        import->pool.meta_puddle);
  ASSERT_EQ(chain->meta.num_members(), 1u);
  {
    auto file = pmem::PmemFile::Open(daemon_->PuddlePath(chain->meta.member(0)));
    ASSERT_TRUE(file.ok());
    auto mapped = file->Map();
    ASSERT_TRUE(mapped.ok());
    auto member = Puddle::Attach(*mapped, file->size());
    ASSERT_TRUE(member.ok());
    EXPECT_TRUE(member->needs_rewrite()) << "the failed open must keep the rewrite flag";
  }

  ASSERT_TRUE(TypeRegistry::Instance().Register<UnmappedHead>(&UnmappedHead::first).ok());
  auto copy = runtime_->OpenPool("copy");
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  UnmappedHead* head = *(*copy)->Root<UnmappedHead>();
  Runtime::Entry* entry = runtime_->FindEntryByAddr(reinterpret_cast<uintptr_t>(head->first));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->info.pool_uuid, (*copy)->info().pool_uuid)
      << "the root's pointer still aims at the source";
  EXPECT_EQ(head->first->value, 42u);
}

}  // namespace
}  // namespace puddles
