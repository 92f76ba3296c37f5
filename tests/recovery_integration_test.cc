// Application-independent recovery, end to end (paper §3.3, §4.1, §4.6):
// a client crashes mid-transaction; the *daemon* — not the application —
// replays the logs on the next start, before any application maps the data.
// The application that wrote the data never runs again.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>

#include "src/crashsim/state_enumerator.h"
#include "src/crashsim/trace.h"
#include "src/libpuddles/libpuddles.h"

namespace puddles {

struct Account {
  uint64_t balance;
  uint64_t version;
};

namespace {

namespace fs = std::filesystem;

class RecoveryIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A parameterized test's name holds a '/': flatten it, so root_ is one
    // directory and TearDown's remove_all leaves nothing behind.
    std::string name = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    root_ = fs::temp_directory_path() /
            ("recovery_test_" + std::to_string(::getpid()) + "_" + name);
    fs::remove_all(root_);
  }

  void TearDown() override {
    Transaction::SetStageHook(nullptr);
    Transaction::AbandonCurrentForTesting();
    fs::remove_all(root_);
  }

  fs::path root_;
};

const char* g_stage = nullptr;

void CrashAtStage(const char* stage) {
  if (g_stage != nullptr && std::strcmp(stage, g_stage) == 0) {
    throw SimulatedCrash{stage};
  }
}

// Every writable puddle the runtime has registered (here the pool's data
// puddle and this thread's log), mapped now so that all of a transaction's
// stores land in a traced region, as crashsim's pool drivers collect them.
std::vector<crashsim::TracedRegion> WritablePuddles(Runtime& runtime) {
  for (Runtime::Entry* entry : runtime.Entries()) {
    EXPECT_TRUE(runtime.EnsureMapped(entry->info.uuid).ok());
  }
  std::vector<crashsim::TracedRegion> regions;
  for (Runtime::Entry* entry : runtime.Entries()) {
    if (entry->writable) {
      regions.push_back({.base = entry->info.base_addr, .size = entry->info.file_size});
    }
  }
  return regions;
}

// Runs `body` as one transaction with a crash injected at commit stage
// `stage`, tracing every writable puddle. On a crash, power fails: the data
// and log puddles keep only their flushed-and-fenced lines, and the
// transaction state is abandoned. Returns whether the crash fired.
bool RunCrashingAt(Runtime& runtime, Pool& pool, const char* stage,
                   const std::function<puddles::Status(Tx&)>& body) {
  crashsim::TraceRecorder recorder;
  recorder.Start(WritablePuddles(runtime));
  g_stage = stage;
  Transaction::SetStageHook(&CrashAtStage);
  bool crashed = false;
  try {
    EXPECT_TRUE(pool.Run(body).ok());
  } catch (const SimulatedCrash&) {
    crashed = true;
  }
  Transaction::SetStageHook(nullptr);
  g_stage = nullptr;
  const crashsim::Trace trace = recorder.Stop();
  if (crashed) {
    crashsim::ApplyCrashState(trace, {.epoch = trace.epochs.size() - 1});
    Transaction::AbandonCurrentForTesting();
  }
  return crashed;
}

// Drives one crash scenario: writer transaction crashes at `stage`; then the
// daemon restarts and recovers with NO writer application present. Returns
// the recovered (balance, version).
std::pair<uint64_t, uint64_t> RunCrashScenario(const fs::path& root, const char* stage,
                                               puddled::RecoveryReport* report) {
  // ---- Phase 1: the writer application ----
  Account* account = nullptr;
  {
    auto daemon = puddled::Daemon::Start({.root_dir = root.string()});
    EXPECT_TRUE(daemon.ok());
    auto runtime =
        Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon->get()));
    EXPECT_TRUE(runtime.ok());
    auto pool = (*runtime)->CreatePool("bank");
    EXPECT_TRUE(pool.ok());

    EXPECT_TRUE((*pool)->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(account, tx.Alloc<Account>());
      account->balance = 100;
      account->version = 1;
      return (*pool)->SetRoot(account);
    }).ok());
    // Hand the arena slab back to the global heap: the crash below then
    // leaves only the log to recover (the arena GC at open is arena_test's).
    EXPECT_TRUE((*pool)->FlushThreadArena().ok());

    // Power fails at `stage`, then the "machine" goes down: runtime and
    // daemon are destroyed with no cleanup of the transaction.
    RunCrashingAt(**runtime, **pool, stage, [&](Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(tx.LogField(account, &Account::balance));
      account->balance = 250;
      return tx.Set(&account->version, uint64_t{2});
    });
    // runtime + daemon destroyed here ("machine off").
  }

  // ---- Phase 2: reboot. Puddled recovers before anyone maps data. ----
  auto daemon = puddled::Daemon::Start({.root_dir = root.string(), .run_recovery = false});
  EXPECT_TRUE(daemon.ok()) << daemon.status().ToString();
  auto recovery = (*daemon)->RunRecovery();
  EXPECT_TRUE(recovery.ok()) << recovery.status().ToString();
  if (report != nullptr) {
    *report = *recovery;
  }

  // ---- Phase 3: a *different* application reads the data. ----
  auto runtime =
      Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon->get()));
  EXPECT_TRUE(runtime.ok());
  auto pool = (*runtime)->OpenPool("bank");
  EXPECT_TRUE(pool.ok()) << pool.status().ToString();
  Account* recovered = *(*pool)->Root<Account>();
  return {recovered->balance, recovered->version};
}

struct StageCase {
  const char* stage;
  bool expect_committed;  // Crash after the commit point ⇒ new values.
};

class RecoveryStageTest : public RecoveryIntegrationTest,
                          public ::testing::WithParamInterface<StageCase> {};

TEST_P(RecoveryStageTest, DaemonRecoversWithoutTheApplication) {
  puddled::RecoveryReport report;
  auto [balance, version] = RunCrashScenario(root_, GetParam().stage, &report);
  if (GetParam().expect_committed) {
    EXPECT_EQ(balance, 250u) << "crash at " << GetParam().stage;
    EXPECT_EQ(version, 2u);
  } else {
    EXPECT_EQ(balance, 100u) << "crash at " << GetParam().stage;
    EXPECT_EQ(version, 1u);
  }
  EXPECT_GE(report.log_spaces_scanned, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Stages, RecoveryStageTest,
    ::testing::Values(StageCase{"s1_flushed", false},    // Before range (2,4): roll back.
                      StageCase{"range_24", true},       // Redo log armed: roll forward.
                      StageCase{"redo_applied_one", true},
                      StageCase{"s2_applied", true},
                      StageCase{"s3_marked", true},      // Committed, log dropped.
                      StageCase{"reset_done", true}),
    [](const ::testing::TestParamInfo<StageCase>& info) { return info.param.stage; });

TEST_F(RecoveryIntegrationTest, NoCrashMeansNothingToRecover) {
  puddled::RecoveryReport report;
  auto [balance, version] = RunCrashScenario(root_, "never_matches", &report);
  EXPECT_EQ(balance, 250u);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(report.entries_applied, 0u) << "clean shutdown leaves no valid log entries";
  EXPECT_EQ(report.logs_marked_invalid, 0u);
}

TEST_F(RecoveryIntegrationTest, RecoveryConfinedByPermissions) {
  // A log that targets a puddle its owner cannot write must be marked invalid
  // and not replayed (§4.6) — modeled by deleting the data puddle between
  // crash and recovery (the paper's freed-puddle scenario).
  Uuid data_uuid;
  {
    auto daemon = puddled::Daemon::Start({.root_dir = root_.string()});
    ASSERT_TRUE(daemon.ok());
    auto runtime =
        Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon->get()));
    ASSERT_TRUE(runtime.ok());
    auto pool = (*runtime)->CreatePool("bank");
    ASSERT_TRUE(pool.ok());
    Account* account = nullptr;
    ASSERT_TRUE((*pool)->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(account, tx.Alloc<Account>());
      account->balance = 1;
      return puddles::OkStatus();
    }).ok());
    ASSERT_TRUE((*pool)->FlushThreadArena().ok());  // Only the log is left to recover.

    Runtime::Entry* entry =
        (*runtime)->FindEntryByAddr(reinterpret_cast<uintptr_t>(account));
    data_uuid = entry->info.uuid;

    EXPECT_TRUE(RunCrashingAt(**runtime, **pool, "s1_flushed", [&](Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(tx.LogField(account, &Account::balance));
      account->balance = 2;
      return puddles::OkStatus();
    }));
  }

  // The puddle is freed before recovery runs.
  {
    auto daemon = puddled::Daemon::Start({.root_dir = root_.string(), .run_recovery = false});
    ASSERT_TRUE(daemon.ok());
    ASSERT_TRUE((*daemon)->DeletePuddle(data_uuid, puddled::Credentials::Self()).ok());
    auto report = (*daemon)->RunRecovery();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->entries_applied, 0u);
    EXPECT_GE(report->logs_marked_invalid, 1u)
        << "log targeting a freed puddle must be marked invalid, not replayed";
  }
}

TEST_F(RecoveryIntegrationTest, RepeatedCrashesStayConsistent) {
  // Several crashed transactions in sequence, each recovered by a fresh
  // daemon: the account must always be in some committed state.
  const char* stages[] = {"s1_flushed", "range_24", "s2_applied", "s1_flushed"};
  uint64_t last_balance = 100;
  bool first = true;
  for (const char* stage : stages) {
    if (first) {
      auto [balance, version] = RunCrashScenario(root_, stage, nullptr);
      EXPECT_TRUE(balance == 100 || balance == 250) << stage;
      last_balance = balance;
      first = false;
      continue;
    }
    // Subsequent rounds: mutate again with a crash, over the existing pool.
    auto daemon = puddled::Daemon::Start({.root_dir = root_.string()});
    ASSERT_TRUE(daemon.ok());
    auto runtime =
        Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon->get()));
    ASSERT_TRUE(runtime.ok());
    auto pool = (*runtime)->OpenPool("bank");
    ASSERT_TRUE(pool.ok());
    Account* account = *(*pool)->Root<Account>();
    const uint64_t before = account->balance;

    RunCrashingAt(**runtime, **pool, stage, [&](Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(tx.LogField(account, &Account::balance));
      account->balance = before + 1000;
      return puddles::OkStatus();
    });
    runtime->reset();
    daemon->reset();

    auto recovered_daemon = puddled::Daemon::Start({.root_dir = root_.string()});
    ASSERT_TRUE(recovered_daemon.ok());
    auto recovered_runtime = Runtime::Create(
        std::make_shared<puddled::EmbeddedDaemonClient>(recovered_daemon->get()));
    ASSERT_TRUE(recovered_runtime.ok());
    auto recovered_pool = (*recovered_runtime)->OpenPool("bank");
    ASSERT_TRUE(recovered_pool.ok());
    uint64_t after = (*(*recovered_pool)->Root<Account>())->balance;
    EXPECT_TRUE(after == before || after == before + 1000)
        << "stage " << stage << ": " << before << " -> " << after;
    last_balance = after;
  }
  (void)last_balance;
}

}  // namespace
}  // namespace puddles
