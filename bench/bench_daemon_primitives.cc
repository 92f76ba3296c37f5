// §5.1 "Daemon primitives": latency of Puddled operations — no-op round trip
// over the UNIX domain socket, RegLogSpace, GetNewPuddle, GetExistPuddle —
// plus recovery latency for a crashed transaction.
#include <unistd.h>

#include "bench/bench_env.h"
#include "bench/bench_util.h"
#include "src/daemon/server.h"

namespace {

using bench::Timer;

double UsPerOp(uint64_t iterations, double seconds) {
  return seconds * 1e6 / static_cast<double>(iterations);
}

}  // namespace

int main() {
  bench::PrintHeader("Daemon primitives (paper §5.1)",
                     "no-op RTT 46.9us; RegLogSpace 134us; GetNewPuddle 1705us; "
                     "GetExistPuddle 125.3us; recovery 110.1us");
  auto dir = bench::ScratchDir("daemonprim");
  const uint64_t iters = bench::Scaled(200);

  auto daemon = puddled::Daemon::Start({.root_dir = (dir / "root").string()});
  std::string socket_path = (dir / "puddled.sock").string();
  auto server = puddled::Server::Start(daemon->get(), socket_path);
  auto client = puddled::SocketDaemonClient::Connect(socket_path);

  // No-op round trip over the socket.
  Timer timer;
  for (uint64_t i = 0; i < iters; ++i) {
    (void)(*client)->Ping();
  }
  std::printf("%-24s %10.1f us   (paper: 46.9 us)\n", "no-op round trip",
              UsPerOp(iters, timer.Seconds()));

  // GetNewPuddle (creates the backing file — the expensive call).
  std::vector<puddles::Uuid> created;
  timer.Reset();
  for (uint64_t i = 0; i < iters; ++i) {
    auto result = (*client)->CreatePuddle(puddles::PuddleKind::kData, 1 << 20,
                                          puddles::Uuid::Nil(), 0600);
    if (result.ok()) {
      created.push_back(result->first.uuid);
      ::close(result->second);
    }
  }
  std::printf("%-24s %10.1f us   (paper: 1705.0 us)\n", "GetNewPuddle",
              UsPerOp(iters, timer.Seconds()));

  // GetExistPuddle.
  timer.Reset();
  for (uint64_t i = 0; i < iters; ++i) {
    auto result = (*client)->GetPuddle(created[i % created.size()], true);
    if (result.ok()) {
      ::close(result->second);
    }
  }
  std::printf("%-24s %10.1f us   (paper: 125.3 us)\n", "GetExistPuddle",
              UsPerOp(iters, timer.Seconds()));

  // RegLogSpace.
  timer.Reset();
  const uint64_t ls_iters = std::max<uint64_t>(iters / 10, 10);
  for (uint64_t i = 0; i < ls_iters; ++i) {
    auto ls = (*client)->CreatePuddle(puddles::PuddleKind::kLogSpace, 1 << 20,
                                      puddles::Uuid::Nil(), 0600);
    if (ls.ok()) {
      // Format it so registration passes validation.
      auto file = pmem::PmemFile::FromFd(ls->second);
      auto base = file->Map();
      auto puddle = puddles::Puddle::Attach(*base, file->size());
      (void)puddles::LogSpaceView::Format(*puddle);
      (void)(*client)->RegisterLogSpace(ls->first.uuid);
    }
  }
  std::printf("%-24s %10.1f us   (incl. puddle alloc; paper: 134.0 us)\n", "RegLogSpace",
              UsPerOp(ls_iters, timer.Seconds()));

  server->reset();

  // Recovery latency: crash one transaction, time the daemon-side replay.
  {
    bench::PuddlesEnv env(dir / "recovery");
    uint64_t* cell = nullptr;
    (void)env.pool->Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(cell, tx.Alloc<uint64_t>());
      *cell = 1;
      return puddles::OkStatus();
    });
    puddles::Transaction::SetStageHook(+[](const char* stage) {
      if (std::string_view(stage) == "s1_flushed") {
        throw puddles::SimulatedCrash{stage};
      }
    });
    try {
      (void)env.pool->Run([&](puddles::Tx& tx) -> puddles::Status {
        RETURN_IF_ERROR(tx.Log(cell));
        *cell = 2;
        return puddles::OkStatus();
      });
    } catch (const puddles::SimulatedCrash&) {
    }
    puddles::Transaction::SetStageHook(nullptr);
    puddles::Transaction::AbandonCurrentForTesting();
    env.runtime.reset();
    env.daemon.reset();

    auto recovery_daemon =
        puddled::Daemon::Start({.root_dir = ((dir / "recovery") / "puddled").string(),
                                .run_recovery = false});
    timer.Reset();
    auto report = (*recovery_daemon)->RunRecovery();
    double us = timer.Seconds() * 1e6;
    std::printf("%-24s %10.1f us   (paper: 110.1 us; %llu entries applied)\n",
                "crash recovery", us,
                static_cast<unsigned long long>(report.ok() ? report->entries_applied : 0));
  }

  std::filesystem::remove_all(dir);
  return 0;
}
