// The Fig. 3 scenario: a database application writes an event log on PM while
// a *separate, read-only* log-reader process consumes it — both talking to
// one Puddled over the UNIX domain socket. The reader has no write capability
// (kernel-enforced O_RDONLY fd from the daemon), yet crash recovery of the
// writer's data never depends on either application (§3.3).
#include <cstdio>
#include <filesystem>

#include "src/daemon/server.h"
#include "src/libpuddles/libpuddles.h"

struct EventRecord {
  uint64_t sequence;
  char message[56];
};

struct EventLog {
  uint64_t num_events;
  EventRecord events[1];  // Allocated with capacity.
};

int main() {
  std::filesystem::path workdir = "/tmp/puddles_logreader_demo";
  std::filesystem::remove_all(workdir);
  const std::string socket_path = (workdir / "puddled.sock").string();
  std::filesystem::create_directories(workdir);

  // --- The system service (normally a standalone process: tools/puddled) ---
  auto daemon = puddled::Daemon::Start({.root_dir = (workdir / "root").string()});
  auto server = puddled::Server::Start(daemon->get(), socket_path);

  PUDDLES_TYPE(EventLog);  // Leaf type: no embedded pointers.

  // --- Writer application: connects over the socket, owns the data ---
  {
    auto client = puddled::SocketDaemonClient::Connect(socket_path);
    auto runtime = puddles::Runtime::Create(std::move(*client));
    auto pool = *(*runtime)->CreatePool("events", /*mode=*/0644);

    constexpr uint64_t kCapacity = 64;
    EventLog* log = nullptr;
    (void)pool->Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(void* raw,
                       tx.AllocBytes(sizeof(EventLog) + kCapacity * sizeof(EventRecord),
                                     puddles::kRawBytesTypeId));
      log = static_cast<EventLog*>(raw);
      log->num_events = 0;
      return pool->SetRootBytes(log);
    });

    for (int i = 0; i < 5; ++i) {
      (void)pool->Run([&](puddles::Tx& tx) -> puddles::Status {
        RETURN_IF_ERROR(tx.LogRange(log, sizeof(EventLog)));
        EventRecord& record = log->events[log->num_events];
        RETURN_IF_ERROR(tx.LogRange(&record, sizeof(record)));
        record.sequence = log->num_events;
        std::snprintf(record.message, sizeof(record.message), "database event %d", i);
        log->num_events++;
        return puddles::OkStatus();
      });
    }
    std::printf("writer: appended %llu events, exiting\n",
                static_cast<unsigned long long>(log->num_events));
    // Writer process "exits" here — runtime torn down.
  }

  // --- Log reader: a different application with READ-ONLY access ---
  {
    auto client = puddled::SocketDaemonClient::Connect(socket_path);
    auto runtime = puddles::Runtime::Create(std::move(*client));
    auto pool = (*runtime)->OpenPool("events", /*writable=*/false);
    if (!pool.ok()) {
      std::fprintf(stderr, "reader open failed: %s\n", pool.status().ToString().c_str());
      return 1;
    }
    auto root = (*pool)->RootBytes();
    const auto* log = static_cast<const EventLog*>(*root);
    std::printf("reader (read-only): %llu events\n",
                static_cast<unsigned long long>(log->num_events));
    for (uint64_t i = 0; i < log->num_events; ++i) {
      std::printf("  #%llu: %s\n", static_cast<unsigned long long>(log->events[i].sequence),
                  log->events[i].message);
    }
    // Writes are rejected at the API: a read-only pool starts no transaction.
    puddles::Status write = (*pool)->Run([](puddles::Tx& tx) {
      return tx.AllocBytes(8, puddles::kRawBytesTypeId).status();
    });
    std::printf("reader write attempt refused: %s\n", write.ok() ? "NO (bug!)" : "yes");
  }

  server->get()->Stop();
  return 0;
}
