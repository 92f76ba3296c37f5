// Client-side access to Puddled. Two transports, one interface:
//   * EmbeddedDaemonClient — direct calls into an in-process Daemon (tests,
//     benches, single-process deployments).
//   * SocketDaemonClient — the production path over the UNIX domain socket,
//     with fd capabilities received via SCM_RIGHTS.
#ifndef SRC_DAEMON_CLIENT_H_
#define SRC_DAEMON_CLIENT_H_

#include <memory>
#include <mutex>
#include <string>

#include "src/daemon/daemon.h"
#include "src/daemon/types.h"
#include "src/ipc/unix_socket.h"

namespace puddled {

class DaemonClient {
 public:
  virtual ~DaemonClient() = default;

  virtual puddles::Status Ping() = 0;
  virtual puddles::Result<std::pair<PuddleInfo, int>> CreatePuddle(
      PuddleKind kind, size_t heap_size, const Uuid& pool_uuid = Uuid::Nil(),
      uint32_t mode = 0600) = 0;
  virtual puddles::Result<std::pair<PuddleInfo, int>> GetPuddle(const Uuid& uuid,
                                                                bool write) = 0;
  virtual puddles::Result<PuddleInfo> StatPuddle(const Uuid& uuid) = 0;
  virtual puddles::Result<PuddleInfo> FindPuddleByAddr(uint64_t addr) = 0;
  virtual puddles::Status DeletePuddle(const Uuid& uuid) = 0;
  virtual puddles::Result<PoolInfo> CreatePool(const std::string& name,
                                               uint32_t mode = 0600) = 0;
  virtual puddles::Result<PoolInfo> OpenPool(const std::string& name) = 0;
  virtual puddles::Status RegisterLogSpace(const Uuid& uuid) = 0;
  virtual puddles::Status CompleteRewrite(const Uuid& uuid) = 0;
  virtual puddles::Status ExportPool(const std::string& name, const std::string& dest) = 0;
  virtual puddles::Result<ImportResult> ImportPool(const std::string& src,
                                                   const std::string& new_name,
                                                   uint32_t mode = 0600) = 0;
  // Telemetry snapshot of the serving process: counters, per-opcode request
  // totals, and latency percentiles (the STATS opcode over the socket; the
  // in-process snapshot when embedded).
  virtual puddles::Result<StatsReport> FetchStats() = 0;
};

class EmbeddedDaemonClient : public DaemonClient {
 public:
  // Calls run with the given credentials (defaults to the process identity).
  explicit EmbeddedDaemonClient(Daemon* daemon, Credentials creds = Credentials::Self())
      : daemon_(daemon), creds_(creds) {}

  puddles::Status Ping() override { return puddles::OkStatus(); }
  puddles::Result<std::pair<PuddleInfo, int>> CreatePuddle(PuddleKind kind, size_t heap_size,
                                                           const Uuid& pool_uuid,
                                                           uint32_t mode) override {
    return daemon_->CreatePuddle(kind, heap_size, creds_, pool_uuid, mode);
  }
  puddles::Result<std::pair<PuddleInfo, int>> GetPuddle(const Uuid& uuid, bool write) override {
    return daemon_->GetPuddle(uuid, creds_, write);
  }
  puddles::Result<PuddleInfo> StatPuddle(const Uuid& uuid) override {
    return daemon_->StatPuddle(uuid, creds_);
  }
  puddles::Result<PuddleInfo> FindPuddleByAddr(uint64_t addr) override {
    return daemon_->FindPuddleByAddr(addr, creds_);
  }
  puddles::Status DeletePuddle(const Uuid& uuid) override {
    return daemon_->DeletePuddle(uuid, creds_);
  }
  puddles::Result<PoolInfo> CreatePool(const std::string& name, uint32_t mode) override {
    return daemon_->CreatePool(name, creds_, mode);
  }
  puddles::Result<PoolInfo> OpenPool(const std::string& name) override {
    return daemon_->OpenPool(name, creds_);
  }
  puddles::Status RegisterLogSpace(const Uuid& uuid) override {
    return daemon_->RegisterLogSpace(uuid, creds_);
  }
  puddles::Status CompleteRewrite(const Uuid& uuid) override {
    return daemon_->CompleteRewrite(uuid, creds_);
  }
  puddles::Status ExportPool(const std::string& name, const std::string& dest) override {
    return daemon_->ExportPool(name, dest, creds_);
  }
  puddles::Result<ImportResult> ImportPool(const std::string& src, const std::string& new_name,
                                           uint32_t mode) override {
    return daemon_->ImportPool(src, new_name, creds_, mode);
  }
  puddles::Result<StatsReport> FetchStats() override;  // client.cc (needs protocol.h).

 private:
  Daemon* daemon_;
  Credentials creds_;
};

class SocketDaemonClient : public DaemonClient {
 public:
  static puddles::Result<std::unique_ptr<SocketDaemonClient>> Connect(
      const std::string& socket_path);

  puddles::Status Ping() override;
  puddles::Result<std::pair<PuddleInfo, int>> CreatePuddle(PuddleKind kind, size_t heap_size,
                                                           const Uuid& pool_uuid,
                                                           uint32_t mode) override;
  puddles::Result<std::pair<PuddleInfo, int>> GetPuddle(const Uuid& uuid, bool write) override;
  puddles::Result<PuddleInfo> StatPuddle(const Uuid& uuid) override;
  puddles::Result<PuddleInfo> FindPuddleByAddr(uint64_t addr) override;
  puddles::Status DeletePuddle(const Uuid& uuid) override;
  puddles::Result<PoolInfo> CreatePool(const std::string& name, uint32_t mode) override;
  puddles::Result<PoolInfo> OpenPool(const std::string& name) override;
  puddles::Status RegisterLogSpace(const Uuid& uuid) override;
  puddles::Status CompleteRewrite(const Uuid& uuid) override;
  puddles::Status ExportPool(const std::string& name, const std::string& dest) override;
  puddles::Result<ImportResult> ImportPool(const std::string& src, const std::string& new_name,
                                           uint32_t mode) override;
  puddles::Result<StatsReport> FetchStats() override;

 private:
  explicit SocketDaemonClient(puddles::UnixSocket socket) : socket_(std::move(socket)) {}

  // One round trip; returns the response payload after the leading Status.
  puddles::Result<puddles::IpcMessage> RoundTrip(const std::vector<uint8_t>& request);

  std::mutex mu_;  // Serializes request/response pairs on the shared socket.
  puddles::UnixSocket socket_;
};

}  // namespace puddled

#endif  // SRC_DAEMON_CLIENT_H_
