#include "src/daemon/client.h"

#include <unistd.h>

#include "src/daemon/protocol.h"

namespace puddled {

using puddles::WireReader;
using puddles::WireWriter;

puddles::Result<std::unique_ptr<SocketDaemonClient>> SocketDaemonClient::Connect(
    const std::string& socket_path) {
  ASSIGN_OR_RETURN(puddles::UnixSocket socket, puddles::UnixSocket::Connect(socket_path));
  return std::unique_ptr<SocketDaemonClient>(new SocketDaemonClient(std::move(socket)));
}

puddles::Result<puddles::IpcMessage> SocketDaemonClient::RoundTrip(
    const std::vector<uint8_t>& request) {
  std::lock_guard<std::mutex> lock(mu_);
  RETURN_IF_ERROR(socket_.Send(request));
  return socket_.Recv();
}

namespace {

// Parses the leading Status of a response; on error closes any attached fds.
puddles::Status TakeStatus(puddles::IpcMessage& message, WireReader& reader) {
  puddles::Status status;
  puddles::Status parse = reader.GetStatus(&status);
  if (!parse.ok()) {
    status = parse;
  }
  if (!status.ok()) {
    for (int fd : message.fds) {
      ::close(fd);
    }
    message.fds.clear();
  }
  return status;
}

}  // namespace

puddles::Status SocketDaemonClient::Ping() {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kPing));
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  return TakeStatus(message, reader);
}

puddles::Result<std::pair<PuddleInfo, int>> SocketDaemonClient::CreatePuddle(
    PuddleKind kind, size_t heap_size, const Uuid& pool_uuid, uint32_t mode) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kCreatePuddle));
  writer.PutU32(static_cast<uint32_t>(kind));
  writer.PutU64(heap_size);
  writer.PutUuid(pool_uuid);
  writer.PutU32(mode);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  RETURN_IF_ERROR(TakeStatus(message, reader));
  PuddleInfo info;
  RETURN_IF_ERROR(DecodePuddleInfo(&reader, &info));
  if (message.fds.size() != 1) {
    return puddles::InternalError("expected exactly one puddle fd");
  }
  return std::make_pair(info, message.fds[0]);
}

puddles::Result<std::pair<PuddleInfo, int>> SocketDaemonClient::GetPuddle(const Uuid& uuid,
                                                                          bool write) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kGetPuddle));
  writer.PutUuid(uuid);
  writer.PutU8(write ? 1 : 0);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  RETURN_IF_ERROR(TakeStatus(message, reader));
  PuddleInfo info;
  RETURN_IF_ERROR(DecodePuddleInfo(&reader, &info));
  if (message.fds.size() != 1) {
    return puddles::InternalError("expected exactly one puddle fd");
  }
  return std::make_pair(info, message.fds[0]);
}

puddles::Result<PuddleInfo> SocketDaemonClient::StatPuddle(const Uuid& uuid) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kStatPuddle));
  writer.PutUuid(uuid);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  RETURN_IF_ERROR(TakeStatus(message, reader));
  PuddleInfo info;
  RETURN_IF_ERROR(DecodePuddleInfo(&reader, &info));
  return info;
}

puddles::Result<PuddleInfo> SocketDaemonClient::FindPuddleByAddr(uint64_t addr) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kFindByAddr));
  writer.PutU64(addr);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  RETURN_IF_ERROR(TakeStatus(message, reader));
  PuddleInfo info;
  RETURN_IF_ERROR(DecodePuddleInfo(&reader, &info));
  return info;
}

puddles::Status SocketDaemonClient::DeletePuddle(const Uuid& uuid) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kDeletePuddle));
  writer.PutUuid(uuid);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  return TakeStatus(message, reader);
}

puddles::Result<PoolInfo> SocketDaemonClient::CreatePool(const std::string& name,
                                                         uint32_t mode) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kCreatePool));
  writer.PutString(name);
  writer.PutU32(mode);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  RETURN_IF_ERROR(TakeStatus(message, reader));
  PoolInfo info;
  RETURN_IF_ERROR(DecodePoolInfo(&reader, &info));
  return info;
}

puddles::Result<PoolInfo> SocketDaemonClient::OpenPool(const std::string& name) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kOpenPool));
  writer.PutString(name);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  RETURN_IF_ERROR(TakeStatus(message, reader));
  PoolInfo info;
  RETURN_IF_ERROR(DecodePoolInfo(&reader, &info));
  return info;
}

puddles::Status SocketDaemonClient::RegisterLogSpace(const Uuid& uuid) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kRegisterLogSpace));
  writer.PutUuid(uuid);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  return TakeStatus(message, reader);
}

puddles::Status SocketDaemonClient::CompleteRewrite(const Uuid& uuid) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kCompleteRewrite));
  writer.PutUuid(uuid);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  return TakeStatus(message, reader);
}

puddles::Status SocketDaemonClient::ExportPool(const std::string& name,
                                               const std::string& dest) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kExportPool));
  writer.PutString(name);
  writer.PutString(dest);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  return TakeStatus(message, reader);
}

puddles::Result<ImportResult> SocketDaemonClient::ImportPool(const std::string& src,
                                                             const std::string& new_name,
                                                             uint32_t mode) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kImportPool));
  writer.PutString(src);
  writer.PutString(new_name);
  writer.PutU32(mode);
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  RETURN_IF_ERROR(TakeStatus(message, reader));
  ImportResult result;
  RETURN_IF_ERROR(DecodeImportResult(&reader, &result));
  return result;
}

// Embedded mode shares the process (and therefore the telemetry registry)
// with the daemon, so the snapshot is taken directly — no dispatch, and no
// kDaemonRequest bump, mirroring how EmbeddedDaemonClient::Ping never
// touches the wire.
puddles::Result<StatsReport> EmbeddedDaemonClient::FetchStats() { return BuildStatsReport(); }

puddles::Result<StatsReport> SocketDaemonClient::FetchStats() {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(Op::kStats));
  ASSIGN_OR_RETURN(auto message, RoundTrip(writer.bytes()));
  WireReader reader(message.bytes);
  RETURN_IF_ERROR(TakeStatus(message, reader));
  StatsReport report;
  RETURN_IF_ERROR(DecodeStatsReport(&reader, &report));
  return report;
}

}  // namespace puddled
