// Wire protocol between Libpuddles and Puddled. Requests are one message
// (op + fields); responses are one message (Status + fields), with puddle
// fds riding SCM_RIGHTS.
#ifndef SRC_DAEMON_PROTOCOL_H_
#define SRC_DAEMON_PROTOCOL_H_

#include <cstdint>

#include "src/daemon/daemon.h"
#include "src/daemon/types.h"
#include "src/ipc/wire.h"

namespace puddled {

enum class Op : uint32_t {
  kPing = 1,
  kCreatePuddle = 2,
  kGetPuddle = 3,
  kStatPuddle = 4,
  kFindByAddr = 5,
  kDeletePuddle = 6,
  kCreatePool = 7,
  kOpenPool = 8,
  kRegisterLogSpace = 9,
  // 10 and 11 are retired (pools carry their own pointer maps, DESIGN.md §7):
  // the dispatcher rejects them like any unknown opcode.
  kCompleteRewrite = 12,
  kExportPool = 13,
  kImportPool = 14,
  kStats = 15,
};

// Stable lowercase wire/display name for an opcode ("ping", "stats", ...);
// "unknown" for values outside the enum.
const char* OpName(Op op);

void EncodePuddleInfo(puddles::WireWriter* writer, const PuddleInfo& info);
puddles::Status DecodePuddleInfo(puddles::WireReader* reader, PuddleInfo* info);
void EncodePoolInfo(puddles::WireWriter* writer, const PoolInfo& info);
puddles::Status DecodePoolInfo(puddles::WireReader* reader, PoolInfo* info);
void EncodeImportResult(puddles::WireWriter* writer, const ImportResult& result);
puddles::Status DecodeImportResult(puddles::WireReader* reader, ImportResult* result);

// Snapshots this process's telemetry (src/stats) into a wire-ready report:
// counters and per-opcode totals by name, histogram ticks converted to
// nanoseconds. Zero-valued counters are included (so dashboards see the full
// catalog). Counters count every operation; a histogram's count is the
// number of sampled operations that reached its scope (src/stats/stats.h).
StatsReport BuildStatsReport();
void EncodeStatsReport(puddles::WireWriter* writer, const StatsReport& report);
puddles::Status DecodeStatsReport(puddles::WireReader* reader, StatsReport* report);

// Server side: executes one decoded request against the daemon, producing the
// response payload and (possibly) an fd to attach. Used by the socket server
// and directly by protocol tests.
struct DispatchResult {
  std::vector<uint8_t> response;
  int fd = -1;  // Attached to the response when >= 0; ownership passes out.
};

DispatchResult DispatchRequest(Daemon& daemon, const Credentials& creds,
                               const std::vector<uint8_t>& request);

}  // namespace puddled

#endif  // SRC_DAEMON_PROTOCOL_H_
