// Shared record types between Puddled, its registry tables, and clients.
#ifndef SRC_DAEMON_TYPES_H_
#define SRC_DAEMON_TYPES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/uuid.h"
#include "src/puddles/format.h"

namespace puddled {

using puddles::PuddleKind;
using puddles::Uuid;

// Caller identity for the UNIX-like permission model (§4.6). In socket mode
// this comes from SO_PEERCRED; in embedded mode from the process itself.
struct Credentials {
  uint32_t uid = 0;
  uint32_t gid = 0;

  static Credentials Self();
};

// One registered puddle. Value type of the puddles registry table.
struct PuddleRecord {
  Uuid uuid;
  Uuid pool_uuid;
  uint32_t kind;  // PuddleKind.
  uint32_t mode;  // UNIX permission bits (0600 style).
  uint32_t owner_uid;
  uint32_t owner_gid;
  uint64_t base_addr;  // Assigned address of the file start in puddle space.
  uint64_t file_size;
  uint64_t heap_size;
  uint64_t prev_base;  // Non-zero while a relocation is outstanding.
  uint32_t flags;      // Mirror of the header's PuddleFlags.
  uint32_t reserved;
};

struct PoolRecord {
  Uuid pool_uuid;
  Uuid meta_puddle;
  char name[64];
  uint32_t owner_uid;
  uint32_t owner_gid;
  uint32_t mode;
  uint32_t reserved;
};

struct LogSpaceRecord {
  Uuid uuid;
  uint32_t owner_uid;
  uint32_t owner_gid;
  uint32_t reserved;
};

// What clients get back about a puddle (plus an fd over the socket).
struct PuddleInfo {
  Uuid uuid;
  Uuid pool_uuid;
  uint32_t kind = 0;
  uint64_t base_addr = 0;
  uint64_t file_size = 0;
  uint64_t heap_size = 0;
  uint64_t prev_base = 0;
  uint32_t flags = 0;

  static PuddleInfo FromRecord(const PuddleRecord& record) {
    PuddleInfo info;
    info.uuid = record.uuid;
    info.pool_uuid = record.pool_uuid;
    info.kind = record.kind;
    info.base_addr = record.base_addr;
    info.file_size = record.file_size;
    info.heap_size = record.heap_size;
    info.prev_base = record.prev_base;
    info.flags = record.flags;
    return info;
  }
};

struct PoolInfo {
  Uuid pool_uuid;
  Uuid meta_puddle;
  char name[64] = {};
};

// One latency histogram row of a STATS response; times in nanoseconds,
// percentiles carry the log-bucket quantization (~3% relative error).
struct StatsHistRow {
  std::string name;
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p90_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t max_ns = 0;
};

// The STATS response: the serving process's telemetry snapshot. Name-keyed on
// the wire so counter sets can evolve without breaking old readers — a client
// renders whatever names arrive rather than indexing a shared enum.
struct StatsReport {
  uint64_t live_threads = 0;
  uint64_t retired_threads = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, uint64_t>> daemon_ops;  // Nonzero ops only.
  std::vector<StatsHistRow> hists;
};

}  // namespace puddled

#endif  // SRC_DAEMON_TYPES_H_
