#include "src/daemon/protocol.h"

#include <cstdio>
#include <cstring>

#include "src/stats/stats.h"

namespace puddled {

using puddles::WireReader;
using puddles::WireWriter;

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing:
      return "ping";
    case Op::kCreatePuddle:
      return "create_puddle";
    case Op::kGetPuddle:
      return "get_puddle";
    case Op::kStatPuddle:
      return "stat_puddle";
    case Op::kFindByAddr:
      return "find_by_addr";
    case Op::kDeletePuddle:
      return "delete_puddle";
    case Op::kCreatePool:
      return "create_pool";
    case Op::kOpenPool:
      return "open_pool";
    case Op::kRegisterLogSpace:
      return "register_log_space";
    case Op::kCompleteRewrite:
      return "complete_rewrite";
    case Op::kExportPool:
      return "export_pool";
    case Op::kImportPool:
      return "import_pool";
    case Op::kStats:
      return "stats";
  }
  return "unknown";
}

void EncodePuddleInfo(WireWriter* writer, const PuddleInfo& info) {
  writer->PutUuid(info.uuid);
  writer->PutUuid(info.pool_uuid);
  writer->PutU32(info.kind);
  writer->PutU64(info.base_addr);
  writer->PutU64(info.file_size);
  writer->PutU64(info.heap_size);
  writer->PutU64(info.prev_base);
  writer->PutU32(info.flags);
}

puddles::Status DecodePuddleInfo(WireReader* reader, PuddleInfo* info) {
  RETURN_IF_ERROR(reader->GetUuid(&info->uuid));
  RETURN_IF_ERROR(reader->GetUuid(&info->pool_uuid));
  RETURN_IF_ERROR(reader->GetU32(&info->kind));
  RETURN_IF_ERROR(reader->GetU64(&info->base_addr));
  RETURN_IF_ERROR(reader->GetU64(&info->file_size));
  RETURN_IF_ERROR(reader->GetU64(&info->heap_size));
  RETURN_IF_ERROR(reader->GetU64(&info->prev_base));
  return reader->GetU32(&info->flags);
}

void EncodePoolInfo(WireWriter* writer, const PoolInfo& info) {
  writer->PutUuid(info.pool_uuid);
  writer->PutUuid(info.meta_puddle);
  writer->PutString(info.name);
}

puddles::Status DecodePoolInfo(WireReader* reader, PoolInfo* info) {
  RETURN_IF_ERROR(reader->GetUuid(&info->pool_uuid));
  RETURN_IF_ERROR(reader->GetUuid(&info->meta_puddle));
  std::string name;
  RETURN_IF_ERROR(reader->GetString(&name));
  std::memset(info->name, 0, sizeof(info->name));
  std::strncpy(info->name, name.c_str(), sizeof(info->name) - 1);
  return puddles::OkStatus();
}

void EncodeImportResult(WireWriter* writer, const ImportResult& result) {
  EncodePoolInfo(writer, result.pool);
  writer->PutU32(result.members_imported);
  writer->PutU32(result.members_relocated);
}

puddles::Status DecodeImportResult(WireReader* reader, ImportResult* result) {
  RETURN_IF_ERROR(DecodePoolInfo(reader, &result->pool));
  RETURN_IF_ERROR(reader->GetU32(&result->members_imported));
  return reader->GetU32(&result->members_relocated);
}

StatsReport BuildStatsReport() {
  namespace stats = puddles::stats;
  const stats::Snapshot snap = stats::Aggregate();
  StatsReport report;
  report.live_threads = snap.live_threads;
  report.retired_threads = snap.retired_threads;
  report.counters.reserve(stats::kNumCounters);
  for (size_t i = 0; i < stats::kNumCounters; ++i) {
    report.counters.emplace_back(stats::CounterName(static_cast<stats::Counter>(i)),
                                 snap.counters[i]);
  }
  for (size_t i = 0; i < stats::kMaxDaemonOps; ++i) {
    if (snap.daemon_ops[i] == 0) {
      continue;
    }
    const char* name = OpName(static_cast<Op>(i));
    if (std::strcmp(name, "unknown") == 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "op_%zu", i);
      report.daemon_ops.emplace_back(buf, snap.daemon_ops[i]);
    } else {
      report.daemon_ops.emplace_back(name, snap.daemon_ops[i]);
    }
  }
  report.hists.reserve(stats::kNumHists);
  for (size_t i = 0; i < stats::kNumHists; ++i) {
    const stats::Histogram& hist = snap.hists[i];
    StatsHistRow row;
    row.name = stats::HistName(static_cast<stats::Hist>(i));
    row.count = hist.count();
    row.sum_ns = stats::TicksToNanos(hist.sum());
    row.p50_ns = stats::TicksToNanos(hist.p50());
    row.p90_ns = stats::TicksToNanos(hist.p90());
    row.p99_ns = stats::TicksToNanos(hist.p99());
    row.p999_ns = stats::TicksToNanos(hist.p999());
    row.max_ns = stats::TicksToNanos(hist.max());
    report.hists.push_back(std::move(row));
  }
  return report;
}

void EncodeStatsReport(WireWriter* writer, const StatsReport& report) {
  writer->PutU64(report.live_threads);
  writer->PutU64(report.retired_threads);
  writer->PutU32(static_cast<uint32_t>(report.counters.size()));
  for (const auto& [name, value] : report.counters) {
    writer->PutString(name);
    writer->PutU64(value);
  }
  writer->PutU32(static_cast<uint32_t>(report.daemon_ops.size()));
  for (const auto& [name, value] : report.daemon_ops) {
    writer->PutString(name);
    writer->PutU64(value);
  }
  writer->PutU32(static_cast<uint32_t>(report.hists.size()));
  for (const StatsHistRow& row : report.hists) {
    writer->PutString(row.name);
    writer->PutU64(row.count);
    writer->PutU64(row.sum_ns);
    writer->PutU64(row.p50_ns);
    writer->PutU64(row.p90_ns);
    writer->PutU64(row.p99_ns);
    writer->PutU64(row.p999_ns);
    writer->PutU64(row.max_ns);
  }
}

puddles::Status DecodeStatsReport(WireReader* reader, StatsReport* report) {
  report->counters.clear();
  report->daemon_ops.clear();
  report->hists.clear();
  RETURN_IF_ERROR(reader->GetU64(&report->live_threads));
  RETURN_IF_ERROR(reader->GetU64(&report->retired_threads));
  uint32_t n = 0;
  RETURN_IF_ERROR(reader->GetU32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t value = 0;
    RETURN_IF_ERROR(reader->GetString(&name));
    RETURN_IF_ERROR(reader->GetU64(&value));
    report->counters.emplace_back(std::move(name), value);
  }
  RETURN_IF_ERROR(reader->GetU32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t value = 0;
    RETURN_IF_ERROR(reader->GetString(&name));
    RETURN_IF_ERROR(reader->GetU64(&value));
    report->daemon_ops.emplace_back(std::move(name), value);
  }
  RETURN_IF_ERROR(reader->GetU32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    StatsHistRow row;
    RETURN_IF_ERROR(reader->GetString(&row.name));
    RETURN_IF_ERROR(reader->GetU64(&row.count));
    RETURN_IF_ERROR(reader->GetU64(&row.sum_ns));
    RETURN_IF_ERROR(reader->GetU64(&row.p50_ns));
    RETURN_IF_ERROR(reader->GetU64(&row.p90_ns));
    RETURN_IF_ERROR(reader->GetU64(&row.p99_ns));
    RETURN_IF_ERROR(reader->GetU64(&row.p999_ns));
    RETURN_IF_ERROR(reader->GetU64(&row.max_ns));
    report->hists.push_back(std::move(row));
  }
  return puddles::OkStatus();
}

namespace {

// Builds an error-only response.
std::vector<uint8_t> ErrorResponse(const puddles::Status& status) {
  WireWriter writer;
  writer.PutStatus(status);
  return writer.Take();
}

}  // namespace

DispatchResult DispatchRequest(Daemon& daemon, const Credentials& creds,
                               const std::vector<uint8_t>& request) {
  DispatchResult out;
  WireReader reader(request);
  uint32_t op_raw = 0;
  if (puddles::Status s = reader.GetU32(&op_raw); !s.ok()) {
    out.response = ErrorResponse(s);
    return out;
  }
  puddles::stats::SampledOp sampled;
  PUDDLES_SCOPED_TIMER(kDaemonServiceTicks);
  PUDDLES_COUNT(kDaemonRequest);
  PUDDLES_COUNT_DAEMON_OP(op_raw);
  WireWriter writer;

  switch (static_cast<Op>(op_raw)) {
    case Op::kPing: {
      writer.PutStatus(puddles::OkStatus());
      break;
    }
    case Op::kCreatePuddle: {
      uint32_t kind = 0;
      uint64_t heap_size = 0;
      Uuid pool_uuid;
      uint32_t mode = 0;
      puddles::Status s = reader.GetU32(&kind);
      if (s.ok()) s = reader.GetU64(&heap_size);
      if (s.ok()) s = reader.GetUuid(&pool_uuid);
      if (s.ok()) s = reader.GetU32(&mode);
      if (!s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      auto result = daemon.CreatePuddle(static_cast<PuddleKind>(kind), heap_size, creds,
                                        pool_uuid, mode);
      writer.PutStatus(result.status());
      if (result.ok()) {
        EncodePuddleInfo(&writer, result->first);
        out.fd = result->second;
      }
      break;
    }
    case Op::kGetPuddle: {
      Uuid uuid;
      uint8_t write = 0;
      puddles::Status s = reader.GetUuid(&uuid);
      if (s.ok()) s = reader.GetU8(&write);
      if (!s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      auto result = daemon.GetPuddle(uuid, creds, write != 0);
      writer.PutStatus(result.status());
      if (result.ok()) {
        EncodePuddleInfo(&writer, result->first);
        out.fd = result->second;
      }
      break;
    }
    case Op::kStatPuddle: {
      Uuid uuid;
      if (puddles::Status s = reader.GetUuid(&uuid); !s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      auto result = daemon.StatPuddle(uuid, creds);
      writer.PutStatus(result.status());
      if (result.ok()) {
        EncodePuddleInfo(&writer, *result);
      }
      break;
    }
    case Op::kFindByAddr: {
      uint64_t addr = 0;
      if (puddles::Status s = reader.GetU64(&addr); !s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      auto result = daemon.FindPuddleByAddr(addr, creds);
      writer.PutStatus(result.status());
      if (result.ok()) {
        EncodePuddleInfo(&writer, *result);
      }
      break;
    }
    case Op::kDeletePuddle: {
      Uuid uuid;
      if (puddles::Status s = reader.GetUuid(&uuid); !s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      writer.PutStatus(daemon.DeletePuddle(uuid, creds));
      break;
    }
    case Op::kCreatePool: {
      std::string name;
      uint32_t mode = 0;
      puddles::Status s = reader.GetString(&name);
      if (s.ok()) s = reader.GetU32(&mode);
      if (!s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      auto result = daemon.CreatePool(name, creds, mode);
      writer.PutStatus(result.status());
      if (result.ok()) {
        EncodePoolInfo(&writer, *result);
      }
      break;
    }
    case Op::kOpenPool: {
      std::string name;
      if (puddles::Status s = reader.GetString(&name); !s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      auto result = daemon.OpenPool(name, creds);
      writer.PutStatus(result.status());
      if (result.ok()) {
        EncodePoolInfo(&writer, *result);
      }
      break;
    }
    case Op::kRegisterLogSpace: {
      Uuid uuid;
      if (puddles::Status s = reader.GetUuid(&uuid); !s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      writer.PutStatus(daemon.RegisterLogSpace(uuid, creds));
      break;
    }
    case Op::kCompleteRewrite: {
      Uuid uuid;
      if (puddles::Status s = reader.GetUuid(&uuid); !s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      writer.PutStatus(daemon.CompleteRewrite(uuid, creds));
      break;
    }
    case Op::kExportPool: {
      std::string name, dest;
      puddles::Status s = reader.GetString(&name);
      if (s.ok()) s = reader.GetString(&dest);
      if (!s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      writer.PutStatus(daemon.ExportPool(name, dest, creds));
      break;
    }
    case Op::kImportPool: {
      std::string src, name;
      uint32_t mode = 0;
      puddles::Status s = reader.GetString(&src);
      if (s.ok()) s = reader.GetString(&name);
      if (s.ok()) s = reader.GetU32(&mode);
      if (!s.ok()) {
        out.response = ErrorResponse(s);
        return out;
      }
      auto result = daemon.ImportPool(src, name, creds, mode);
      writer.PutStatus(result.status());
      if (result.ok()) {
        EncodeImportResult(&writer, *result);
      }
      break;
    }
    case Op::kStats: {
      // The bumps above run before the snapshot, so a STATS round trip always
      // observes itself — a live daemon never reports all-zero counters.
      writer.PutStatus(puddles::OkStatus());
      EncodeStatsReport(&writer, BuildStatsReport());
      break;
    }
    default:
      writer.PutStatus(puddles::InvalidArgumentError("unknown op"));
      break;
  }
  out.response = writer.Take();
  return out;
}

}  // namespace puddled
