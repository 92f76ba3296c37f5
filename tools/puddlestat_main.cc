// puddlestat: query a live Puddled for its telemetry snapshot (STATS opcode)
// and render it — counters, per-opcode request totals, and latency
// percentiles. The textual output is for humans; --json emits one JSON object
// for dashboards/scripts; --check is the CI smoke gate: exit 0 only if the
// daemon answered and its counters show the daemon actually served requests.
//
// Usage: puddlestat [--socket <path>] [--json] [--check]
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/daemon/client.h"
#include "src/daemon/protocol.h"

namespace {

void PrintHuman(const puddled::StatsReport& report) {
  std::printf("threads: %" PRIu64 " live, %" PRIu64 " retired\n\n",
              report.live_threads, report.retired_threads);
  std::printf("%-24s %12s\n", "counter", "value");
  for (const auto& [name, value] : report.counters) {
    std::printf("%-24s %12" PRIu64 "\n", name.c_str(), value);
  }
  if (!report.daemon_ops.empty()) {
    std::printf("\n%-24s %12s\n", "daemon op", "requests");
    for (const auto& [name, value] : report.daemon_ops) {
      std::printf("%-24s %12" PRIu64 "\n", name.c_str(), value);
    }
  }
  std::printf("\n%-20s %10s %10s %10s %10s %10s %10s\n", "histogram (ns)", "count",
              "p50", "p90", "p99", "p999", "max");
  for (const puddled::StatsHistRow& row : report.hists) {
    std::printf("%-20s %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64
                " %10" PRIu64 " %10" PRIu64 "\n",
                row.name.c_str(), row.count, row.p50_ns, row.p90_ns, row.p99_ns,
                row.p999_ns, row.max_ns);
  }
}

void PrintJson(const puddled::StatsReport& report) {
  std::printf("{\n  \"live_threads\": %" PRIu64 ",\n  \"retired_threads\": %" PRIu64
              ",\n  \"counters\": {",
              report.live_threads, report.retired_threads);
  for (size_t i = 0; i < report.counters.size(); ++i) {
    std::printf("%s\n    \"%s\": %" PRIu64, i == 0 ? "" : ",",
                report.counters[i].first.c_str(), report.counters[i].second);
  }
  std::printf("\n  },\n  \"daemon_ops\": {");
  for (size_t i = 0; i < report.daemon_ops.size(); ++i) {
    std::printf("%s\n    \"%s\": %" PRIu64, i == 0 ? "" : ",",
                report.daemon_ops[i].first.c_str(), report.daemon_ops[i].second);
  }
  std::printf("\n  },\n  \"histograms\": {");
  for (size_t i = 0; i < report.hists.size(); ++i) {
    const puddled::StatsHistRow& row = report.hists[i];
    std::printf("%s\n    \"%s\": {\"count\": %" PRIu64 ", \"sum_ns\": %" PRIu64
                ", \"p50_ns\": %" PRIu64 ", \"p90_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
                ", \"p999_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64 "}",
                i == 0 ? "" : ",", row.name.c_str(), row.count, row.sum_ns, row.p50_ns,
                row.p90_ns, row.p99_ns, row.p999_ns, row.max_ns);
  }
  std::printf("\n  }\n}\n");
}

// CI gate: the daemon must have served at least one request (the Ping this
// tool just sent guarantees that) and every histogram must be internally
// consistent (ordered percentiles under max).
int Check(const puddled::StatsReport& report) {
  uint64_t daemon_requests = 0;
  for (const auto& [name, value] : report.counters) {
    if (name == "daemon_request") {
      daemon_requests = value;
    }
  }
  if (daemon_requests == 0) {
    std::fprintf(stderr, "puddlestat --check: daemon_request counter is zero\n");
    return 1;
  }
  for (const puddled::StatsHistRow& row : report.hists) {
    const bool ordered = row.p50_ns <= row.p90_ns && row.p90_ns <= row.p99_ns &&
                         row.p99_ns <= row.p999_ns && row.p999_ns <= row.max_ns;
    if (!ordered || (row.count > 0 && row.max_ns == 0)) {
      std::fprintf(stderr, "puddlestat --check: histogram %s is inconsistent\n",
                   row.name.c_str());
      return 1;
    }
  }
  std::printf("puddlestat --check: ok (%" PRIu64 " requests served)\n", daemon_requests);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/puddled.sock";
  bool json = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--socket <path>] [--json] [--check]\n", argv[0]);
      return 2;
    }
  }

  auto client = puddled::SocketDaemonClient::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "puddlestat: cannot connect to %s: %s\n", socket_path.c_str(),
                 client.status().message().c_str());
    return 1;
  }
  // The Ping makes "fresh daemon" and "telemetry-off daemon" distinguishable:
  // after it, a stats-enabled daemon always reports daemon_request >= 2.
  if (puddles::Status s = (*client)->Ping(); !s.ok()) {
    std::fprintf(stderr, "puddlestat: ping failed: %s\n", s.message().c_str());
    return 1;
  }
  auto report = (*client)->FetchStats();
  if (!report.ok()) {
    std::fprintf(stderr, "puddlestat: STATS failed: %s\n",
                 report.status().message().c_str());
    return 1;
  }
  if (check) {
    return Check(*report);
  }
  if (json) {
    PrintJson(*report);
  } else {
    PrintHuman(*report);
  }
  return 0;
}
