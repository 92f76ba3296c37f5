// Metrics, the per-workload report, and run provenance.
//
// Every metric prints as one `workload metric value unit` line and lands in
// the JSON report with its kind: "e2e" (what a user of the system sees),
// "layer" (one layer, traced run only) or "info" (bypass counters and checks).
#ifndef BENCH_E2E_REPORT_H_
#define BENCH_E2E_REPORT_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/pmem/flush.h"

#ifndef E2E_REPO_ROOT
#define E2E_REPO_ROOT "."
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

enum class Kind { kE2e, kLayer, kInfo };

inline const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kE2e:
      return "e2e";
    case Kind::kLayer:
      return "layer";
    case Kind::kInfo:
      return "info";
  }
  return "info";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Kind kind = Kind::kInfo;
};

// "%.17g" keeps every digit of the measured double.
inline std::string Num(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct WorkloadReport {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // Failed or mis-verified operations, window and oracle.
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit, Kind kind) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit, kind});
    std::printf("%s %s %s %s\n", workload.c_str(), name.c_str(), Num(value).c_str(),
                unit.c_str());
    std::fflush(stdout);
  }

  std::string Json() const {
    std::string out = "{\"workload\": \"" + workload + "\", \"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      out += (i == 0 ? "" : ", ");
      out += "\"" + m.name + "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" + m.unit +
             "\", \"kind\": \"" + KindName(m.kind) + "\"}";
    }
    out += "}}";
    return out;
  }
};

struct RunConfig {
  uint64_t seed = 1;
  double duration_s = 20;
  std::string trace_dir;  // Empty: untraced.
  std::string work_dir = "bench_e2e_work";
  bool self_test_corrupt = false;
};

inline constexpr int kKvThreads = 3;    // nproc 4: one core left for daemon and advancer.
inline constexpr int kShipThreads = 1;  // The home node aggregates sequentially.

// First line of `command`'s stdout, or "" on failure.
inline std::string CommandLine(const std::string& command) {
  std::string out;
  if (std::FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      out = buf;
    }
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

// Provenance block of the JSON report. The commit and dirty flag are read at
// run time from the checkout's own git metadata; without it both read
// "unknown".
inline std::string ProvenanceJson(const RunConfig& config) {
  const std::string root = E2E_REPO_ROOT;
  std::string sha = "unknown";
  std::string dirty = "\"unknown\"";
  if (std::filesystem::exists(root + "/.git")) {
    const std::string git = "git --git-dir='" + root + "/.git' --work-tree='" + root + "' ";
    const std::string head = CommandLine(git + "rev-parse HEAD 2>/dev/null");
    if (!head.empty()) {
      sha = head;
      const std::string changes =
          CommandLine(git + "status --porcelain --untracked-files=no 2>/dev/null");
      dirty = changes.empty() ? "false" : "true";
    }
  }
  std::string out = "{\"git_sha\": \"" + sha + "\", \"dirty\": " + dirty;
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"flush_instruction\": \"";
  out += pmem::FlushInstructionName(pmem::ActiveFlushInstruction());
  out += "\", \"build_type\": \"" E2E_BUILD_TYPE "\"";
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"duration_s\": " + Num(config.duration_s);
  out += ", \"kv_threads\": " + std::to_string(kKvThreads);
  out += ", \"ship_threads\": " + std::to_string(kShipThreads);
  out += ", \"traced\": ";
  out += config.trace_dir.empty() ? "false" : "true";
  out += "}";
  return out;
}

}  // namespace e2e

#endif  // BENCH_E2E_REPORT_H_
