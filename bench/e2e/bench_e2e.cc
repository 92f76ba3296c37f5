// bench_e2e: the end-to-end benchmark of the deployed Puddles stack
// (bench/e2e/README.md). Workloads: kv-a, kv-a-epoch, kv-churn, ship-list.
//
//   bench_e2e --workload=<name>|all --seed=N [--duration-s=20] [--trace=DIR]
//             [--out=bench_e2e.json] [--workdir=bench_e2e_work]
//             [--self-test-corrupt]
//
// Prints every metric as `workload metric value unit`, writes a JSON report
// to --out, checks every output against a DRAM mirror after a restart with
// recovery, and exits non-zero on any mismatch. `all` runs each workload in
// its own process. --trace=DIR adds a traced window after the untraced one
// and writes DIR/<workload>.trace.json (Chrome trace events) and
// DIR/<workload>.layers.json (per-layer self times). --self-test-corrupt
// flips one mirror entry before the check, which must then fail.
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/e2e/kv.h"
#include "bench/e2e/report.h"
#include "bench/e2e/ship.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kWorkloads = {"kv-a", "kv-a-epoch", "kv-churn", "ship-list"};

e2e::WorkloadReport RunWorkload(const std::string& name, const e2e::RunConfig& config) {
  if (name == "ship-list") {
    return std::make_unique<e2e::ShipBench>(config)->Run();
  }
  const e2e::KvSpec spec{
      .name = name, .epoch = name == "kv-a-epoch", .churn = name == "kv-churn"};
  return std::make_unique<e2e::KvBench>(spec, config)->Run();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out.flush());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string Report(const e2e::RunConfig& config, const std::vector<std::string>& parts) {
  std::string out = "{\"provenance\": " + e2e::ProvenanceJson(config) + ",\n \"workloads\": [";
  for (size_t i = 0; i < parts.size(); ++i) {
    out += (i == 0 ? "\n  " : ",\n  ") + parts[i];
  }
  return out + "\n]}\n";
}

// Runs this binary once per workload, one after another, and collects each
// child's part of the report. Returns whether every child passed.
bool RunAll(int argc, char** argv, const std::string& out_path,
            std::vector<std::string>* parts) {
  bool all_ok = true;
  for (const std::string& workload : kWorkloads) {
    const std::string part = out_path + "." + workload + ".part";
    std::vector<std::string> args = {"/proc/self/exe", "--workload=" + workload,
                                     "--part=" + part};
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--workload=", 0) != 0 && arg.rfind("--out=", 0) != 0) {
        args.push_back(arg);
      }
    }
    std::vector<char*> child_argv;
    for (std::string& arg : args) {
      child_argv.push_back(arg.data());
    }
    child_argv.push_back(nullptr);
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, child_argv.data(), environ) !=
        0) {
      std::fprintf(stderr, "bench_e2e: cannot start the %s process\n", workload.c_str());
      return false;
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!ok) {
      std::fprintf(stderr, "bench_e2e: workload %s failed\n", workload.c_str());
      all_ok = false;
    }
    if (fs::exists(part)) {
      parts->push_back(ReadFile(part));
      fs::remove(part);
    }
  }
  return all_ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload=<kv-a|kv-a-epoch|kv-churn|ship-list|all> --seed=N\n"
               "                 [--duration-s=20] [--trace=DIR] [--out=bench_e2e.json]\n"
               "                 [--workdir=bench_e2e_work] [--self-test-corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig config;
  std::string workload;
  std::string out_path = "bench_e2e.json";
  std::string part_path;  // Internal: a child of `all` writes its part here.
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string value = arg.substr(arg.find('=') + 1);
    if (arg.rfind("--workload=", 0) == 0) {
      workload = value;
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg.rfind("--duration-s=", 0) == 0) {
      config.duration_s = std::strtod(value.c_str(), nullptr);
    } else if (arg.rfind("--trace=", 0) == 0) {
      config.trace_dir = value;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = value;
    } else if (arg.rfind("--workdir=", 0) == 0) {
      config.work_dir = value;
    } else if (arg.rfind("--part=", 0) == 0) {
      part_path = value;
    } else if (arg == "--self-test-corrupt") {
      config.self_test_corrupt = true;
    } else {
      return Usage();
    }
  }
  const bool known = workload == "all" || std::find(kWorkloads.begin(), kWorkloads.end(),
                                                    workload) != kWorkloads.end();
  if (!known || !have_seed || !(config.duration_s > 0) || config.work_dir.empty()) {
    return Usage();
  }
  (void)e2e::TickClock::Get();  // Anchor the tick calibration before any work.
  if (!config.trace_dir.empty()) {
    fs::create_directories(config.trace_dir);
  }

  std::vector<std::string> parts;
  bool ok = true;
  if (workload == "all") {
    ok = RunAll(argc, argv, out_path, &parts);
  } else {
    const e2e::WorkloadReport report = RunWorkload(workload, config);
    ok = report.correct;
    parts.push_back(report.Json());
    if (!part_path.empty()) {
      return WriteFile(part_path, parts.back()) && ok ? 0 : 1;
    }
  }
  std::error_code ignored;
  fs::remove(config.work_dir, ignored);  // Only if the workloads left it empty.
  if (!WriteFile(out_path, Report(config, parts))) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
