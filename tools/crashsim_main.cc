// crashsim — systematic crash-state enumeration and recovery verification.
//
// Runs each selected workload once under the persist-trace recorder,
// enumerates every legal post-crash durable image it models (every fence
// boundary, per-thread in-flight combinations for multi-threaded traces, and
// seeded eviction subsets of in-flight lines), recovers the images through
// the real application-independent recovery path, and prints a coverage
// report.
//
// Exploration is pruned through the persistence graph (DESIGN.md §12):
// states whose recovery-relevant projected images are byte-identical
// collapse into one equivalence class and only a representative is
// recovered. --verify-classes recovers every state instead AND checks that
// every member of a class produces the same outcome (the soundness
// self-test). --ops alone sets how large a run is.
//
// Usage:
//   crashsim [--workloads=list,btree,art,kvstore,pmhash,import,mt,epoch,allocgc]
//            [--ops=N] [--seed=N] [--rewrite-batch=N] [--scratch=DIR]
//            [--verify-classes] [--json=FILE] [--log-states] [--verbose]
//
// For the "import" workload, --ops is the exported list's node count (its
// exported copy must be cut at a page short of a power of two, or the set-up
// fails) and --rewrite-batch is the streaming rewrite's frontier batch size
// (smaller = denser crash-state coverage of the relocation protocol).
//
// Exit status: 0 only when every workload ran, explored at least one crash
// state, and every explored state recovered to a legal op boundary (and, with
// --verify-classes, no class had mixed outcomes), and the --json report, if
// asked for, reached its file. Any failure, harness error, empty exploration
// or unwritten report exits nonzero, so CI can gate on it directly.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/crashsim/harness.h"
#include "src/crashsim/workload_drivers.h"

namespace {

struct CliOptions {
  std::vector<std::string> workloads = crashsim::DriverNames();
  crashsim::DriverOptions driver;
  crashsim::HarnessOptions harness;
  std::string json_path;
  bool verbose = false;
};

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    if (comma > start) {
      parts.push_back(csv.substr(start, comma - start));
    }
    start = comma + 1;
  }
  return parts;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workloads=list,btree,art,kvstore,pmhash,import,mt,epoch,allocgc]\n"
               "          [--ops=N] [--seed=N] [--rewrite-batch=N] [--scratch=DIR]\n"
               "          [--verify-classes] [--json=FILE] [--log-states] [--verbose]\n",
               argv0);
  return 2;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// One machine-readable object per workload; the file is a single JSON array.
void AppendReportJson(std::ostringstream& out, const crashsim::HarnessReport& r) {
  out << "  {\n";
  out << "    \"workload\": \"" << JsonEscape(r.workload) << "\",\n";
  out << "    \"ok\": " << (r.ok() ? "true" : "false") << ",\n";
  out << "    \"ops\": " << r.ops << ",\n";
  out << "    \"epochs\": " << r.epochs << ",\n";
  out << "    \"threads\": " << r.trace_threads << ",\n";
  out << "    \"flush_calls\": " << r.flush_calls << ",\n";
  out << "    \"fences\": " << r.fences << ",\n";
  out << "    \"trace_bytes\": " << r.trace_bytes << ",\n";
  out << "    \"states_enumerated\": " << r.states_enumerated << ",\n";
  out << "    \"fence_boundary_states\": " << r.fence_boundary_states << ",\n";
  out << "    \"eviction_states\": " << r.eviction_states << ",\n";
  out << "    \"thread_mask_states\": " << r.thread_mask_states << ",\n";
  out << "    \"states_explored\": " << r.states_explored << ",\n";
  out << "    \"states_pruned\": " << r.states_pruned << ",\n";
  out << "    \"state_classes\": " << r.state_classes << ",\n";
  out << "    \"fallback_unique\": " << r.fallback_unique << ",\n";
  out << "    \"class_mismatches\": " << r.class_mismatches << ",\n";
  out << "    \"recoveries_ok\": " << r.recoveries_ok << ",\n";
  out << "    \"recovery_failures\": " << r.recovery_failures << ",\n";
  out << "    \"invariant_failures\": " << r.invariant_failures << ",\n";
  out << "    \"distinct_outcomes\": " << r.distinct_outcomes << ",\n";
  out << "    \"graph\": {\n";
  out << "      \"nodes\": " << r.graph.nodes << ",\n";
  out << "      \"ordering_edges\": " << r.graph.ordering_edges << ",\n";
  out << "      \"overwrite_edges\": " << r.graph.overwrite_edges << ",\n";
  out << "      \"lines_total\": " << r.graph.lines_total << ",\n";
  out << "      \"lines_touched\": " << r.graph.lines_touched << ",\n";
  out << "      \"lines_never_exercised\": " << r.graph.lines_never_exercised << ",\n";
  out << "      \"log_lines\": " << r.graph.log_lines << "\n";
  out << "    },\n";
  out << "    \"failures\": [";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    out << (i ? ", " : "") << "\"" << JsonEscape(r.failures[i]) << "\"";
  }
  out << "]\n";
  out << "  }";
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "workloads", &value)) {
      options.workloads = SplitCsv(value);
    } else if (ParseFlag(arg, "ops", &value)) {
      options.driver.ops = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "seed", &value)) {
      options.driver.seed = std::strtoull(value.c_str(), nullptr, 10);
      options.harness.enumerate.seed = options.driver.seed;
    } else if (ParseFlag(arg, "rewrite-batch", &value)) {
      options.driver.rewrite_batch_objects = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "scratch", &value)) {
      options.harness.scratch_dir = value;
    } else if (ParseFlag(arg, "json", &value)) {
      options.json_path = value;
    } else if (arg == "--verify-classes") {
      options.harness.verify_classes = true;
    } else if (arg == "--log-states") {
      options.harness.log_each_state = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }

  int failures = 0;
  std::printf("crashsim: exploring every enumerated crash state (%u eviction subsets/epoch, "
              "p=%.2f): %s\n",
              options.harness.enumerate.eviction_subsets_per_epoch,
              crashsim::kEvictionProbability,
              options.harness.verify_classes ? "every state recovered (verify-classes)"
                                             : "one recovery per class");
  std::printf("%-8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %10s\n", "workload", "states",
              "explored", "pruned", "classes", "ok", "recfail", "invfail", "clsmis",
              "epochs", "outcomes");
  std::ostringstream json;
  json << "[\n";
  bool first_json = true;
  for (const std::string& name : options.workloads) {
    auto driver = crashsim::MakeDriver(name, options.driver);
    if (driver == nullptr) {
      std::fprintf(stderr, "crashsim: unknown workload '%s'\n", name.c_str());
      return Usage(argv[0]);
    }
    crashsim::Harness harness(*driver, options.harness);
    auto report = harness.Run();
    if (!report.ok()) {
      std::fprintf(stderr, "crashsim: %s: harness error: %s\n", name.c_str(),
                   report.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::printf("%-8s %8llu %8llu %8llu %8llu %8llu %8llu %8llu %8llu %8llu %10llu\n",
                name.c_str(), static_cast<unsigned long long>(report->states_enumerated),
                static_cast<unsigned long long>(report->states_explored),
                static_cast<unsigned long long>(report->states_pruned),
                static_cast<unsigned long long>(report->state_classes),
                static_cast<unsigned long long>(report->recoveries_ok),
                static_cast<unsigned long long>(report->recovery_failures),
                static_cast<unsigned long long>(report->invariant_failures),
                static_cast<unsigned long long>(report->class_mismatches),
                static_cast<unsigned long long>(report->epochs),
                static_cast<unsigned long long>(report->distinct_outcomes));
    if (options.verbose) {
      std::printf("  %s\n", report->Summary().c_str());
      std::printf("  persist traffic: %llu flush calls, %llu lines, %llu fences\n",
                  static_cast<unsigned long long>(report->persist.flush_calls),
                  static_cast<unsigned long long>(report->persist.flushed_lines),
                  static_cast<unsigned long long>(report->persist.fences));
    }
    for (const std::string& failure : report->failures) {
      std::fprintf(stderr, "  FAILURE %s: %s\n", name.c_str(), failure.c_str());
    }
    if (!first_json) {
      json << ",\n";
    }
    AppendReportJson(json, *report);
    first_json = false;
    if (!report->ok()) {
      ++failures;
    } else if (report->states_explored == 0) {
      // A run that verified nothing must not pass: misconfiguration (ops=0, a
      // filter that matches no states) would otherwise look green.
      std::fprintf(stderr, "crashsim: %s: explored zero crash states\n", name.c_str());
      ++failures;
    }
  }
  json << "\n]\n";
  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path, std::ios::trunc);
    out << json.str();
    out.close();  // Flushes: a write the file refuses fails here.
    if (!out) {
      std::fprintf(stderr, "crashsim: cannot write %s\n", options.json_path.c_str());
      return 1;
    }
    std::printf("crashsim: wrote %s\n", options.json_path.c_str());
  }
  if (failures != 0) {
    std::fprintf(stderr, "crashsim: %d workload(s) failed\n", failures);
    return 1;
  }
  std::printf("crashsim: all workloads recovered from every explored crash state\n");
  return 0;
}
