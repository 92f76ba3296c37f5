#include "src/crashsim/harness.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

namespace crashsim {
namespace {

namespace fs = std::filesystem;

puddles::Status CopyTree(const fs::path& from, const fs::path& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::create_directories(to, ec);
  fs::copy(from, to, fs::copy_options::recursive | fs::copy_options::overwrite_existing, ec);
  if (ec) {
    return puddles::InternalError("copy " + from.string() + " -> " + to.string() + ": " +
                                  ec.message());
  }
  return puddles::OkStatus();
}

// Open file handles for the traced regions' backing files, for pwrite()ing
// one materialized crash image. Re-opened per state because the harness
// replaces the files when restoring the pristine snapshot.
class RegionFiles {
 public:
  explicit RegionFiles(const std::vector<TracedRegion>& regions) {
    fds_.reserve(regions.size());
    for (const TracedRegion& region : regions) {
      fds_.push_back(::open(region.file_path.c_str(), O_WRONLY));
    }
  }
  ~RegionFiles() {
    for (int fd : fds_) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }

  puddles::Status Write(uint32_t region, uint64_t offset, const uint8_t* data, size_t size) {
    if (region >= fds_.size() || fds_[region] < 0) {
      return puddles::InternalError("crashsim: no open file for region " +
                                    std::to_string(region));
    }
    ssize_t written = ::pwrite(fds_[region], data, size, static_cast<off_t>(offset));
    if (written != static_cast<ssize_t>(size)) {
      return puddles::InternalError("crashsim: pwrite failed: errno=" + std::to_string(errno));
    }
    return puddles::OkStatus();
  }

 private:
  std::vector<int> fds_;
};

}  // namespace

std::string HarnessReport::Summary() const {
  std::ostringstream out;
  out << workload << ": " << states_enumerated << " crash states ("
      << fence_boundary_states << " fence-boundary, " << eviction_states
      << " eviction-subset";
  if (thread_mask_states != 0) {
    out << ", " << thread_mask_states << " thread-mask";
  }
  out << ") from " << epochs << " epochs over " << ops << " ops";
  if (focus_states != 0) {
    out << " (" << focus_states << " in focus windows, " << focus_explored << " explored)";
  }
  if (trace_threads > 1) {
    out << " (" << trace_threads << " threads)";
  }
  out << "; " << recoveries_ok << " recovered ok, " << recovery_failures
      << " recovery failures, " << invariant_failures << " invariant failures; "
      << distinct_outcomes << " distinct recovered states; trace: " << flush_calls
      << " flushes / " << fences << " fences / " << trace_bytes << " delta bytes";
  out << "; prune: " << states_explored << " explored / " << states_pruned << " pruned / "
      << state_classes << " classes (" << fallback_unique << " unique-fallback)";
  if (class_mismatches != 0) {
    out << ", " << class_mismatches << " CLASS MISMATCHES";
  }
  out << "; graph: " << graph.nodes << " nodes, " << graph.ordering_edges << " ordering + "
      << graph.overwrite_edges << " overwrite edges; lines: " << graph.lines_touched
      << " touched / " << graph.lines_total << " total (" << graph.lines_never_exercised
      << " never exercised, " << graph.log_lines << " log)";
  return out.str();
}

puddles::Result<HarnessReport> Harness::Run() {
  HarnessReport report;
  report.workload = driver_.name();

  const fs::path scratch =
      (options_.scratch_dir.empty() ? fs::temp_directory_path()
                                    : fs::path(options_.scratch_dir)) /
      ("crashsim_" + std::to_string(::getpid()) + "_" + driver_.name());
  const fs::path live = scratch / "live";
  const fs::path pristine = scratch / "pristine";
  std::error_code ec;
  fs::remove_all(scratch, ec);
  fs::create_directories(live, ec);
  if (ec) {
    return puddles::InternalError("crashsim: cannot create " + live.string());
  }

  // ---- Phase 1: build the baseline and trace one complete run. ----
  ASSIGN_OR_RETURN(std::vector<TracedRegion> regions, driver_.Setup(live.string()));
  // Snapshot the whole root now: this is the durable state every enumerated
  // crash image builds on (mmap MAP_SHARED keeps files current with memory).
  RETURN_IF_ERROR(CopyTree(live, pristine));

  pmem::PersistStats persist_before = pmem::ReadPersistStats();
  TraceRecorder recorder;
  recorder.Start(regions);

  std::set<std::string> legal_states;
  auto record_state = [&]() -> puddles::Status {
    ASSIGN_OR_RETURN(std::string fp, driver_.Fingerprint());
    legal_states.insert(std::move(fp));
    return puddles::OkStatus();
  };
  puddles::Status run_status = record_state();
  const int ops = driver_.num_ops();
  for (int i = 0; run_status.ok() && i < ops; ++i) {
    run_status = driver_.RunOp(i);
    if (run_status.ok()) {
      run_status = record_state();
    }
  }
  Trace trace = recorder.Stop();
  driver_.Teardown();
  if (!run_status.ok()) {
    fs::remove_all(scratch, ec);
    return run_status;
  }

  pmem::PersistStats persist_after = pmem::ReadPersistStats();
  report.ops = static_cast<uint64_t>(ops);
  report.epochs = trace.epochs.size();
  report.flush_calls = trace.flush_calls;
  report.fences = trace.fences;
  report.trace_bytes = trace.TotalDeltaBytes();
  report.trace_threads = trace.num_threads;
  report.persist.flushed_lines = persist_after.flushed_lines - persist_before.flushed_lines;
  report.persist.flush_calls = persist_after.flush_calls - persist_before.flush_calls;
  report.persist.fences = persist_after.fences - persist_before.fences;

  // ---- Phase 2: enumerate, classify, and verify crash states. ----
  ASSIGN_OR_RETURN(const PersistenceGraph graph, PersistenceGraph::Build(trace));
  ASSIGN_OR_RETURN(std::unique_ptr<StateClassifier> classifier,
                   StateClassifier::Create(trace, graph));
  report.graph = graph.stats();

  std::vector<CrashStateSpec> specs = EnumerateCrashStates(trace, options_.enumerate);
  report.states_enumerated = specs.size();
  const std::vector<FocusWindow> focus = driver_.FocusWindows();
  auto in_focus = [&](uint64_t epoch) {
    const uint64_t fences = persist_before.fences + epoch;  // Retired at the crash.
    for (const FocusWindow& window : focus) {
      if (fences >= window.first_fence && fences < window.end_fence) {
        return true;
      }
    }
    return false;
  };
  std::set<std::string> outcomes;
  std::set<std::pair<uint64_t, uint64_t>> seen_classes;
  // verify_classes: first observed outcome per class.
  std::map<std::pair<uint64_t, uint64_t>, std::string> class_outcome;
  auto record_failure = [&](std::string message) {
    if (report.failures.size() < HarnessReport::kMaxFailuresRecorded) {
      report.failures.push_back(std::move(message));
    }
  };
  for (const CrashStateSpec& spec : specs) {
    if (options_.log_each_state) {
      std::fprintf(stderr, "crashsim[%s]: exploring %s\n", report.workload.c_str(),
                   spec.ToString().c_str());
    }
    if (spec.evict) {
      ++report.eviction_states;
    } else if (spec.thread_mask != 0) {
      ++report.thread_mask_states;
    } else {
      ++report.fence_boundary_states;
    }
    const bool focused = in_focus(spec.epoch);
    report.focus_states += focused;

    ASSIGN_OR_RETURN(const ClassSignature sig, classifier->Classify(spec));
    const bool first_of_class = sig.unique || seen_classes.insert({sig.a, sig.b}).second;
    if (!options_.verify_classes && !first_of_class) {
      ++report.states_pruned;
      if (options_.record_outcomes) {
        report.outcomes.push_back({spec.ToString(), sig, /*explored=*/false, /*ok=*/true, ""});
      }
      continue;
    }
    ++report.states_explored;
    report.focus_explored += focused;

    puddles::Status state_status = CopyTree(pristine, live);
    if (state_status.ok()) {
      RegionFiles files(trace.regions);
      MaterializeCrashState(trace, spec, [&](uint32_t region, uint64_t offset,
                                             const uint8_t* data, size_t size) {
        if (state_status.ok()) {
          state_status = files.Write(region, offset, data, size);
        }
      });
    }

    puddles::Result<std::string> recovered =
        state_status.ok() ? driver_.RecoverAndFingerprint(live.string())
                          : puddles::Result<std::string>(state_status);
    std::string outcome_key;
    bool state_ok = false;
    if (!recovered.ok()) {
      outcome_key = "recovery-failure";
      ++report.recovery_failures;
      record_failure(spec.ToString() + ": recovery failed: " + recovered.status().ToString() +
                     " [" + driver_.LastRecoveryInfo() + "]");
    } else if (legal_states.find(*recovered) == legal_states.end()) {
      outcome_key = "invariant-failure:" + *recovered;
      ++report.invariant_failures;
      record_failure(spec.ToString() + ": recovered state is not at an op boundary: " +
                     *recovered + " [" + driver_.LastRecoveryInfo() + "]");
    } else {
      outcome_key = "ok:" + *recovered;
      state_ok = true;
      ++report.recoveries_ok;
      outcomes.insert(*recovered);
    }
    if (options_.verify_classes && !sig.unique) {
      auto [it, inserted] = class_outcome.emplace(std::make_pair(sig.a, sig.b), outcome_key);
      if (!inserted && it->second != outcome_key) {
        ++report.class_mismatches;
        record_failure(spec.ToString() + ": class outcome mismatch: \"" + outcome_key +
                       "\" vs representative \"" + it->second + "\"");
      }
    }
    if (options_.record_outcomes) {
      report.outcomes.push_back({spec.ToString(), sig, /*explored=*/true, state_ok,
                                 std::move(outcome_key)});
    }
  }
  report.distinct_outcomes = outcomes.size();
  report.state_classes = seen_classes.size() + classifier->stats().fallback_unique;
  report.fallback_unique = classifier->stats().fallback_unique;

  fs::remove_all(scratch, ec);
  return report;
}

}  // namespace crashsim
