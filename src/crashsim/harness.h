// Recovery oracle harness: runs a workload once under the trace recorder,
// enumerates the legal post-crash durable images (state_enumerator.h), and
// for each explored image runs the REAL application-independent recovery
// path — a fresh Puddled scanning and replaying logs before any application
// maps data — then checks the recovered state against the workload's
// invariants.
//
// Oracle: each workload op is failure-atomic, so after recovery the workload
// state must equal the committed state at some op boundary. The harness
// fingerprints the structure after every op during the traced run and asserts
// membership of the recovered fingerprint in that set — the strongest
// application-level invariant available without inspecting internals.
//
// Mechanics (DESIGN.md §6): puddles are mmap'd files, so a durable image is
// materialized by restoring the daemon root directory to its trace-start
// snapshot and pwrite()ing the enumerated deltas into the puddle files. The
// "machine" (daemon + runtime) is torn down between states; every recovery
// runs against cold on-disk state, exactly like a reboot.
//
// Pruning (DESIGN.md §12): the harness classifies every enumerated state
// through the persistence-graph StateClassifier and explores only the first
// state of each equivalence class — states whose recovery-relevant projected
// images are byte-identical share one verdict. verify_classes instead
// explores EVERYTHING and checks that every state in a class produces the
// same outcome (the soundness self-test).
#ifndef SRC_CRASHSIM_HARNESS_H_
#define SRC_CRASHSIM_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/crashsim/persistence_graph.h"
#include "src/crashsim/pruner.h"
#include "src/crashsim/state_enumerator.h"
#include "src/crashsim/trace.h"
#include "src/pmem/flush.h"

namespace crashsim {

// A stretch of the traced run a driver wants crash coverage of, as two
// pmem::ReadPersistStats().fences readings taken during the run. A crash
// state lies inside when the process-wide fence count at its crash point is
// in [first_fence, end_fence).
struct FocusWindow {
  uint64_t first_fence = 0;
  uint64_t end_fence = 0;
};

// One crash-consistency workload under test. The driver owns all process
// state (daemon, runtime, pool, or raw mapped files); the harness owns
// orchestration, tracing, enumeration, and verification.
class WorkloadDriver {
 public:
  virtual ~WorkloadDriver() = default;

  virtual std::string name() const = 0;

  // Builds the initial durable state under `root` (daemon, pool, structure,
  // preload) and returns the PM regions whose persists should be traced.
  // Everything durable at return forms the crash-state baseline.
  virtual puddles::Result<std::vector<TracedRegion>> Setup(const std::string& root) = 0;

  virtual int num_ops() const = 0;

  // Runs the i-th mutation. Must be failure-atomic (one transaction, or an
  // internally crash-consistent operation).
  virtual puddles::Status RunOp(int i) = 0;

  // Canonical summary of the committed structure contents. Two states with
  // equal fingerprints must be semantically identical.
  virtual puddles::Result<std::string> Fingerprint() = 0;

  // Power failure: drops all process state with no cleanup. On-disk files are
  // left as-is (the harness overwrites them with enumerated images).
  virtual void Teardown() = 0;

  // Reboot: runs real recovery over the on-disk state under `root`, opens the
  // structure, fingerprints it, and shuts down again. Any error is a recovery
  // failure for the current crash state.
  virtual puddles::Result<std::string> RecoverAndFingerprint(const std::string& root) = 0;

  // One-line diagnostics about the most recent RecoverAndFingerprint (replay
  // stats etc.); attached to failure reports.
  virtual std::string LastRecoveryInfo() const { return {}; }

  // The focus windows marked during the traced run (none by default); the
  // report counts the crash states inside them.
  virtual std::vector<FocusWindow> FocusWindows() const { return {}; }
};

struct HarnessOptions {
  EnumerationOptions enumerate;
  // Scratch directory; a fresh subdirectory per run is created inside. Empty
  // uses the system temp dir.
  std::string scratch_dir;
  // Print each spec to stderr before exploring it (debugging aid: identifies
  // the state at fault when a corrupt recovery kills the process).
  bool log_each_state = false;
  // Soundness self-test: explore every state instead of one per class,
  // asserting that all states of a class produce the same outcome
  // (HarnessReport::class_mismatches counts violations).
  bool verify_classes = false;
  // Record a per-state outcome row in HarnessReport::outcomes.
  bool record_outcomes = false;
};

struct HarnessReport {
  std::string workload;

  // Trace coverage.
  uint64_t ops = 0;
  uint64_t epochs = 0;
  uint64_t flush_calls = 0;
  uint64_t fences = 0;
  uint64_t trace_bytes = 0;
  uint32_t trace_threads = 1;
  pmem::PersistStats persist;  // Persist traffic of the traced run.

  // Exploration coverage.
  uint64_t states_enumerated = 0;
  uint64_t fence_boundary_states = 0;
  uint64_t eviction_states = 0;
  uint64_t thread_mask_states = 0;
  uint64_t focus_states = 0;    // Inside the driver's focus windows.
  uint64_t focus_explored = 0;  // Of those, recoveries actually run.

  // Pruning.
  uint64_t states_explored = 0;  // Recoveries actually run (== enumerated with verify_classes).
  uint64_t states_pruned = 0;    // Skipped as class-equivalent to an explored state.
  uint64_t state_classes = 0;    // Distinct equivalence classes (incl. unique fallbacks).
  uint64_t fallback_unique = 0;  // States the model refused to merge (always explored).
  uint64_t class_mismatches = 0;  // verify_classes: outcome disagreements within a class.
  GraphStats graph;

  // Verification results.
  uint64_t recoveries_ok = 0;
  uint64_t recovery_failures = 0;   // Recovery path errored.
  uint64_t invariant_failures = 0;  // Recovered state not at an op boundary.
  uint64_t distinct_outcomes = 0;   // Distinct recovered fingerprints.
  // The first kMaxFailuresRecorded failure messages (counters are exact).
  static constexpr size_t kMaxFailuresRecorded = 16;
  std::vector<std::string> failures;

  // Per-state rows (HarnessOptions::record_outcomes).
  struct StateOutcome {
    std::string spec;
    ClassSignature signature;
    bool explored = false;
    bool ok = false;
    std::string outcome;  // "ok:<fp>", "recovery-failure", "invariant-failure:<fp>".
  };
  std::vector<StateOutcome> outcomes;

  bool ok() const {
    return recovery_failures == 0 && invariant_failures == 0 && class_mismatches == 0;
  }
  std::string Summary() const;
};

class Harness {
 public:
  Harness(WorkloadDriver& driver, HarnessOptions options)
      : driver_(driver), options_(std::move(options)) {}

  puddles::Result<HarnessReport> Run();

 private:
  WorkloadDriver& driver_;
  HarnessOptions options_;
};

}  // namespace crashsim

#endif  // SRC_CRASHSIM_HARNESS_H_
