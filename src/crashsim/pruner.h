// Crash-state equivalence-class pruning over the persistence graph
// (DESIGN.md §12).
//
// Two crash states are equivalent when recovery provably cannot distinguish
// them: every byte a post-crash read can observe is identical. The classifier
// computes, per CrashStateSpec, a signature of the *projected post-recovery
// image* restricted to recovery-relevant bytes:
//
//   1. Maintain the fence-boundary durable image for the spec's crash epoch
//      (incremental: per-line last-retired write over the trace-start
//      baseline, honoring per-thread fence retirement).
//   2. Patch in the spec's surviving in-flight lines — via the exact same
//      MaterializeInFlight walk the harness uses to build the on-disk image,
//      so model and materializer cannot diverge.
//   3. Run recovery's log replay on the patched image through recovery's own
//      reader (src/tx/replay.h): OpenLogChain over the image's log puddles,
//      the RetiredByEpoch gate, and ReplayLogChain with a resolver that
//      points into the image. Only the opener and the resolver are the
//      model's own, so the replay cannot drift from the daemon's.
//   4. Hash every non-excluded line of the result. Excluded lines are log
//      puddle heaps: recovery's own post-replay writes (range flips, resets)
//      land there, and no application read ever observes them afterwards —
//      the runtime only creates fresh logs after a restart.
//
// Equal signatures ⇒ byte-identical recovery-relevant images ⇒ identical
// recovery outcome, so the harness explores one representative per class.
// A chain recovery skips (broken or cyclic link, unparseable log region) is
// skipped here too. Anything the model cannot prove — a valid entry
// targeting untraced or log bytes, a chain linking outside the traced set,
// cross-chain target overlap (replay-order dependence), an unparseable log
// space — degrades to a unique signature: the state is always explored.
// Pruning can only skip work, never verification coverage.
#ifndef SRC_CRASHSIM_PRUNER_H_
#define SRC_CRASHSIM_PRUNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/crashsim/persistence_graph.h"
#include "src/crashsim/state_enumerator.h"
#include "src/crashsim/trace.h"

namespace crashsim {

enum class PruneMode : uint8_t {
  kNone = 0,   // Brute force: explore every enumerated state.
  kGraph = 1,  // Explore one representative per equivalence class.
};

struct ClassSignature {
  uint64_t a = 0;
  uint64_t b = 0;
  // Conservative fallback: the model could not prove equivalence bounds for
  // this state, so it never merges with anything.
  bool unique = false;

  friend bool operator==(const ClassSignature&, const ClassSignature&) = default;
  friend auto operator<=>(const ClassSignature&, const ClassSignature&) = default;
};

struct PruneStats {
  uint64_t classified = 0;
  uint64_t fallback_unique = 0;   // States given conservative unique signatures.
  uint64_t chains_modeled = 0;    // Log chains parsed + replayed in the model.
  uint64_t entries_modeled = 0;   // Valid log entries applied in the model.
};

// Classifies crash states of one trace. Specs must be presented in
// non-decreasing epoch order (EnumerateCrashStates emits them that way); the
// trace and graph must outlive the classifier.
class StateClassifier {
 public:
  static puddles::Result<std::unique_ptr<StateClassifier>> Create(
      const Trace& trace, const PersistenceGraph& graph);

  puddles::Result<ClassSignature> Classify(const CrashStateSpec& spec);

  const PruneStats& stats() const { return stats_; }

 private:
  StateClassifier(const Trace& trace, const PersistenceGraph& graph);

  void AdvanceBoundary(uint64_t epoch);
  void SnapshotLinesForWrite(uint32_t region, uint64_t offset, uint64_t size);
  void PatchWrite(uint32_t region, uint64_t offset, const uint8_t* data, size_t size);
  // Runs recovery's replay of every traced log chain on image_. Returns
  // false when a conservative fallback is required.
  bool ModelReplay();
  ClassSignature SignatureFromTouched();
  void RevertTouched();

  const Trace& trace_;
  const PersistenceGraph& graph_;
  RetirementIndex retirement_;
  PruneStats stats_;

  // Boundary image for cur_epoch_ (starts at the baseline for epoch 0).
  std::vector<std::vector<uint8_t>> image_;
  uint64_t cur_epoch_ = 0;
  // Per touched line (parallel to graph_.TouchedLines()): index of the
  // timeline write currently applied to image_; -1 = baseline content.
  std::vector<int64_t> last_applied_;
  // Running signature of the boundary image over non-excluded lines
  // (commutative wrapping sums of per-line hashes, so single-line updates are
  // O(1)).
  uint64_t raw_a_ = 0;
  uint64_t raw_b_ = 0;

  // Traced log-chain topology (from baseline headers; log puddle header pages
  // are never rewritten while traced).
  std::vector<uint32_t> logspace_regions_;
  std::vector<std::pair<puddles::Uuid, uint32_t>> log_regions_;  // uuid -> region.

  // Per-spec scratch: first-touch line snapshots of boundary content.
  struct TouchedLine {
    uint32_t region;
    uint64_t offset;
    std::vector<uint8_t> saved;
  };
  std::vector<TouchedLine> touched_;
  std::vector<std::pair<uint32_t, uint64_t>> touched_keys_;  // Sorted membership.
  uint64_t unique_counter_ = 0;
};

}  // namespace crashsim

#endif  // SRC_CRASHSIM_PRUNER_H_
