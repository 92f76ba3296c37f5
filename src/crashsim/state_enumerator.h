// Crash-state enumeration: from a persist trace, generate the legal
// post-crash durable images.
//
// The crash model (DESIGN.md §5, after the faulty-PM model of Ben-David et
// al. and Pathfinder-style systematic testing): power may fail just before
// any fence retires. At that point
//   * every flush from an earlier, fence-closed epoch whose issuing thread
//     has since fenced is durable (a store fence orders only the issuing
//     thread's flushes — in single-threaded traces this is simply "every
//     closed epoch"),
//   * every other already-issued flush — the open epoch's, plus any
//     un-retired flush from a thread that has not fenced again — is
//     independently maybe-durable at cache-line granularity, except an
//     un-retired line that a later retired flush of the line superseded (a
//     line's durable content never goes back to an older version), and
//   * each stored-but-unflushed dirty line is independently maybe-durable
//     (the cache may have evicted it).
// A CrashStateSpec names one member of this space: a crash epoch plus either
// a seeded subset of the maybe-durable lines or, for multi-threaded traces, a
// thread mask selecting whole threads whose un-retired write-backs survive
// (representative interleaving selection at epoch boundaries). Enumeration
// emits, per epoch, the strictest state (nothing in flight survives), the
// thread-mask states, and a configurable number of seeded eviction subsets,
// in non-decreasing epoch order.
#ifndef SRC_CRASHSIM_STATE_ENUMERATOR_H_
#define SRC_CRASHSIM_STATE_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/crashsim/trace.h"

namespace crashsim {

// Probability that a maybe-durable line is included in an eviction subset.
inline constexpr double kEvictionProbability = 0.5;

struct EnumerationOptions {
  // Seeded random eviction subsets generated per epoch with in-flight lines.
  // Batched commit persistence (DESIGN.md §10) collapsed the fence count, so
  // each epoch is a wider window with more in-flight lines; five subsets per
  // epoch keeps the scenario diversity per window at least where it was
  // under fence-per-append.
  uint32_t eviction_subsets_per_epoch = 5;
  uint64_t seed = 1;
};

struct CrashStateSpec {
  // Crash point: the closing fence of trace.epochs[epoch] has NOT retired;
  // all *retired* flushes from epochs [0, epoch) are durable (single-threaded
  // traces: every closed epoch in full). epoch == trace.epochs.size() is the
  // complete run (everything durable) — recovery must be a no-op.
  uint64_t epoch = 0;
  // If true, a seeded subset of the maybe-durable lines (un-retired earlier
  // flushes, the open epoch's in-flight flushes, and dirty lines) is
  // additionally durable.
  bool evict = false;
  uint64_t eviction_seed = 0;
  // For non-evict states: bitmask of threads whose maybe-durable write-backs
  // (un-retired earlier flushes + open-epoch flushes) additionally survive,
  // as a unit. 0 = the strict fence-boundary state. Ignored when evict is
  // set (the seeded subset already spans all threads' in-flight lines).
  uint64_t thread_mask = 0;

  std::string ToString() const;
};

std::vector<CrashStateSpec> EnumerateCrashStates(const Trace& trace,
                                                 const EnumerationOptions& options);

// Emits the durable image of `spec` as writes on top of the trace-start
// baseline. Deterministic for a given (trace, spec).
using ApplyFn =
    std::function<void(uint32_t region, uint64_t offset, const uint8_t* data, size_t size)>;
void MaterializeCrashState(const Trace& trace, const CrashStateSpec& spec, const ApplyFn& apply);

// Writes the durable image of `spec` into the traced regions in place: each
// region gets its Trace::baseline back, then MaterializeCrashState's writes.
// The in-memory twin of the crash images the harness writes into puddle
// files, for tests that recover over the same mappings. "Crash now" is
// {.epoch = trace.epochs.size() - 1}: the baseline plus every flush whose
// thread has fenced since; with .evict and a seed, a seeded subset of the
// in-flight lines (unfenced flushes, dirty lines) survives as well. The
// trace must come from a stopped TraceRecorder whose regions are still
// mapped writable.
void ApplyCrashState(const Trace& trace, const CrashStateSpec& spec);

// The non-guaranteed part of MaterializeCrashState: emits only the writes
// whose durability is NOT implied by the crash epoch — chosen un-retired
// flushes, chosen open-epoch flushes, and chosen dirty lines — in the same
// deterministic order (and with the same seeded-RNG draw sequence)
// MaterializeCrashState uses. The persistence-graph pruner applies these as a
// patch on top of an incrementally maintained boundary image; keeping one
// shared walk guarantees the model and the materializer can never diverge.
void MaterializeInFlight(const Trace& trace, const CrashStateSpec& spec,
                         const RetirementIndex& retirement, const ApplyFn& apply);

}  // namespace crashsim

#endif  // SRC_CRASHSIM_STATE_ENUMERATOR_H_
