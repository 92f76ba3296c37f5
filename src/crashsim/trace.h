// Persist-trace recording for systematic crash-state enumeration.
//
// A TraceRecorder observes the persistence instruction stream (every
// pmem::Flush and pmem::Fence) over a set of registered PM regions and builds
// an epoch-delimited trace: epoch k is the interval between the (k-1)-th and
// k-th fences. Within an epoch the recorder captures
//   * flush deltas — the line-expanded byte ranges written back by Flush();
//     they are guaranteed durable once the epoch's closing fence retires, and
//     only maybe-durable before it (a write-back can complete any time after
//     the flush instruction issues), and
//   * dirty lines at the closing fence — lines stored but never flushed; on
//     real hardware the cache may evict such a line at any moment, so each is
//     independently maybe-durable.
// From a trace, the state enumerator (state_enumerator.h) generates the
// legal post-crash durable images to explore. See DESIGN.md §5.
//
// Multi-threaded traces: every flush delta records the issuing thread and
// every epoch records which thread's fence closed it. A store fence orders
// only the *issuing* thread's preceding flushes, so a delta from thread t is
// guaranteed durable at a crash only once t itself has fenced — flushes from
// other threads that happen to fall in an earlier (globally ordered) epoch
// remain merely maybe-durable. RetirementIndex answers exactly that question;
// the enumerator uses it to generate per-thread interleaving states and the
// pruner (DESIGN.md §12) uses it to build boundary images honestly.
//
// The recorder keeps its own model of the durable image (initialized from
// live contents at Start). The untouched trace-start image is preserved in
// Trace::baseline — the persistence-graph analysis needs it to reconstruct
// any boundary image offline, and ApplyCrashState (state_enumerator.h)
// restores it before writing a crash image into live memory.
#ifndef SRC_CRASHSIM_TRACE_H_
#define SRC_CRASHSIM_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/pmem/flush.h"

namespace crashsim {

// One PM region under observation. `file_path` names the backing puddle file
// so the harness can materialize crash images onto disk after teardown;
// crash images written in place (ApplyCrashState) need only base and size.
struct TracedRegion {
  uintptr_t base = 0;
  size_t size = 0;
  std::string file_path = {};
  std::string label = {};
};

// A flushed, region-relative, line-expanded byte range and its content at
// flush time.
struct FlushDelta {
  uint32_t region = 0;  // Index into Trace::regions.
  uint64_t offset = 0;  // Region-relative, cache-line aligned.
  uint32_t thread = 0;  // Dense id of the issuing thread (0 = first seen).
  std::vector<uint8_t> bytes;
};

// A stored-but-unflushed cache line observed when an epoch closed, holding
// the content the cache would have written back on eviction. Dirty lines are
// found by diffing live memory against the durable model, so they carry no
// thread attribution.
struct DirtyLine {
  uint32_t region = 0;
  uint64_t offset = 0;  // Region-relative, cache-line aligned.
  std::vector<uint8_t> live;
};

// One fence-delimited interval.
struct Epoch {
  std::vector<FlushDelta> deltas;
  std::vector<DirtyLine> dirty_at_close;
  // Dense id of the thread whose fence closed this epoch; kNoFence for the
  // trailing epoch closed by TraceRecorder::Stop() (no ordering point — its
  // deltas are never guaranteed durable except in the complete-run state).
  // Defaults to thread 0 so hand-built single-threaded traces retire
  // normally.
  static constexpr int32_t kNoFence = -1;
  int32_t fencing_thread = 0;
};

struct Trace {
  std::vector<TracedRegion> regions;
  // epochs[k] is closed by the k-th observed fence; the final epoch is closed
  // by TraceRecorder::Stop() (covering stores issued after the last fence).
  std::vector<Epoch> epochs;
  // Byte image of every region at Start (the durable baseline all crash
  // states build on). Parallel to `regions`; empty for hand-built traces.
  std::vector<std::vector<uint8_t>> baseline;
  uint64_t flush_calls = 0;
  uint64_t fences = 0;
  uint32_t num_threads = 1;

  uint64_t TotalDeltaBytes() const;
};

// Answers, per crash point, whether a flush delta's durability is guaranteed.
// A delta issued by thread t in epoch e is *retired* at a crash just before
// epoch k's closing fence iff t fenced some epoch j with e <= j < k (t's own
// sfence orders all of t's earlier flushes). The complete-run crash point
// (k == epochs.size()) retires everything: the process shut down cleanly, so
// the harness treats the final live image as durable — the pre-existing
// single-threaded contract.
class RetirementIndex {
 public:
  explicit RetirementIndex(const Trace& trace);

  bool Retired(uint32_t thread, uint64_t delta_epoch, uint64_t crash_epoch) const;

  // True iff some delta in epochs [0, crash_epoch) is NOT retired at
  // crash_epoch (only possible in multi-threaded traces).
  bool AnyUnretired(const Trace& trace, uint64_t crash_epoch) const;

 private:
  uint64_t num_epochs_ = 0;
  // fence_epochs_[t] = sorted epochs whose closing fence thread t issued.
  std::vector<std::vector<uint64_t>> fence_epochs_;
};

// Records the persist trace of the calling process. At most one recorder may
// be active at a time (it installs itself as the process persist observer).
// Thread-safe: flushes/fences from any thread are serialized into one trace,
// with per-thread attribution (dense ids in first-seen order).
class TraceRecorder : public pmem::PersistObserver {
 public:
  TraceRecorder() = default;
  ~TraceRecorder() override;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Begins recording. The live contents of `regions` form the epoch-0 durable
  // baseline (everything before Start is assumed durable).
  void Start(std::vector<TracedRegion> regions);

  // Closes the trailing epoch (final dirty scan), uninstalls the observer,
  // and returns the trace.
  Trace Stop();

  bool active() const;

  // pmem::PersistObserver:
  void OnFlushRange(const void* addr, size_t size) override;
  void OnFence() override;

 private:
  void CloseEpochLocked(int32_t fencing_thread);
  uint32_t ThreadIdLocked();

  mutable std::mutex mu_;
  bool active_ = false;
  Trace trace_;
  Epoch open_;
  std::unordered_map<std::thread::id, uint32_t> thread_ids_;
  // Per-region durable-image model, advanced by flush deltas; diffed against
  // live memory at each fence to find dirty (evictable) lines.
  std::vector<std::vector<uint8_t>> durable_;
};

}  // namespace crashsim

#endif  // SRC_CRASHSIM_TRACE_H_
