// Crashsim drivers for the repo's workloads: the linked list, B+-tree,
// adaptive radix tree, and KV store from src/workloads (running on the full
// Puddles stack — daemon, runtime, pool, transactions; the ART driver's key
// mix walks every node promotion/demotion and prefix split inside the traced
// window, and fingerprints via the ordered scan), the daemon's own PersistentHashMap
// (src/pmhash, which carries its own crash-consistency protocol), and the
// pool import/relocation path (export → import-with-base-conflict → streaming
// pointer rewrite under the frontier/flag protocol, DESIGN.md §7).
//
// Each driver performs a deterministic seeded op sequence; op i's written
// values encode i, so distinct op-boundary states fingerprint distinctly and
// the harness membership oracle is sharp. The import driver instead mutates
// the *source* pool after exporting, so any stale (untranslated) pointer a
// recovered copy chases back into the source surfaces as a fingerprint
// mismatch rather than silently reading identical clone bytes.
#ifndef SRC_CRASHSIM_WORKLOAD_DRIVERS_H_
#define SRC_CRASHSIM_WORKLOAD_DRIVERS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/crashsim/harness.h"

namespace crashsim {

struct DriverOptions {
  // For the structure workloads: traced mutation count. For "import": the
  // node count of the exported list (the traced ops are one per imported
  // puddle; crash-state density comes from the rewrite batches within them).
  int ops = 24;
  uint64_t seed = 42;
  int preload = 8;  // Elements inserted before tracing starts (part of the baseline).
  // "import" only: RewriteOptions::batch_objects for the traced rewrite.
  // Small batches persist the frontier often, widening the explored protocol
  // state space.
  uint32_t rewrite_batch_objects = 4;
};

// Supported names: "list", "btree", "art", "kvstore", "pmhash", "import",
// "mt" (three persistent worker threads stamping disjoint shard slices — the
// multi-threaded trace workload; its fingerprint validates per-thread
// invariants and normalizes, since concurrent commits have no single global
// op boundary), "epoch" (the same rounds under epoch durability, each closed
// by a Sync; a crash must recover to a whole round) and "allocgc" (per-thread
// arena refills, spills and flush-backs, recovered through the arena GC that
// OpenPool runs). Every recovery ends with a probe transaction that proves
// the recovered heap and logs are still usable, not just readable.
std::unique_ptr<WorkloadDriver> MakeDriver(const std::string& name,
                                           const DriverOptions& options = {});
std::vector<std::string> DriverNames();

}  // namespace crashsim

#endif  // SRC_CRASHSIM_WORKLOAD_DRIVERS_H_
