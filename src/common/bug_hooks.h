// Seeded-bug injection hooks for crashsim differential testing.
//
// Each flag re-opens one real, historically fixed crash-consistency hole so
// tests can assert that recovering every crash state (verify_classes) AND
// pruned exploration both catch it (equal bug-finding power at fewer explored
// states). Every flag defaults to off and must never be set outside tests:
// with all flags false the guarded code compiles to the fixed behavior, and
// the branches sit on cold paths (one per log append / allocation), so
// production cost is a predictable never-taken branch.
//
// Inline atomics rather than a registry: the hooks must be togglable from a
// test without linking extra machinery, and reads may happen concurrently
// with a test thread flipping them (relaxed is enough — tests set flags only
// while the workload is quiescent).
#ifndef SRC_COMMON_BUG_HOOKS_H_
#define SRC_COMMON_BUG_HOOKS_H_

#include <atomic>

namespace puddles {
namespace bug_hooks {

// Re-opens the torn-append hole: entry checksums are computed with a constant
// generation instead of the log's current generation. A slot's stale
// previous-incarnation content can then masquerade as a fresh append after a
// crash, replaying garbage into user data.
inline std::atomic<bool> torn_append_unbound_checksum{false};

// Re-opens the free-list-elision hole: BuddyAllocator::Allocate skips the
// protective undo capture of the returned block's FreeNode bytes. If the
// transaction aborts (or crashes before commit), rollback re-links the block
// into the free list but the caller's stores over the node survive — the
// free list now chains through caller data.
inline std::atomic<bool> buddy_skip_protective_capture{false};

}  // namespace bug_hooks
}  // namespace puddles

#endif  // SRC_COMMON_BUG_HOOKS_H_
