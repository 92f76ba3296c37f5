// Log-chain reading and replay: the one reader of crash-consistency logs.
// Puddled's post-crash, application-independent recovery (§4.1) and
// crashsim's crash-state classifier both read log chains only through this
// header, so the classifier cannot drift from what recovery does.
// "Regardless of whether an entry is an undo or redo log entry, to apply an
// active log entry, the daemon needs to only copy the entry's content to the
// corresponding memory location."
//
// Recovery of one chain is three steps: OpenLogChain follows the links,
// RetiredByEpoch decides whether the chain replays at all, and
// ReplayLogChain applies it. Each caller supplies only where bytes live: an
// opener for log puddles and an AddressResolver for entry targets.
// (Transaction abort does not replay: it walks its own entries in the log
// chain, from where its first entry landed, and applies the undo entries
// newest-first; it needs no checksum, sequence range or resolver.)
#ifndef SRC_TX_REPLAY_H_
#define SRC_TX_REPLAY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/common/uuid.h"
#include "src/tx/log_format.h"

namespace puddles {

// Opens the log region of one log puddle, or fails when the puddle is
// missing, is not a log, or does not parse.
using LogOpener = std::function<puddles::Result<LogRegion>(const Uuid&)>;

// Follows next_log from `head` through `open` and returns the chain in link
// order; a nil head is an empty chain. Fails when `open` rejects a link or
// when a puddle repeats — a cycle ends the walk after one open per distinct
// puddle instead of looping. The logs are hostile input (§4.6): a caller
// skips a chain that fails here.
puddles::Result<std::vector<LogRegion>> OpenLogChain(const Uuid& head, const LogOpener& open);

// The epoch gate (docs/epoch.md): true when the chain headed by `head` is
// tagged with an epoch at or below the log space's retirement record. That
// epoch's drain fence completed, so every mutation the chain would undo is
// already durable: the chain is reset without replay. Tag 0 (immediate mode)
// is never gated.
bool RetiredByEpoch(const LogRegion& head, uint64_t retired_epoch);

// Resolves a logged target address to a writable location in the replayer's
// address space, or nullptr when the address must not be touched (outside any
// puddle the crashed owner could write — §4.6 access control).
class AddressResolver {
 public:
  virtual ~AddressResolver() = default;
  virtual void* Resolve(uint64_t addr, uint32_t size) = 0;
};

// Identity resolution within [base, base+size): used when the log targets a
// region mapped at its logged address (the common case, since daemon and
// clients share the global puddle space layout).
class RangeResolver : public AddressResolver {
 public:
  RangeResolver(uint64_t base, uint64_t size) : base_(base), size_(size) {}
  void* Resolve(uint64_t addr, uint32_t size) override {
    // Overflow-safe bounds check: a hostile/corrupt log entry with addr near
    // UINT64_MAX must not wrap addr+size around and pass (§4.6 — the daemon
    // replays logs it did not write).
    if (addr < base_ || size > size_ || addr - base_ > size_ - size) {
      return nullptr;
    }
    return reinterpret_cast<void*>(addr);
  }

 private:
  uint64_t base_;
  uint64_t size_;
};

struct ReplayStats {
  uint64_t applied = 0;
  uint64_t skipped_out_of_range = 0;  // Sequence number outside the valid range.
  uint64_t skipped_volatile = 0;
  uint64_t skipped_checksum = 0;
};

// Replays one log (a chain of regions in link order). Valid reverse-order
// (undo) entries are applied newest-first across the whole chain, then valid
// forward-order (redo) entries oldest-first — exactly the two recovery rolls
// of Fig. 7. Volatile entries are skipped: their targets did not survive the
// crash. Every entry is resolved before any is copied, and one unresolvable
// target poisons the whole log: nothing is applied and an error returns (the
// daemon marks such logs invalid rather than replaying a possibly-hostile
// log, §4.6). Applied locations are flushed; one fence ends the replay.
puddles::Result<ReplayStats> ReplayLogChain(const std::vector<LogRegion>& chain,
                                            AddressResolver& resolver);

}  // namespace puddles

#endif  // SRC_TX_REPLAY_H_
