// Per-thread port into the epoch-based group-commit subsystem (docs/epoch.md).
//
// In epoch mode a committing thread never issues flush or fence instructions
// itself. Instead it hands staged cache lines to a background advancer thread
// through this interface:
//
//   * Publish() is the *blocking* handoff — the pre-mutation ordering point
//     of undo logging. The caller's staged log entries (plus header updates)
//     are spliced to the advancer, which flushes them and issues one fence
//     that retires every concurrently waiting thread's publication at once.
//     Only after that fence does Publish return and the caller mutate in
//     place, preserving the "undo entry durable before its target can leak to
//     PM" invariant with far fewer than one fence per transaction.
//   * StageDeferred() is the *non-blocking* handoff for lines that only need
//     durability by epoch close (new values of undo-logged ranges, fresh
//     objects, applied redo targets): the advancer drains them in one pass
//     before persistently retiring the epoch.
//
// The interface lives in src/tx (not src/epoch) so the transaction runtime
// depends only on this abstraction; the concrete implementation (EpochSys) is
// layered above it and injected through TxTarget::epoch.
#ifndef SRC_TX_EPOCH_PORT_H_
#define SRC_TX_EPOCH_PORT_H_

#include <vector>

#include "src/common/status.h"
#include "src/pmem/flush.h"
#include "src/tx/log_format.h"

namespace puddles {

class EpochPort {
 public:
  virtual ~EpochPort() = default;

  // Joins the open epoch at Begin. If the thread's log still holds
  // entries of an earlier, already-closed epoch, blocks until that epoch is
  // persistently retired, then volatile-rearms `head` (and persistently
  // recycles any continuation regions) — so a log never mixes entries from
  // two epochs. Tags `head` with the joined epoch. `chain` arrives seeded
  // with {head}; continuation regions grown by earlier transactions of the
  // same epoch are appended so appends resume at the chain tail.
  virtual puddles::Status JoinTx(LogRegion* head,
                                 std::vector<LogRegion*>* chain) = 0;

  // Blocking delegated publication (see file header). `batch` is left empty.
  virtual void Publish(pmem::FlushBatch* batch) = 0;

  // Non-blocking deferred handoff (see file header). `batch` is left empty.
  virtual void StageDeferred(pmem::FlushBatch* batch) = 0;

  // Ends the transaction's participation in the epoch it joined. `chain` is
  // the transaction's final chain ({head, grown...}); the port carries the
  // grown tail into the epoch's next transaction on this thread.
  virtual void LeaveTx(const std::vector<LogRegion*>& chain) = 0;

  // Waits out and recycles any epoch state still occupying the thread's log
  // (retirement wait + rearm), leaving it empty and untagged — the bridge
  // back to immediate mode, where Begin requires an empty log. No-op when
  // the thread has no pending epoch.
  virtual puddles::Status Quiesce(LogRegion* head) = 0;
};

}  // namespace puddles

#endif  // SRC_TX_EPOCH_PORT_H_
