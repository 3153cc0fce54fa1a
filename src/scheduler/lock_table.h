// Lock analysis over the history relation — the lock side of every
// compiled protocol's lock anti-join.
//
// A LockTable is the set of locks implied by history under SS2PL: a write
// row of an unfinished transaction write-locks its object; a read row
// read-locks it unless the same transaction also wrote it. BuildLockTable()
// derives it from scratch by scanning history; LockTableState maintains the
// same table *incrementally* from the scheduler's delta hooks (requests
// entering history, transactions retired by GC), so a cycle costs O(delta)
// instead of O(history). The state is epoch-synced against the store: any
// history mutation it was not told about is detected on the next Refresh()
// and answered with a from-scratch rebuild, so out-of-band store edits
// degrade performance, never correctness.
//
// Thread ownership: a LockTableState is owned by a Protocol instance and
// inherits its threading contract — hooks and Refresh() run on the one
// cycle thread of the scheduler (shard) that owns the store; nothing here
// locks. Epoch invariant it relies on: the store bumps its history epoch
// exactly once per mutating call, the scheduler narrates that mutation
// through exactly one hook immediately after making it, and the paired
// content-version counter moves on every table edit however invoked —
// which is what lets ApplyHistoryAppend/ApplyFinished accept a delta iff
// the store is exactly one narrated step ahead, and Refresh() catch
// everything else (including a cross-shard escrow mirror applied without
// narration) with a rebuild.

#ifndef DECLSCHED_SCHEDULER_LOCK_TABLE_H_
#define DECLSCHED_SCHEDULER_LOCK_TABLE_H_

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "scheduler/request.h"
#include "scheduler/request_store.h"
#include "txn/types.h"

namespace declsched::scheduler {

/// Locks implied by the history relation. Holder lists are tiny (almost
/// always one transaction), so flat vectors beat per-object hash sets by a
/// wide margin.
struct LockTable {
  std::unordered_set<txn::TxnId> finished;
  std::unordered_map<txn::ObjectId, std::vector<txn::TxnId>> wlocks;
  std::unordered_map<txn::ObjectId, std::vector<txn::TxnId>> rlocks;
};

/// From-scratch derivation: one full scan of the store's history table.
/// The reference implementation the incremental state is tested against.
LockTable BuildLockTable(RequestStore* store);

/// Incrementally maintained LockTable. Owned by a protocol instance; fed by
/// the scheduler's delta hooks; consulted once per cycle via Refresh().
///
/// Sync contract: each RequestStore history mutation bumps the store's
/// history epoch exactly once, and the scheduler narrates it through
/// exactly one hook, immediately. ApplyHistoryAppend/ApplyFinished accept a
/// delta only when the store is exactly one epoch ahead of the last synced
/// state; anything else (missed mutation, a fresh instance after
/// SwitchProtocol) marks the state unsynced and the next Refresh() rebuilds
/// from scratch. The epoch is paired with the history table's content
/// version (which moves on *every* edit, epoch-bumping or not), so
/// out-of-band writes — ad-hoc SQL DML, a store error path that bailed
/// early — are also caught at the next Refresh().
class LockTableState {
 public:
  /// The lock table answering for the store's current history. O(1) when
  /// synced; full history scan (counted in full_rebuilds()) when not.
  const LockTable& Refresh(const RequestStore& store);

  /// Delta: `batch` rows just entered history (scheduled requests, or an
  /// abort marker injected for a deadlock victim).
  void ApplyHistoryAppend(const RequestBatch& batch, const RequestStore& store);

  /// Delta: GC just retired every history row of `txns` (all terminated).
  void ApplyFinished(const std::vector<txn::TxnId>& txns,
                     const RequestStore& store);

  /// True if the next Refresh() can answer without a rebuild.
  bool synced_with(const RequestStore& store) const {
    return synced_epoch_ != kUnsynced &&
           synced_epoch_ == store.history_epoch() &&
           synced_version_ == store.history_version();
  }

  int64_t full_rebuilds() const { return full_rebuilds_; }
  int64_t deltas_applied() const { return deltas_applied_; }

 private:
  /// Sentinel: below any real store epoch (stores start at 1).
  static constexpr uint64_t kUnsynced = 0;
  /// Passed to AcceptDelta when the caller cannot predict the post-mutation
  /// table version (GC does not narrate its row count).
  static constexpr uint64_t kAnyVersion = ~uint64_t{0};

  struct TxnLocks {
    std::vector<txn::ObjectId> wlocked;
    std::vector<txn::ObjectId> rlocked;
  };

  /// True if the store is exactly one narrated mutation ahead (and, when
  /// predictable, the table version moved by exactly that mutation);
  /// otherwise drops to unsynced.
  bool AcceptDelta(const RequestStore& store, uint64_t expected_version);
  void ApplyRow(txn::OpType op, txn::TxnId ta, txn::ObjectId object);
  void ReleaseTransaction(txn::TxnId ta);
  void Rebuild(const RequestStore& store);

  LockTable table_;
  /// Objects each unfinished transaction holds locks on — what makes
  /// releasing a finished transaction O(its own locks).
  std::unordered_map<txn::TxnId, TxnLocks> txn_locks_;
  uint64_t synced_epoch_ = kUnsynced;
  /// History table content version at the last sync point.
  uint64_t synced_version_ = 0;
  int64_t full_rebuilds_ = 0;
  int64_t deltas_applied_ = 0;
};

/// Per-object oldest pending transaction (any op / writes only) — the
/// typed form of the declarative pending-pending conflict rules: a request
/// is blocked by any strictly older pending request on its object when
/// either side is a write. Built once per qualification pass from the full
/// pending set; shared by FilterSs2pl and the IR executors.
struct PendingConflicts {
  std::unordered_map<txn::ObjectId, txn::TxnId> oldest_any;
  std::unordered_map<txn::ObjectId, txn::TxnId> oldest_write;

  explicit PendingConflicts(const RequestBatch& pending);
  /// Same derivation straight off the store's typed pending mirror.
  explicit PendingConflicts(const std::map<int64_t, Request>& pending_by_id);

  bool OlderWriteExists(const Request& r) const {
    auto it = oldest_write.find(r.object);
    return it != oldest_write.end() && it->second < r.ta;
  }
  bool OlderRequestExists(const Request& r) const {
    auto it = oldest_any.find(r.object);
    return it != oldest_any.end() && it->second < r.ta;
  }

 private:
  void Add(const Request& r);
};

/// True if any transaction other than `self` appears in the lock set.
bool LockedByOther(
    const std::unordered_map<txn::ObjectId, std::vector<txn::TxnId>>& locks,
    txn::ObjectId object, txn::TxnId self);

/// SS2PL qualification of a complete pending set: drops requests blocked
/// by a lock of another transaction or by an older conflicting pending
/// request — the paper's Listing 1 as one C++ pass, for custom backends.
RequestBatch FilterSs2pl(const LockTable& locks, const RequestBatch& pending);

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_LOCK_TABLE_H_
