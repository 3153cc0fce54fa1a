// ProtocolPlan: the unified relational IR every protocol front-end lowers
// into — SQL, Datalog, and composed stage pipelines.
//
// A protocol, whichever language states it, is a linear relational pipeline
// over the scheduler's typed state: scan the pending relation, anti-join
// away requests blocked by history-implied locks or by older pending
// conflicts, anti-join away requests of throttled tenants, join tenant
// accounting for fairness keys, rank, limit. SQL SELECTs (via the planner's
// physical plan), Datalog programs (via the rule AST) and composed stage
// pipelines (stage by stage) are *lowered* into this IR once at compile
// time; every cycle then executes the plan directly over RequestStore's
// typed mirrors and an incremental LockTableState — no per-row Value
// decode, no EDB copy, no re-derivation of lock state. The interpreted
// engines stay in-tree behind the "interp:" spec-text prefix as
// differential oracles.
//
// The IR is deliberately small: it names the relational idioms scheduling
// protocols actually use (the paper's Listing 1 family and its SLA/QoS
// extensions), not all of SQL; only the starvation guard, which has no
// relational spelling, is an operator of its own. Lowering returns
// Unsupported for anything outside the dialect and the backend falls back
// to the interpreted engine, so arbitrary hand-written protocol queries
// keep working — they just do not get the compiled fast path.

#ifndef DECLSCHED_SCHEDULER_IR_PROTOCOL_PLAN_H_
#define DECLSCHED_SCHEDULER_IR_PROTOCOL_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "txn/types.h"

namespace declsched::scheduler::ir {

/// Which pending requests a lock anti-join drops: the six conflict idioms
/// the declarative formulations express (SS2PL sets four of them, weaker
/// consistency levels subsets). "wlock"/"rlock" are locks another
/// transaction holds per the history relation; "pending" rules are the
/// pending-pending ordering conflicts judged against the full pending set.
struct ConflictRules {
  /// A foreign write lock blocks every operation on the object.
  bool wlock_blocks_all = false;
  /// A foreign write lock blocks writes on the object.
  bool wlock_blocks_writes = false;
  /// A foreign read lock blocks writes on the object.
  bool rlock_blocks_writes = false;
  /// An older pending write on the object blocks every operation.
  bool pending_write_blocks_all = false;
  /// An older pending write on the object blocks writes.
  bool pending_write_blocks_writes = false;
  /// Any older pending request on the object blocks writes.
  bool pending_any_blocks_writes = false;

  bool Any() const {
    return wlock_blocks_all || wlock_blocks_writes || rlock_blocks_writes ||
           pending_write_blocks_all || pending_write_blocks_writes ||
           pending_any_blocks_writes;
  }
  /// True if any rule consults history-implied locks (vs. pending-only).
  bool NeedsLockTable() const {
    return wlock_blocks_all || wlock_blocks_writes || rlock_blocks_writes;
  }
  /// True if any rule consults the pending-pending conflict summary.
  bool NeedsPendingConflicts() const {
    return pending_write_blocks_all || pending_write_blocks_writes ||
           pending_any_blocks_writes;
  }

  void Merge(const ConflictRules& other) {
    wlock_blocks_all |= other.wlock_blocks_all;
    wlock_blocks_writes |= other.wlock_blocks_writes;
    rlock_blocks_writes |= other.rlock_blocks_writes;
    pending_write_blocks_all |= other.pending_write_blocks_all;
    pending_write_blocks_writes |= other.pending_write_blocks_writes;
    pending_any_blocks_writes |= other.pending_any_blocks_writes;
  }

  /// The paper's Listing 1 semantics (strong strict two-phase locking).
  static ConflictRules Ss2pl() {
    ConflictRules r;
    r.wlock_blocks_all = true;
    r.rlock_blocks_writes = true;
    r.pending_write_blocks_all = true;
    r.pending_any_blocks_writes = true;
    return r;
  }
  /// Relaxed read-committed: only writes block, only on write conflicts.
  static ConflictRules ReadCommitted() {
    ConflictRules r;
    r.wlock_blocks_writes = true;
    r.pending_write_blocks_writes = true;
    return r;
  }
};

/// One component of a rank node's sort key, always ascending (the dialect
/// of every registry protocol; descending keys are not lowered).
enum class RankSource : uint8_t {
  kId,             // request id (the FCFS / tie-break key)
  kPriority,       // SLA priority (0 = premium)
  kDeadline,       // absolute deadline micros
  kDeadlineIsZero, // 1 if no deadline — orders "no deadline" last (EDF)
  kTenant,         // submitting tenant id (drr round-robin component)
  kTenantVtime,    // joined tenants.vtime (wfq)
  kTenantRound,    // joined tenants.round (drr)
};

struct RankKey {
  RankSource source = RankSource::kId;
};

/// Typed single-column comparisons over the request row — what generic SQL
/// WHERE conjuncts on the requests relation lower to.
enum class CompareKind : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

enum class RequestField : uint8_t {
  kId, kTa, kIntrata, kObject, kPriority, kDeadline, kArrival, kClient,
  kTenant, kOperation,
};

struct FieldPredicate {
  RequestField field = RequestField::kId;
  CompareKind cmp = CompareKind::kEq;
  /// Comparison constant; for kOperation the decoded op is in `op_value`.
  int64_t value = 0;
  txn::OpType op_value = txn::OpType::kRead;
};

/// One operator of a compiled protocol pipeline. The pipeline is linear —
/// every node transforms the request stream of its input; joins and
/// anti-joins name their right-hand relation implicitly (the lock-conflict
/// relation derived from LockTableState, the throttled-tenant set, the
/// tenants accounting relation), which is exactly what lets the executor
/// run them against typed state instead of materialized rows.
struct PlanNode {
  enum class Kind : uint8_t {
    /// Source: the pending `requests` relation via the typed id-ordered
    /// mirror (so the stream starts in ascending-id order for free).
    kScanPending,
    /// Conjunction of typed predicates over request fields.
    kFilter,
    /// Anti-join against the blocked-request relation implied by
    /// `conflicts` — history locks come from the incremental
    /// LockTableState, pending-pending conflicts from the full pending
    /// universe (not the possibly-filtered stream, matching the
    /// declarative texts which derive `blocked` from the whole relation).
    kLockAntiJoin,
    /// Anti-join against the throttled-tenant set (TenantAcct::Throttled()
    /// over the tenants mirror) — the NOT IN / !throttled(T) idiom.
    kThrottleAntiJoin,
    /// Join with the `tenants` accounting relation on tenant id, attaching
    /// the TenantAcct needed by fairness rank keys. Inner join drops
    /// requests of unknown tenants (SQL `requests, tenants WHERE
    /// r.tenant = t.tenant`); left-outer keeps them with no acct (the
    /// Datalog rank-relation idiom, which sorts them last).
    kTenantJoin,
    /// Sort by `keys`, ties broken by ascending id.
    kRank,
    /// Keep the first `limit` requests of the stream.
    kLimit,
    /// Starvation guard: a stable re-order that moves requests of tenants
    /// whose oldest pending request (judged against the full pending
    /// universe, like the lock anti-join) has waited >= `wait_us` micros
    /// at `ScheduleContext::now` to the front, most-starved tenant first.
    /// Everything else keeps its stream order. No SQL or Datalog form.
    kStarvationBoost,
  };

  Kind kind = Kind::kScanPending;
  std::unique_ptr<PlanNode> input;  // null iff kScanPending

  ConflictRules conflicts;                 // kLockAntiJoin
  std::vector<FieldPredicate> predicates;  // kFilter (ANDed)
  bool left_outer = false;                 // kTenantJoin
  std::vector<RankKey> keys;               // kRank
  /// kRank: rows without a joined TenantAcct order after all rows with one
  /// (Datalog: ids missing from the rank relation sort last).
  bool missing_acct_last = false;
  int64_t limit = -1;                      // kLimit
  int64_t wait_us = 0;                     // kStarvationBoost

  static std::unique_ptr<PlanNode> Make(Kind kind) {
    auto n = std::make_unique<PlanNode>();
    n->kind = kind;
    return n;
  }
};

/// A fully lowered protocol: the operator pipeline plus what the executor
/// must know about it up front.
struct ProtocolPlan {
  std::unique_ptr<PlanNode> root;
  /// Which front-end produced it ("sql", "datalog" or "pipeline") — for
  /// EXPLAIN output.
  std::string source;
  /// True if a kRank (or kStarvationBoost) node defines the dispatch
  /// order; otherwise the protocol dispatches by ascending id (like every
  /// unordered protocol).
  bool ordered = false;

  /// True if any node consults history-implied locks: the owning protocol
  /// must then feed the executor's LockTableState from the delta hooks.
  bool NeedsLockTable() const;
  /// True if any node reads the tenants accounting relation.
  bool NeedsTenants() const;
  /// True if the pipeline may emit something other than ascending-id order
  /// (it contains a rank or starvation-boost node; every other operator
  /// preserves the id-ordered scan).
  bool MayReorder() const;
};

}  // namespace declsched::scheduler::ir

#endif  // DECLSCHED_SCHEDULER_IR_PROTOCOL_PLAN_H_
