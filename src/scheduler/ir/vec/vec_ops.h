// Batch operators of the vectorized executor — one kernel per hot pipeline
// stage, all working on selection vectors over PendingColumns.
//
// A selection vector is an int32 index array into the columns (live rows
// only, pipeline order); every qualifying kernel compacts it in place with
// the branch-free `sel[k] = s; k += keep` idiom, so the inner loops carry
// no unpredictable branches. `acct` is the optional parallel array of
// tenant-row indices a kTenantJoin attaches (-1 = no matching tenants row,
// mirroring the scalar executor's null acct pointer); kernels that compact
// the selection compact it in lockstep when present.
//
// Semantics are bit-for-bit the scalar PlanExecutor's — the differential
// suite holds the two to dispatch-order-exact equality — so every predicate
// evaluation, conflict rule, null-acct convention, and tie-break below
// mirrors executor.cc precisely.

#ifndef DECLSCHED_SCHEDULER_IR_VEC_VEC_OPS_H_
#define DECLSCHED_SCHEDULER_IR_VEC_VEC_OPS_H_

#include <cstdint>

#include "scheduler/ir/protocol_plan.h"
#include "scheduler/ir/vec/arena.h"
#include "scheduler/ir/vec/column_batch.h"
#include "scheduler/lock_table.h"

namespace declsched::scheduler::ir::vec {

/// Fills `sel` with every live row index, ascending (the id-ordered scan).
/// `sel` must hold cols.size() entries; returns the live count.
int32_t ScanLive(const PendingColumns& cols, int32_t* sel);

/// One ANDed predicate conjunction over the selection; compacts `sel` (and
/// `acct` when non-null) and returns the new count.
int32_t FilterSel(const PendingColumns& cols, const FieldPredicate* preds,
                  size_t num_preds, int32_t* sel, int32_t* acct, int32_t n);

/// Pending-pending conflict summary over every live row — the full pending
/// universe, exactly what the scalar executor derives from the store's
/// typed mirror (termination markers included; their kNoObject entries only
/// ever match other markers).
void BuildPendingConflicts(const PendingColumns& cols, PendingConflicts* out);

/// Anti-join against the blocked-request relation implied by `rules`.
/// `locks`/`conflicts` may be null when no rule consults that side.
int32_t LockAntiJoinSel(const PendingColumns& cols, const ConflictRules& rules,
                        const LockTable* locks,
                        const PendingConflicts* conflicts, int32_t* sel,
                        int32_t* acct, int32_t n);

/// Anti-join against the throttled-tenant set (binary-search probe with a
/// last-tenant memo: id order clusters same-tenant requests).
int32_t ThrottleAntiJoinSel(const PendingColumns& cols,
                            const TenantColumns& tenants, int32_t* sel,
                            int32_t* acct, int32_t n);

/// Join with the tenants relation: fills `acct` with the tenant-row index
/// of each selected request. Inner join drops requests of unknown tenants;
/// left-outer keeps them with their prior acct (none = -1), matching the
/// scalar executor row-ref semantics.
int32_t TenantJoinSel(const PendingColumns& cols, const TenantColumns& tenants,
                      bool left_outer, int32_t* sel, int32_t* acct, int32_t n);

/// Sorts the selection by the rank node's keys (ties broken by ascending
/// id; missing-acct rows last when the node says so). Gathers key columns
/// into `arena` scratch first so the comparator touches dense arrays.
/// Permutes `acct` in lockstep when non-null.
void RankSel(const PendingColumns& cols, const TenantColumns& tenants,
             const PlanNode& node, int32_t* sel, int32_t* acct, int32_t n,
             Arena* arena);

/// Starvation guard: stable re-order of the selection that moves requests
/// of tenants whose oldest live pending arrival is at least `wait_us` older
/// than `now_us` to the front, most-starved tenant first (the scalar
/// executor's kStarvationBoost). Permutes `acct` in lockstep when non-null.
void StarvationBoostSel(const PendingColumns& cols, int64_t now_us,
                        int64_t wait_us, int32_t* sel, int32_t* acct,
                        int32_t n, Arena* arena);

}  // namespace declsched::scheduler::ir::vec

#endif  // DECLSCHED_SCHEDULER_IR_VEC_VEC_OPS_H_
