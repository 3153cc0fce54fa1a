// Rule-based optimization over ProtocolPlan pipelines.
//
// The lowerings emit plans that mirror the declarative text's shape; the
// optimizer then applies the rewrites a query optimizer would — the
// paper's "optimization without touching the specification", now applied
// to the compiled form:
//
//   * predicate pushdown: typed filters and the throttled-tenant anti-join
//     move below the (much more expensive) lock anti-join, so cheap
//     per-row checks shrink the stream first;
//   * rank elision: an ascending-id rank over the id-ordered scan is a
//     no-op and is dropped; for unordered protocols every rank not feeding
//     a limit is dropped (the scheduler dispatches by id anyway);
//   * join elision: a tenants join no rank key reads is dropped.
//
// A starvation boost defines order like a rank but is a stable re-order:
// it never shadows an earlier rank, and per-row drops commute with it
// (its keys come from the full pending universe, not the stream).
//
// Every rule preserves semantics exactly: the lock anti-join judges
// pending-pending conflicts against the full pending universe (not the
// incoming stream), so filters commute with it; ranks/joins are only
// dropped when provably unobservable in the protocol's output contract.

#ifndef DECLSCHED_SCHEDULER_IR_OPTIMIZE_H_
#define DECLSCHED_SCHEDULER_IR_OPTIMIZE_H_

#include "scheduler/ir/protocol_plan.h"

namespace declsched::scheduler::ir {

/// Optimizes `plan` in place. Idempotent.
void OptimizePlan(ProtocolPlan* plan);

}  // namespace declsched::scheduler::ir

#endif  // DECLSCHED_SCHEDULER_IR_OPTIMIZE_H_
