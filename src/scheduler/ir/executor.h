// PlanExecutor: runs a compiled ProtocolPlan over the store's typed state.
//
// One executor is owned by one compiled protocol instance and inherits its
// threading contract (the owning scheduler's cycle thread). It carries the
// protocol's incremental LockTableState: the owning protocol forwards the
// scheduler's delta hooks here, so a cycle's lock analysis costs O(delta),
// and the epoch/content-version staleness handshake answers unnarrated
// store edits with a from-scratch rebuild, never a stale result.
//
// Execution walks the pipeline over a stream of row refs (pointer to the
// mirror's Request plus an optional pointer to the joined TenantAcct):
// no Value decode, no row materialization until the final output copy.

#ifndef DECLSCHED_SCHEDULER_IR_EXECUTOR_H_
#define DECLSCHED_SCHEDULER_IR_EXECUTOR_H_

#include <vector>

#include "common/result.h"
#include "scheduler/ir/protocol_plan.h"
#include "scheduler/lock_table.h"
#include "scheduler/protocol.h"

namespace declsched::scheduler::ir {

class PlanExecutor {
 public:
  /// Evaluates `plan` against the context's store. Output order: the rank
  /// node's order if the plan has one, ascending id otherwise.
  Result<RequestBatch> Execute(const ProtocolPlan& plan,
                               const ScheduleContext& context);

  /// The incremental lock state (for delta forwarding and for tests
  /// asserting the O(delta) claim via its rebuild counters).
  LockTableState& lock_state() { return lock_state_; }
  const LockTableState& lock_state() const { return lock_state_; }

 private:
  /// A request flowing through the pipeline; `acct` is attached by a
  /// kTenantJoin node (null before one, and after a left-outer join with
  /// no matching tenants row).
  struct RowRef {
    const Request* req = nullptr;
    const TenantAcct* acct = nullptr;
  };

  Status Apply(const PlanNode& node, const ScheduleContext& context,
               std::vector<RowRef>* rows);

  LockTableState lock_state_;
};

}  // namespace declsched::scheduler::ir

#endif  // DECLSCHED_SCHEDULER_IR_EXECUTOR_H_
