#include "scheduler/ir/vec/vec_executor.h"

namespace declsched::scheduler::ir::vec {

Result<RequestBatch> VecPlanExecutor::Execute(const ProtocolPlan& plan,
                                              const ScheduleContext& context) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("compiled protocol plan has no root");
  }
  RequestStore* store = context.store;
  arena_.Reset();
  chain_.clear();
  for (const PlanNode* node = plan.root.get(); node != nullptr;
       node = node->input.get()) {
    chain_.push_back(node);
  }
  // The mirror refresh is unconditional: even a plan without a scan (which
  // executes over an empty stream, like the scalar executor's empty row
  // vector) may carry a lock anti-join whose pending-conflict universe is
  // the full mirror.
  const PendingColumns& cols = mirror_.RefreshPending(*store);
  const TenantColumns* tenants = nullptr;

  const size_t cap = cols.size();
  int32_t* sel = arena_.AllocArray<int32_t>(cap);
  int32_t* acct = arena_.AllocArray<int32_t>(cap);
  int32_t n = 0;  // a pipeline with no kScanPending streams zero rows

  // One-shot per cycle: the conflict universe is the same full pending set
  // for every anti-join in the pipeline (and for repeat executions it is
  // rebuilt, matching the scalar executor's per-node construction).
  PendingConflicts conflicts{RequestBatch{}};
  bool have_conflicts = false;

  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
    const PlanNode& node = **it;
    switch (node.kind) {
      case PlanNode::Kind::kScanPending: {
        n = ScanLive(cols, sel);
        for (int32_t i = 0; i < n; ++i) acct[i] = -1;
        break;
      }
      case PlanNode::Kind::kFilter: {
        n = FilterSel(cols, node.predicates.data(), node.predicates.size(),
                      sel, acct, n);
        break;
      }
      case PlanNode::Kind::kLockAntiJoin: {
        const LockTable* locks = node.conflicts.NeedsLockTable()
                                     ? &lock_state_.Refresh(*store)
                                     : nullptr;
        const PendingConflicts* pc = nullptr;
        if (node.conflicts.NeedsPendingConflicts()) {
          if (!have_conflicts) {
            BuildPendingConflicts(cols, &conflicts);
            have_conflicts = true;
          }
          pc = &conflicts;
        }
        n = LockAntiJoinSel(cols, node.conflicts, locks, pc, sel, acct, n);
        break;
      }
      case PlanNode::Kind::kThrottleAntiJoin: {
        if (tenants == nullptr) tenants = &mirror_.RefreshTenants(*store);
        n = ThrottleAntiJoinSel(cols, *tenants, sel, acct, n);
        break;
      }
      case PlanNode::Kind::kTenantJoin: {
        if (tenants == nullptr) tenants = &mirror_.RefreshTenants(*store);
        n = TenantJoinSel(cols, *tenants, node.left_outer, sel, acct, n);
        break;
      }
      case PlanNode::Kind::kRank: {
        if (tenants == nullptr) tenants = &mirror_.RefreshTenants(*store);
        RankSel(cols, *tenants, node, sel, acct, n, &arena_);
        break;
      }
      case PlanNode::Kind::kLimit: {
        if (node.limit >= 0 && n > node.limit) {
          n = static_cast<int32_t>(node.limit);
        }
        break;
      }
      case PlanNode::Kind::kStarvationBoost: {
        StarvationBoostSel(cols, context.now.micros(), node.wait_us, sel, acct,
                           n, &arena_);
        break;
      }
    }
  }

  RequestBatch batch;
  batch.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    batch.push_back(cols.MaterializeRow(static_cast<size_t>(sel[i])));
  }
  return batch;
}

}  // namespace declsched::scheduler::ir::vec
