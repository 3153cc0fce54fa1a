#include "scheduler/ir/protocol_plan.h"

namespace declsched::scheduler::ir {

namespace {

template <typename Fn>
bool AnyNode(const PlanNode* node, Fn&& pred) {
  for (; node != nullptr; node = node->input.get()) {
    if (pred(*node)) return true;
  }
  return false;
}

}  // namespace

bool ProtocolPlan::NeedsLockTable() const {
  return AnyNode(root.get(), [](const PlanNode& n) {
    return n.kind == PlanNode::Kind::kLockAntiJoin &&
           n.conflicts.NeedsLockTable();
  });
}

bool ProtocolPlan::NeedsTenants() const {
  return AnyNode(root.get(), [](const PlanNode& n) {
    return n.kind == PlanNode::Kind::kTenantJoin ||
           n.kind == PlanNode::Kind::kThrottleAntiJoin;
  });
}

bool ProtocolPlan::MayReorder() const {
  // Only rank and starvation-boost nodes disturb the scan's ascending-id
  // order; filters, anti-joins, joins and limits all preserve it.
  return AnyNode(root.get(), [](const PlanNode& n) {
    return n.kind == PlanNode::Kind::kRank ||
           n.kind == PlanNode::Kind::kStarvationBoost;
  });
}

}  // namespace declsched::scheduler::ir
