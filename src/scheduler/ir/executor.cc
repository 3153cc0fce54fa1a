#include "scheduler/ir/executor.h"

#include <algorithm>
#include <climits>
#include <map>

namespace declsched::scheduler::ir {

namespace {

bool EvalCompare(CompareKind cmp, int64_t lhs, int64_t rhs) {
  switch (cmp) {
    case CompareKind::kEq: return lhs == rhs;
    case CompareKind::kNe: return lhs != rhs;
    case CompareKind::kLt: return lhs < rhs;
    case CompareKind::kLe: return lhs <= rhs;
    case CompareKind::kGt: return lhs > rhs;
    case CompareKind::kGe: return lhs >= rhs;
  }
  return false;
}

bool EvalPredicate(const FieldPredicate& pred, const Request& r) {
  if (pred.field == RequestField::kOperation) {
    const bool equal = r.op == pred.op_value;
    return pred.cmp == CompareKind::kEq ? equal : !equal;
  }
  int64_t lhs = 0;
  switch (pred.field) {
    case RequestField::kId: lhs = r.id; break;
    case RequestField::kTa: lhs = r.ta; break;
    case RequestField::kIntrata: lhs = r.intrata; break;
    case RequestField::kObject: lhs = r.object; break;
    case RequestField::kPriority: lhs = r.priority; break;
    case RequestField::kDeadline: lhs = r.deadline.micros(); break;
    case RequestField::kArrival: lhs = r.arrival.micros(); break;
    case RequestField::kClient: lhs = r.client; break;
    case RequestField::kTenant: lhs = r.tenant; break;
    case RequestField::kOperation: break;  // handled above
  }
  return EvalCompare(pred.cmp, lhs, pred.value);
}

/// True if `r` is blocked under `rules` given the history locks and the
/// pending-pending conflict summary. The generalization of FilterSs2pl /
/// FilterReadCommitted to any rule combination the lowerings produce.
bool Blocked(const ConflictRules& rules, const LockTable& locks,
             const PendingConflicts& conflicts, const Request& r) {
  const bool is_write = r.op == txn::OpType::kWrite;
  if ((rules.wlock_blocks_all || (is_write && rules.wlock_blocks_writes)) &&
      LockedByOther(locks.wlocks, r.object, r.ta)) {
    return true;
  }
  if (is_write && rules.rlock_blocks_writes &&
      LockedByOther(locks.rlocks, r.object, r.ta)) {
    return true;
  }
  if ((rules.pending_write_blocks_all ||
       (is_write && rules.pending_write_blocks_writes)) &&
      conflicts.OlderWriteExists(r)) {
    return true;
  }
  if (is_write && rules.pending_any_blocks_writes &&
      conflicts.OlderRequestExists(r)) {
    return true;
  }
  return false;
}

int64_t RankValue(RankSource source, const Request& r, const TenantAcct* acct) {
  switch (source) {
    case RankSource::kId: return r.id;
    case RankSource::kPriority: return r.priority;
    case RankSource::kDeadline: return r.deadline.micros();
    case RankSource::kDeadlineIsZero: return r.deadline == SimTime() ? 1 : 0;
    case RankSource::kTenant: return r.tenant;
    case RankSource::kTenantVtime: return acct != nullptr ? acct->vtime : 0;
    case RankSource::kTenantRound: return acct != nullptr ? acct->round : 0;
  }
  return 0;
}

}  // namespace

Status PlanExecutor::Apply(const PlanNode& node, const ScheduleContext& context,
                           std::vector<RowRef>* rows) {
  if (node.input != nullptr) {
    DS_RETURN_NOT_OK(Apply(*node.input, context, rows));
  }
  RequestStore* store = context.store;
  switch (node.kind) {
    case PlanNode::Kind::kScanPending: {
      const auto& mirror = store->pending_by_id();
      rows->clear();
      rows->reserve(mirror.size());
      for (const auto& [id, request] : mirror) {
        rows->push_back(RowRef{&request, nullptr});
      }
      return Status::OK();
    }
    case PlanNode::Kind::kFilter: {
      auto out = rows->begin();
      for (const RowRef& row : *rows) {
        bool keep = true;
        for (const FieldPredicate& pred : node.predicates) {
          if (!EvalPredicate(pred, *row.req)) {
            keep = false;
            break;
          }
        }
        if (keep) *out++ = row;
      }
      rows->erase(out, rows->end());
      return Status::OK();
    }
    case PlanNode::Kind::kLockAntiJoin: {
      // History locks from the incremental state (O(1) when the hooks kept
      // it synced, rebuild otherwise); pending-pending conflicts always
      // against the full pending universe, as the declarative texts state.
      // Either side is skipped entirely when no rule consults it.
      static const LockTable kNoLocks;
      static const PendingConflicts kNoConflicts{RequestBatch{}};
      const LockTable& locks = node.conflicts.NeedsLockTable()
                                   ? lock_state_.Refresh(*store)
                                   : kNoLocks;
      const PendingConflicts conflicts =
          node.conflicts.NeedsPendingConflicts()
              ? PendingConflicts(store->pending_by_id())
              : kNoConflicts;
      auto out = rows->begin();
      for (const RowRef& row : *rows) {
        if (!Blocked(node.conflicts, locks, conflicts, *row.req)) *out++ = row;
      }
      rows->erase(out, rows->end());
      return Status::OK();
    }
    case PlanNode::Kind::kThrottleAntiJoin: {
      const auto& tenants = store->tenants_by_id();
      // Memoize the last tenant looked up: batches run in id order, which
      // clusters same-tenant requests in practice.
      int64_t last_tenant = 0;
      bool last_throttled = false;
      bool have_last = false;
      auto out = rows->begin();
      for (const RowRef& row : *rows) {
        const int64_t tenant = row.req->tenant;
        if (!have_last || tenant != last_tenant) {
          auto it = tenants.find(tenant);
          last_throttled = it != tenants.end() && it->second.Throttled();
          last_tenant = tenant;
          have_last = true;
        }
        if (!last_throttled) *out++ = row;
      }
      rows->erase(out, rows->end());
      return Status::OK();
    }
    case PlanNode::Kind::kTenantJoin: {
      const auto& tenants = store->tenants_by_id();
      auto out = rows->begin();
      for (RowRef row : *rows) {
        auto it = tenants.find(row.req->tenant);
        if (it != tenants.end()) {
          row.acct = &it->second;
        } else if (!node.left_outer) {
          continue;  // inner join: unknown tenant drops the request
        }
        *out++ = row;
      }
      rows->erase(out, rows->end());
      return Status::OK();
    }
    case PlanNode::Kind::kRank: {
      std::sort(rows->begin(), rows->end(),
                [&node](const RowRef& a, const RowRef& b) {
                  if (node.missing_acct_last &&
                      (a.acct == nullptr) != (b.acct == nullptr)) {
                    return b.acct == nullptr;
                  }
                  if (!node.missing_acct_last || a.acct != nullptr) {
                    for (const RankKey& key : node.keys) {
                      const int64_t va = RankValue(key.source, *a.req, a.acct);
                      const int64_t vb = RankValue(key.source, *b.req, b.acct);
                      if (va != vb) return va < vb;
                    }
                  }
                  return a.req->id < b.req->id;
                });
      return Status::OK();
    }
    case PlanNode::Kind::kLimit: {
      if (node.limit >= 0 &&
          rows->size() > static_cast<size_t>(node.limit)) {
        rows->resize(static_cast<size_t>(node.limit));
      }
      return Status::OK();
    }
    case PlanNode::Kind::kStarvationBoost: {
      // Oldest pending arrival per tenant over the full pending universe.
      // Min, not first-sight: preassigned ids from concurrent submitters
      // need not arrive in id order.
      std::map<int64_t, int64_t> oldest;
      for (const auto& [id, r] : store->pending_by_id()) {
        auto [it, inserted] = oldest.emplace(r.tenant, r.arrival.micros());
        if (!inserted && r.arrival.micros() < it->second) {
          it->second = r.arrival.micros();
        }
      }
      bool any_starved = false;
      for (auto& [tenant, arrival] : oldest) {
        if (context.now.micros() - arrival >= node.wait_us) {
          any_starved = true;
        } else {
          arrival = INT64_MAX;  // not starved: after every starved tenant
        }
      }
      if (!any_starved) return Status::OK();
      std::stable_sort(rows->begin(), rows->end(),
                       [&oldest](const RowRef& a, const RowRef& b) {
                         return oldest[a.req->tenant] < oldest[b.req->tenant];
                       });
      return Status::OK();
    }
  }
  return Status::Internal("unknown plan node kind");
}

Result<RequestBatch> PlanExecutor::Execute(const ProtocolPlan& plan,
                                           const ScheduleContext& context) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("compiled protocol plan has no root");
  }
  std::vector<RowRef> rows;
  DS_RETURN_NOT_OK(Apply(*plan.root, context, &rows));
  RequestBatch batch;
  batch.reserve(rows.size());
  for (const RowRef& row : rows) batch.push_back(*row.req);
  return batch;
}

}  // namespace declsched::scheduler::ir
