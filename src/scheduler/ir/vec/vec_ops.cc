#include "scheduler/ir/vec/vec_ops.h"

#include <algorithm>
#include <climits>
#include <map>

namespace declsched::scheduler::ir::vec {

namespace {

/// Compacts one predicate over the selection without branching on the
/// outcome: the comparison kind is hoisted out of the loop, the keep bit
/// advances the write cursor.
template <typename KeepFn>
int32_t CompactSel(int32_t* sel, int32_t* acct, int32_t n, KeepFn keep) {
  int32_t k = 0;
  if (acct == nullptr) {
    for (int32_t i = 0; i < n; ++i) {
      const int32_t s = sel[i];
      sel[k] = s;
      k += keep(i, s) ? 1 : 0;
    }
  } else {
    for (int32_t i = 0; i < n; ++i) {
      const int32_t s = sel[i];
      sel[k] = s;
      acct[k] = acct[i];
      k += keep(i, s) ? 1 : 0;
    }
  }
  return k;
}

int32_t FilterOnePredicate(const PendingColumns& cols,
                           const FieldPredicate& pred, int32_t* sel,
                           int32_t* acct, int32_t n) {
  if (pred.field == RequestField::kOperation) {
    // Operation predicates only lower as eq/ne (executor.cc's dialect).
    const uint8_t want = static_cast<uint8_t>(pred.op_value);
    const uint8_t* op = cols.op.data();
    if (pred.cmp == CompareKind::kEq) {
      return CompactSel(sel, acct, n,
                        [op, want](int32_t, int32_t s) { return op[s] == want; });
    }
    return CompactSel(sel, acct, n,
                      [op, want](int32_t, int32_t s) { return op[s] != want; });
  }
  const int64_t* col = cols.ColumnFor(pred.field);
  const int64_t v = pred.value;
  switch (pred.cmp) {
    case CompareKind::kEq:
      return CompactSel(sel, acct, n,
                        [col, v](int32_t, int32_t s) { return col[s] == v; });
    case CompareKind::kNe:
      return CompactSel(sel, acct, n,
                        [col, v](int32_t, int32_t s) { return col[s] != v; });
    case CompareKind::kLt:
      return CompactSel(sel, acct, n,
                        [col, v](int32_t, int32_t s) { return col[s] < v; });
    case CompareKind::kLe:
      return CompactSel(sel, acct, n,
                        [col, v](int32_t, int32_t s) { return col[s] <= v; });
    case CompareKind::kGt:
      return CompactSel(sel, acct, n,
                        [col, v](int32_t, int32_t s) { return col[s] > v; });
    case CompareKind::kGe:
      return CompactSel(sel, acct, n,
                        [col, v](int32_t, int32_t s) { return col[s] >= v; });
  }
  return n;
}

/// Reorders `sel` (and `acct` in lockstep when non-null) by the position
/// permutation `perm`, through arena scratch so a later node still sees
/// aligned arrays.
void ApplyPermutation(const int32_t* perm, int32_t* sel, int32_t* acct,
                      int32_t n, Arena* arena) {
  int32_t* tmp = arena->AllocArray<int32_t>(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) tmp[i] = sel[perm[i]];
  std::copy(tmp, tmp + n, sel);
  if (acct != nullptr) {
    for (int32_t i = 0; i < n; ++i) tmp[i] = acct[perm[i]];
    std::copy(tmp, tmp + n, acct);
  }
}

}  // namespace

int32_t ScanLive(const PendingColumns& cols, int32_t* sel) {
  const size_t n = cols.size();
  const uint8_t* dead = cols.dead.data();
  int32_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    sel[k] = static_cast<int32_t>(i);
    k += dead[i] ? 0 : 1;
  }
  return k;
}

int32_t FilterSel(const PendingColumns& cols, const FieldPredicate* preds,
                  size_t num_preds, int32_t* sel, int32_t* acct, int32_t n) {
  for (size_t p = 0; p < num_preds && n > 0; ++p) {
    n = FilterOnePredicate(cols, preds[p], sel, acct, n);
  }
  return n;
}

void BuildPendingConflicts(const PendingColumns& cols, PendingConflicts* out) {
  const size_t n = cols.size();
  for (size_t i = 0; i < n; ++i) {
    if (cols.dead[i]) continue;
    const int64_t object = cols.object[i];
    const int64_t ta = cols.ta[i];
    auto [it, inserted] = out->oldest_any.emplace(object, ta);
    if (!inserted && ta < it->second) it->second = ta;
    if (static_cast<txn::OpType>(cols.op[i]) == txn::OpType::kWrite) {
      auto [wit, winserted] = out->oldest_write.emplace(object, ta);
      if (!winserted && ta < wit->second) wit->second = ta;
    }
  }
}

int32_t LockAntiJoinSel(const PendingColumns& cols, const ConflictRules& rules,
                        const LockTable* locks,
                        const PendingConflicts* conflicts, int32_t* sel,
                        int32_t* acct, int32_t n) {
  const uint8_t* op = cols.op.data();
  const int64_t* object = cols.object.data();
  const int64_t* ta = cols.ta.data();
  const uint8_t write = static_cast<uint8_t>(txn::OpType::kWrite);
  return CompactSel(sel, acct, n, [&](int32_t, int32_t s) {
    const bool is_write = op[s] == write;
    if (locks != nullptr) {
      if ((rules.wlock_blocks_all || (is_write && rules.wlock_blocks_writes)) &&
          LockedByOther(locks->wlocks, object[s], ta[s])) {
        return false;
      }
      if (is_write && rules.rlock_blocks_writes &&
          LockedByOther(locks->rlocks, object[s], ta[s])) {
        return false;
      }
    }
    if (conflicts != nullptr) {
      if (rules.pending_write_blocks_all ||
          (is_write && rules.pending_write_blocks_writes)) {
        auto it = conflicts->oldest_write.find(object[s]);
        if (it != conflicts->oldest_write.end() && it->second < ta[s]) {
          return false;
        }
      }
      if (is_write && rules.pending_any_blocks_writes) {
        auto it = conflicts->oldest_any.find(object[s]);
        if (it != conflicts->oldest_any.end() && it->second < ta[s]) {
          return false;
        }
      }
    }
    return true;
  });
}

int32_t ThrottleAntiJoinSel(const PendingColumns& cols,
                            const TenantColumns& tenants, int32_t* sel,
                            int32_t* acct, int32_t n) {
  const int64_t* tenant = cols.tenant.data();
  // Memoize the last tenant probed: selections run in id order, which
  // clusters same-tenant requests in practice (same as the scalar path).
  int64_t last_tenant = 0;
  bool last_throttled = false;
  bool have_last = false;
  return CompactSel(sel, acct, n, [&](int32_t, int32_t s) {
    const int64_t t = tenant[s];
    if (!have_last || t != last_tenant) {
      const int32_t row = tenants.Find(t);
      last_throttled = row >= 0 && tenants.throttled[row] != 0;
      last_tenant = t;
      have_last = true;
    }
    return !last_throttled;
  });
}

int32_t TenantJoinSel(const PendingColumns& cols, const TenantColumns& tenants,
                      bool left_outer, int32_t* sel, int32_t* acct, int32_t n) {
  const int64_t* tenant = cols.tenant.data();
  int64_t last_tenant = 0;
  int32_t last_row = -1;
  bool have_last = false;
  int32_t k = 0;
  for (int32_t i = 0; i < n; ++i) {
    const int32_t s = sel[i];
    const int64_t t = tenant[s];
    if (!have_last || t != last_tenant) {
      last_row = tenants.Find(t);
      last_tenant = t;
      have_last = true;
    }
    if (last_row >= 0) {
      sel[k] = s;
      acct[k] = last_row;
      ++k;
    } else if (left_outer) {
      // Unknown tenant: keep the row with whatever acct an earlier join
      // attached (none = -1) — the scalar RowRef's untouched-acct behavior.
      sel[k] = s;
      acct[k] = acct[i];
      ++k;
    }
  }
  return k;
}

void RankSel(const PendingColumns& cols, const TenantColumns& tenants,
             const PlanNode& node, int32_t* sel, int32_t* acct, int32_t n,
             Arena* arena) {
  if (n <= 1) return;
  const size_t num_keys = node.keys.size();
  // Gather every key into dense per-position arrays so the comparator —
  // which std::sort calls O(n log n) times — reads sequential scratch
  // instead of re-deriving values through column indirection each call.
  int64_t** keys = arena->AllocArray<int64_t*>(num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    keys[k] = arena->AllocArray<int64_t>(static_cast<size_t>(n));
    const RankSource source = node.keys[k].source;
    for (int32_t i = 0; i < n; ++i) {
      const int32_t s = sel[i];
      const int32_t a = acct != nullptr ? acct[i] : -1;
      int64_t v = 0;
      switch (source) {
        case RankSource::kId: v = cols.id[s]; break;
        case RankSource::kPriority: v = cols.priority[s]; break;
        case RankSource::kDeadline: v = cols.deadline[s]; break;
        case RankSource::kDeadlineIsZero: v = cols.deadline[s] == 0 ? 1 : 0; break;
        case RankSource::kTenant: v = cols.tenant[s]; break;
        case RankSource::kTenantVtime: v = a >= 0 ? tenants.vtime[a] : 0; break;
        case RankSource::kTenantRound: v = a >= 0 ? tenants.round[a] : 0; break;
      }
      keys[k][i] = v;
    }
  }
  const int64_t* id = cols.id.data();
  int32_t* perm = arena->AllocArray<int32_t>(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) perm[i] = i;
  const bool missing_last = node.missing_acct_last;
  std::sort(perm, perm + n, [&](int32_t a, int32_t b) {
    const bool has_a = acct != nullptr && acct[a] >= 0;
    const bool has_b = acct != nullptr && acct[b] >= 0;
    if (missing_last && has_a != has_b) return !has_b;
    if (!missing_last || has_a) {
      for (size_t k = 0; k < num_keys; ++k) {
        const int64_t va = keys[k][a];
        const int64_t vb = keys[k][b];
        if (va != vb) return va < vb;
      }
    }
    return id[sel[a]] < id[sel[b]];
  });
  ApplyPermutation(perm, sel, acct, n, arena);
}

void StarvationBoostSel(const PendingColumns& cols, int64_t now_us,
                        int64_t wait_us, int32_t* sel, int32_t* acct,
                        int32_t n, Arena* arena) {
  if (n <= 1) return;
  // Oldest arrival per tenant over every live row — the full pending
  // universe, not the selection, so an earlier limit or filter cannot
  // hide a tenant's oldest request from the guard.
  std::map<int64_t, int64_t> oldest;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols.dead[i]) continue;
    auto [it, inserted] = oldest.emplace(cols.tenant[i], cols.arrival[i]);
    if (!inserted && cols.arrival[i] < it->second) it->second = cols.arrival[i];
  }
  bool any_starved = false;
  for (auto& [tenant, arrival] : oldest) {
    if (now_us - arrival >= wait_us) {
      any_starved = true;
    } else {
      arrival = INT64_MAX;  // not starved: sorts after every starved tenant
    }
  }
  if (!any_starved) return;
  int64_t* keys = arena->AllocArray<int64_t>(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) keys[i] = oldest[cols.tenant[sel[i]]];
  int32_t* perm = arena->AllocArray<int32_t>(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) perm[i] = i;
  std::stable_sort(perm, perm + n,
                   [keys](int32_t a, int32_t b) { return keys[a] < keys[b]; });
  ApplyPermutation(perm, sel, acct, n, arena);
}

}  // namespace declsched::scheduler::ir::vec
