#include "scheduler/ir/optimize.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace declsched::scheduler::ir {

namespace {

/// Detaches the pipeline into scan-first order for easy rewriting.
std::vector<std::unique_ptr<PlanNode>> Flatten(ProtocolPlan* plan) {
  std::vector<std::unique_ptr<PlanNode>> nodes;
  std::unique_ptr<PlanNode> cur = std::move(plan->root);
  while (cur != nullptr) {
    std::unique_ptr<PlanNode> input = std::move(cur->input);
    nodes.push_back(std::move(cur));
    cur = std::move(input);
  }
  std::reverse(nodes.begin(), nodes.end());
  return nodes;
}

void Relink(ProtocolPlan* plan, std::vector<std::unique_ptr<PlanNode>> nodes) {
  std::unique_ptr<PlanNode> chain;
  for (auto& node : nodes) {
    node->input = std::move(chain);
    chain = std::move(node);
  }
  plan->root = std::move(chain);
}

bool IsCheapFilter(const PlanNode& node) {
  return node.kind == PlanNode::Kind::kFilter ||
         node.kind == PlanNode::Kind::kThrottleAntiJoin;
}

/// True if node `i`'s rank order is observable in the plan output: either
/// the protocol dispatches in rank order, or a later limit truncates by it.
bool RankObservable(const std::vector<std::unique_ptr<PlanNode>>& nodes,
                    size_t i, bool ordered) {
  for (size_t j = i + 1; j < nodes.size(); ++j) {
    if (nodes[j]->kind == PlanNode::Kind::kLimit) return true;
    // A later rank re-sorts the whole stream, hiding this one. A later
    // starvation boost does not: it is a stable re-order, so this rank
    // still orders every run of equally-boosted requests.
    if (nodes[j]->kind == PlanNode::Kind::kRank) return false;
  }
  return ordered;
}

/// True if the stream below node `i` is in ascending-id order (the scan
/// emits it; only rank and starvation-boost nodes disturb it).
bool InputIdOrdered(const std::vector<std::unique_ptr<PlanNode>>& nodes,
                    size_t i) {
  for (size_t j = 0; j < i; ++j) {
    if (nodes[j]->kind == PlanNode::Kind::kRank ||
        nodes[j]->kind == PlanNode::Kind::kStarvationBoost) {
      return false;
    }
  }
  return true;
}

bool RankIsIdentityOnIdOrder(const PlanNode& rank) {
  if (rank.missing_acct_last) return false;
  for (const RankKey& key : rank.keys) {
    if (key.source != RankSource::kId) return false;
  }
  return true;  // empty key list ties straight to the id tie-break
}

/// True if any node above `i` reads the TenantAcct a kTenantJoin attaches.
bool AcctReadAbove(const std::vector<std::unique_ptr<PlanNode>>& nodes,
                   size_t i) {
  for (size_t j = i + 1; j < nodes.size(); ++j) {
    const PlanNode& n = *nodes[j];
    if (n.kind != PlanNode::Kind::kRank) continue;
    if (n.missing_acct_last) return true;
    for (const RankKey& key : n.keys) {
      if (key.source == RankSource::kTenantVtime ||
          key.source == RankSource::kTenantRound) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void OptimizePlan(ProtocolPlan* plan) {
  if (plan == nullptr || plan->root == nullptr) return;
  std::vector<std::unique_ptr<PlanNode>> nodes = Flatten(plan);

  // Rank elision: drop ranks whose order the output contract cannot
  // observe (unordered protocols dispatch by id; a later rank shadows an
  // earlier one), and identity ranks over an already id-ordered stream.
  for (size_t i = 0; i < nodes.size();) {
    const PlanNode& n = *nodes[i];
    if (n.kind == PlanNode::Kind::kRank &&
        (!RankObservable(nodes, i, plan->ordered) ||
         (RankIsIdentityOnIdOrder(n) && InputIdOrdered(nodes, i)))) {
      nodes.erase(nodes.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    ++i;
  }

  // Join elision: a LEFT OUTER tenants join nothing above reads is dead
  // weight — it never drops rows, only attaches the acct. An inner join
  // is a semijoin filter (unknown tenants drop) and must be kept even
  // when no rank key reads the acct.
  for (size_t i = 0; i < nodes.size();) {
    if (nodes[i]->kind == PlanNode::Kind::kTenantJoin &&
        nodes[i]->left_outer && !AcctReadAbove(nodes, i)) {
      nodes.erase(nodes.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    ++i;
  }

  // Predicate pushdown: within each limit-delimited segment, float the
  // cheap per-row filters (typed predicates, throttled-tenant anti-join)
  // below the lock anti-join / tenants join / rank. Legal because the lock
  // anti-join judges each request against the full pending universe and
  // history locks — never against the incoming stream — so per-row drops
  // commute; crossing a limit would change which rows survive, so
  // segments end there.
  size_t segment_start = 0;
  for (size_t i = 0; i <= nodes.size(); ++i) {
    if (i == nodes.size() || nodes[i]->kind == PlanNode::Kind::kLimit) {
      std::stable_partition(
          nodes.begin() + static_cast<ptrdiff_t>(segment_start),
          nodes.begin() + static_cast<ptrdiff_t>(i),
          [](const std::unique_ptr<PlanNode>& n) {
            return n->kind == PlanNode::Kind::kScanPending || IsCheapFilter(*n);
          });
      segment_start = i + 1;
    }
  }

  // Pass-saving rewrites (the executor runs each node as one compaction
  // pass over the row stream):
  //  - within each run of cheap per-row drops, order typed filters before
  //    the throttle anti-join — a predicate is an in-row integer compare
  //    while the throttle probe is a per-tenant map lookup, so shrinking the
  //    stream first is strictly cheaper; legal because both are pure
  //    per-row drops and commute;
  //  - then fuse adjacent filter nodes into one conjunction, so a cycle
  //    compacts the stream once per fused group instead of per node.
  for (size_t i = 0; i < nodes.size();) {
    if (!IsCheapFilter(*nodes[i])) {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < nodes.size() && IsCheapFilter(*nodes[end])) ++end;
    std::stable_partition(nodes.begin() + static_cast<ptrdiff_t>(i),
                          nodes.begin() + static_cast<ptrdiff_t>(end),
                          [](const std::unique_ptr<PlanNode>& n) {
                            return n->kind == PlanNode::Kind::kFilter;
                          });
    i = end;
  }
  for (size_t i = 1; i < nodes.size();) {
    if (nodes[i]->kind == PlanNode::Kind::kFilter &&
        nodes[i - 1]->kind == PlanNode::Kind::kFilter) {
      auto& dst = nodes[i - 1]->predicates;
      auto& src = nodes[i]->predicates;
      dst.insert(dst.end(), src.begin(), src.end());
      nodes.erase(nodes.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    ++i;
  }

  Relink(plan, std::move(nodes));
}

}  // namespace declsched::scheduler::ir
