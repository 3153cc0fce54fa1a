// Seeded optimizer-soundness fuzz: random ProtocolPlan shapes — arbitrary
// chains of filter / lock anti-join / throttle anti-join / tenants join /
// rank / limit / starvation boost over a pending scan, with random
// predicates, conflict-rule subsets, rank keys, limits (also placed right
// before a lock anti-join, the `cap | filter` pipeline shape) and boost
// thresholds — executed against adversarial store states (empty store,
// single row, every row filtered out, selection exactly at the limit
// boundary, deleted tenants rows). Each plan must dispatch the same ids
// raw and after OptimizePlan (in order when the plan is ordered, else
// after RankById, as CompiledProtocol does), and its output must be a
// duplicate-free subset of pending that respects every limit.
// DECLSCHED_PLAN_FUZZ_SEEDS (csv) adds seeds to the default matrix, like
// the scenario soak's DECLSCHED_SOAK_SEEDS.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "scheduler/ir/executor.h"
#include "scheduler/ir/explain.h"
#include "scheduler/ir/optimize.h"
#include "scheduler/request_store.h"
#include "test_util.h"

namespace declsched::scheduler {
namespace {

std::vector<uint64_t> FuzzSeeds() {
  return testing::SeedsFromEnv("DECLSCHED_PLAN_FUZZ_SEEDS", {5, 55, 555, 5555});
}

Request Op(int64_t id, txn::TxnId ta, int64_t intrata, txn::OpType op,
           int64_t object) {
  Request r;
  r.id = id;
  r.ta = ta;
  r.intrata = intrata;
  r.op = op;
  r.object = object;
  return r;
}

std::string DescribeBatch(const RequestBatch& batch) {
  std::string out;
  for (const Request& r : batch) out += r.ToString() + " ";
  return out;
}

/// "Now" for every fuzz execution; pending arrivals fall in [0, kNowUs), so
/// random boost thresholds starve some tenants and not others.
constexpr int64_t kNowUs = 1000;

/// A random linear pipeline: always a pending scan at the leaf, then 0-6
/// random operators. Shapes the lowerers never emit (filters after ranks,
/// repeated joins, limit 0, rank with no keys) are deliberately in range —
/// the optimizer must preserve the output of every well-formed plan, not
/// just lowered ones.
ir::ProtocolPlan RandomPlan(Rng* rng) {
  ir::ProtocolPlan plan;
  plan.source = "fuzz";
  plan.ordered = rng->Bernoulli(0.5);
  auto cur = ir::PlanNode::Make(ir::PlanNode::Kind::kScanPending);
  const int ops = static_cast<int>(rng->UniformInt(0, 6));
  for (int i = 0; i < ops; ++i) {
    std::unique_ptr<ir::PlanNode> node;
    switch (rng->UniformInt(0, 7)) {
      case 0: {
        node = ir::PlanNode::Make(ir::PlanNode::Kind::kFilter);
        const int preds = static_cast<int>(rng->UniformInt(1, 3));
        for (int p = 0; p < preds; ++p) {
          ir::FieldPredicate pred;
          pred.field = static_cast<ir::RequestField>(rng->UniformInt(0, 9));
          pred.cmp = static_cast<ir::CompareKind>(rng->UniformInt(0, 5));
          if (pred.field == ir::RequestField::kOperation) {
            // Only =/<>' are meaningful on the op column; the lowerers
            // emit nothing else and the executor only dispatches those.
            pred.cmp = rng->Bernoulli(0.5) ? ir::CompareKind::kEq
                                           : ir::CompareKind::kNe;
            pred.op_value = rng->Bernoulli(0.5) ? txn::OpType::kRead
                                                : txn::OpType::kWrite;
          } else if (rng->Bernoulli(0.2)) {
            pred.value = 1000000;  // matches nothing: all-rows-filtered
          } else {
            pred.value = rng->UniformInt(0, 12);
          }
          node->predicates.push_back(pred);
        }
        break;
      }
      case 1: {
        node = ir::PlanNode::Make(ir::PlanNode::Kind::kLockAntiJoin);
        node->conflicts.wlock_blocks_all = rng->Bernoulli(0.4);
        node->conflicts.wlock_blocks_writes = rng->Bernoulli(0.4);
        node->conflicts.rlock_blocks_writes = rng->Bernoulli(0.4);
        node->conflicts.pending_write_blocks_all = rng->Bernoulli(0.4);
        node->conflicts.pending_write_blocks_writes = rng->Bernoulli(0.4);
        node->conflicts.pending_any_blocks_writes = rng->Bernoulli(0.4);
        break;
      }
      case 2:
        node = ir::PlanNode::Make(ir::PlanNode::Kind::kThrottleAntiJoin);
        break;
      case 3:
        node = ir::PlanNode::Make(ir::PlanNode::Kind::kTenantJoin);
        node->left_outer = rng->Bernoulli(0.5);
        break;
      case 4: {
        node = ir::PlanNode::Make(ir::PlanNode::Kind::kRank);
        const int keys = static_cast<int>(rng->UniformInt(0, 3));
        for (int k = 0; k < keys; ++k) {
          ir::RankKey key;
          key.source = static_cast<ir::RankSource>(rng->UniformInt(0, 6));
          node->keys.push_back(key);
        }
        node->missing_acct_last = rng->Bernoulli(0.3);
        break;
      }
      case 5: {
        node = ir::PlanNode::Make(ir::PlanNode::Kind::kLimit);
        // 0, tiny, or right around the typical resident row count, so the
        // boundary cases limit==n and limit>n both occur.
        node->limit = rng->UniformInt(0, 14);
        break;
      }
      case 6:
        node = ir::PlanNode::Make(ir::PlanNode::Kind::kStarvationBoost);
        // Below, inside, and above the arrival spread: nobody, some, or
        // every tenant starved.
        node->wait_us = rng->UniformInt(1, kNowUs + 200);
        break;
      case 7: {
        // A limit feeding a lock anti-join: the anti-join must still judge
        // pending-pending conflicts against the full pending universe,
        // not the truncated stream.
        auto limit = ir::PlanNode::Make(ir::PlanNode::Kind::kLimit);
        limit->limit = rng->UniformInt(0, 6);
        limit->input = std::move(cur);
        cur = std::move(limit);
        node = ir::PlanNode::Make(ir::PlanNode::Kind::kLockAntiJoin);
        node->conflicts = rng->Bernoulli(0.5) ? ir::ConflictRules::Ss2pl()
                                              : ir::ConflictRules::ReadCommitted();
        break;
      }
    }
    node->input = std::move(cur);
    cur = std::move(node);
  }
  plan.root = std::move(cur);
  return plan;
}

/// Puts the store in one of several adversarial shapes; `rows` controls
/// the pending population (0 = empty store, 1 = single-row mirror).
void PopulateStore(RequestStore* store, Rng* rng, int rows) {
  RequestBatch batch;
  for (int i = 0; i < rows; ++i) {
    const txn::TxnId ta = 1 + i / 3;
    Request r = Op(i + 1, ta, i % 3 + 1,
                   rng->Bernoulli(0.5) ? txn::OpType::kRead
                                       : txn::OpType::kWrite,
                   rng->UniformInt(0, 5));
    r.priority = static_cast<int>(rng->UniformInt(0, 2));
    r.deadline = rng->Bernoulli(0.3)
                     ? SimTime()
                     : SimTime::FromMicros(rng->UniformInt(1, 100000));
    r.tenant = static_cast<int>(rng->UniformInt(0, 4));
    // Deterministic in the row index, so the seeds' random streams (and
    // with them every pre-existing store shape) stay as they were.
    r.arrival = SimTime::FromMicros((i * 389) % kNowUs);
    batch.push_back(r);
  }
  if (!batch.empty()) {
    ASSERT_TRUE(store->InsertPending(batch).ok());
  }

  // History rows: half the transactions hold live locks, one terminated.
  if (rows > 0 && rng->Bernoulli(0.7)) {
    ASSERT_TRUE(
        store->InsertHistory(Op(1000, 50, 1, txn::OpType::kWrite, 2)).ok());
    ASSERT_TRUE(
        store->InsertHistory(Op(1001, 51, 1, txn::OpType::kRead, 3)).ok());
    if (rng->Bernoulli(0.5)) {
      ASSERT_TRUE(store
                      ->InsertHistory(Op(1002, 51, 2, txn::OpType::kCommit,
                                         Request::kNoObject))
                      .ok());
    }
  }

  // Tenants rows: some throttled (cap hit / bucket empty), some absent —
  // then one deleted out-of-band, the deleted-tenant-row adversary for
  // joins and throttles.
  for (int64_t t = 0; t < 4; ++t) {
    if (rng->Bernoulli(0.3)) continue;  // leave some tenants unknown
    TenantAcct acct = store->TenantOrDefault(t);
    acct.weight = rng->UniformInt(1, 4);
    acct.vtime = rng->UniformInt(0, 100);
    acct.round = rng->UniformInt(0, 5);
    acct.cap = rng->Bernoulli(0.4) ? 1 : 0;
    acct.inflight = rng->UniformInt(0, 2);
    acct.rate = rng->Bernoulli(0.4) ? 1 : 0;
    acct.tokens = 0;
    ASSERT_TRUE(store->UpsertTenant(acct).ok());
  }
  if (rng->Bernoulli(0.5)) {
    ASSERT_TRUE(store->sql_engine()
                    ->Execute("DELETE FROM tenants WHERE tenant = " +
                              std::to_string(rng->UniformInt(0, 3)))
                    .ok());
  }
}

/// The ids a plan dispatches: in stream order when the plan is ordered,
/// else ascending, exactly as CompiledProtocol hands them out.
std::vector<int64_t> DispatchIds(const ir::ProtocolPlan& plan,
                                 RequestBatch batch) {
  if (!plan.ordered) RankById(&batch);
  std::vector<int64_t> ids;
  ids.reserve(batch.size());
  for (const Request& r : batch) ids.push_back(r.id);
  return ids;
}

/// The tightest limit anywhere in the plan (-1 when it has none): no
/// operator adds rows, so every output respects it.
int64_t TightestLimit(const ir::ProtocolPlan& plan) {
  int64_t tightest = -1;
  for (const ir::PlanNode* n = plan.root.get(); n != nullptr;
       n = n->input.get()) {
    if (n->kind == ir::PlanNode::Kind::kLimit && n->limit >= 0 &&
        (tightest < 0 || n->limit < tightest)) {
      tightest = n->limit;
    }
  }
  return tightest;
}

/// Runs `raw` and `optimized` on their own executors against `store` and
/// asserts they dispatch the same ids, and that the output is a
/// duplicate-free subset of pending within every limit of the plan.
void ExpectOptimizerSound(const ir::ProtocolPlan& raw,
                          const ir::ProtocolPlan& optimized,
                          ir::PlanExecutor* raw_exec,
                          ir::PlanExecutor* opt_exec, RequestStore* store,
                          const std::string& where) {
  ScheduleContext context{};
  context.store = store;
  context.now = SimTime::FromMicros(kNowUs);
  auto want = raw_exec->Execute(raw, context);
  auto got = opt_exec->Execute(optimized, context);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(DispatchIds(optimized, *got), DispatchIds(raw, *want))
      << where << "\nraw plan:\n" << ir::ExplainProtocolPlan(raw)
      << "optimized plan:\n" << ir::ExplainProtocolPlan(optimized)
      << "raw:       " << DescribeBatch(*want)
      << "\noptimized: " << DescribeBatch(*got);

  const auto& pending = store->pending_by_id();
  std::set<int64_t> seen;
  for (const Request& r : *want) {
    EXPECT_TRUE(seen.insert(r.id).second) << where << ": id " << r.id
                                          << " dispatched twice";
    EXPECT_EQ(pending.count(r.id), 1u) << where << ": id " << r.id
                                       << " is not pending";
  }
  const int64_t limit = TightestLimit(raw);
  if (limit >= 0) {
    EXPECT_LE(static_cast<int64_t>(want->size()), limit) << where;
  }
}

TEST(IrPlanFuzzTest, OptimizerPreservesOutputOnAdversarialStores) {
  for (uint64_t seed : FuzzSeeds()) {
    Rng rng(seed);
    for (int round = 0; round < 120; ++round) {
      // Row population sweeps the adversarial shapes: empty store,
      // single-row mirror, and enough rows that random limits land both
      // below, exactly at, and above the surviving selection size.
      const int rows = static_cast<int>(rng.UniformInt(0, 4)) == 0
                           ? static_cast<int>(rng.UniformInt(0, 1))
                           : static_cast<int>(rng.UniformInt(2, 14));
      RequestStore store;
      PopulateStore(&store, &rng, rows);
      if (::testing::Test::HasFatalFailure()) return;
      // The same random plan twice (a copied generator replays it): one
      // run raw, one rewritten by the optimizer.
      Rng replay = rng;
      const ir::ProtocolPlan raw = RandomPlan(&rng);
      ir::ProtocolPlan optimized = RandomPlan(&replay);
      ir::OptimizePlan(&optimized);

      // Fresh executors each round: cold lock state, every store shape
      // hits the initial-rebuild path.
      ir::PlanExecutor raw_exec;
      ir::PlanExecutor opt_exec;
      const std::string where = "seed " + std::to_string(seed) + " round " +
                                std::to_string(round) + " rows " +
                                std::to_string(rows);
      ExpectOptimizerSound(raw, optimized, &raw_exec, &opt_exec, &store,
                           where);
      if (::testing::Test::HasFailure()) return;

      // Mutate the same store and re-run the same executors: they see an
      // unnarrated edit mid-life, not just cold-start.
      if (rows > 0 && rng.Bernoulli(0.5)) {
        ASSERT_TRUE(store.sql_engine()
                        ->Execute("UPDATE requests SET priority = 0 "
                                  "WHERE object <= 2")
                        .ok());
        ExpectOptimizerSound(raw, optimized, &raw_exec, &opt_exec, &store,
                             "post-DML " + where);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(IrPlanFuzzTest, LimitExactlyAtSelectionBoundary) {
  // Deterministic pin of the boundary the fuzz sweeps stochastically:
  // rank + limit with limit == surviving rows, == rows-1, == 0, and
  // > rows, on the same store, ordered and unordered.
  Rng rng(9);
  RequestStore store;
  PopulateStore(&store, &rng, 8);
  const int64_t live = static_cast<int64_t>((*store.AllPending()).size());
  for (bool ordered : {true, false}) {
    for (int64_t limit : {int64_t{0}, live - 1, live, live + 5}) {
      auto make_plan = [&] {
        ir::ProtocolPlan plan;
        plan.source = "fuzz";
        plan.ordered = ordered;
        auto scan = ir::PlanNode::Make(ir::PlanNode::Kind::kScanPending);
        auto rank = ir::PlanNode::Make(ir::PlanNode::Kind::kRank);
        rank->keys.push_back({ir::RankSource::kDeadline});
        rank->input = std::move(scan);
        auto lim = ir::PlanNode::Make(ir::PlanNode::Kind::kLimit);
        lim->limit = limit;
        lim->input = std::move(rank);
        plan.root = std::move(lim);
        return plan;
      };
      const ir::ProtocolPlan raw = make_plan();
      ir::ProtocolPlan optimized = make_plan();
      ir::OptimizePlan(&optimized);

      ir::PlanExecutor raw_exec;
      ir::PlanExecutor opt_exec;
      const std::string where = std::string(ordered ? "ordered" : "unordered") +
                                " limit " + std::to_string(limit);
      ExpectOptimizerSound(raw, optimized, &raw_exec, &opt_exec, &store,
                           where);
      ScheduleContext context{};
      context.store = &store;
      auto out = raw_exec.Execute(raw, context);
      ASSERT_TRUE(out.ok()) << where;
      EXPECT_EQ(static_cast<int64_t>(out->size()), std::min(limit, live))
          << where;
    }
  }
}

}  // namespace
}  // namespace declsched::scheduler
