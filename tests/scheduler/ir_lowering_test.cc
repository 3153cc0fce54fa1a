// Unit tests for the protocol IR front-ends (SQL, Datalog, stage
// pipelines), optimizer and EXPLAIN:
// lowered plan shapes per registry family, the optimizer's rewrite rules,
// dialect boundaries (Unsupported -> interpreter fallback), and the
// ExplainProtocol rendering.

#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "scheduler/ir/compiled_protocol.h"
#include "scheduler/ir/explain.h"
#include "scheduler/ir/lower_datalog.h"
#include "scheduler/ir/lower_pipeline.h"
#include "scheduler/ir/lower_sql.h"
#include "scheduler/ir/optimize.h"
#include "scheduler/protocol_library.h"
#include "scheduler/request_store.h"

namespace declsched::scheduler::ir {
namespace {

std::vector<PlanNode::Kind> Kinds(const ProtocolPlan& plan) {
  std::vector<PlanNode::Kind> kinds;
  for (const PlanNode* node = plan.root.get(); node != nullptr;
       node = node->input.get()) {
    kinds.push_back(node->kind);
  }
  return kinds;
}

const PlanNode* FindNode(const ProtocolPlan& plan, PlanNode::Kind kind) {
  for (const PlanNode* node = plan.root.get(); node != nullptr;
       node = node->input.get()) {
    if (node->kind == kind) return node;
  }
  return nullptr;
}

ProtocolPlan LowerSpec(const ProtocolSpec& spec, RequestStore* store) {
  auto plan = spec.backend == "sql"       ? LowerSqlSpec(spec, *store->catalog())
              : spec.backend == "datalog" ? LowerDatalogSpec(spec)
                                          : LowerPipelineSpec(spec);
  EXPECT_TRUE(plan.ok()) << spec.name << ": " << plan.status().ToString();
  return plan.ok() ? std::move(plan).MoveValue() : ProtocolPlan{};
}

TEST(IrLoweringTest, Ss2plLowersToTheFullConflictRuleSet) {
  RequestStore store;
  for (const ProtocolSpec& spec : {Ss2plSql(), Ss2plDatalog()}) {
    const ProtocolPlan plan = LowerSpec(spec, &store);
    const PlanNode* anti = FindNode(plan, PlanNode::Kind::kLockAntiJoin);
    ASSERT_NE(anti, nullptr) << spec.name;
    EXPECT_TRUE(anti->conflicts.wlock_blocks_all) << spec.name;
    EXPECT_TRUE(anti->conflicts.rlock_blocks_writes) << spec.name;
    EXPECT_TRUE(anti->conflicts.pending_write_blocks_all) << spec.name;
    EXPECT_TRUE(anti->conflicts.pending_any_blocks_writes) << spec.name;
    EXPECT_FALSE(anti->conflicts.wlock_blocks_writes) << spec.name;
    EXPECT_FALSE(plan.ordered) << spec.name;
    EXPECT_TRUE(plan.NeedsLockTable()) << spec.name;
  }
}

TEST(IrLoweringTest, ReadCommittedLowersToTheWriteOnlyRules) {
  RequestStore store;
  for (const ProtocolSpec& spec : {ReadCommittedSql(), ReadCommittedDatalog()}) {
    const ProtocolPlan plan = LowerSpec(spec, &store);
    const PlanNode* anti = FindNode(plan, PlanNode::Kind::kLockAntiJoin);
    ASSERT_NE(anti, nullptr) << spec.name;
    EXPECT_TRUE(anti->conflicts.wlock_blocks_writes) << spec.name;
    EXPECT_TRUE(anti->conflicts.pending_write_blocks_writes) << spec.name;
    EXPECT_FALSE(anti->conflicts.wlock_blocks_all) << spec.name;
    EXPECT_FALSE(anti->conflicts.rlock_blocks_writes) << spec.name;
    EXPECT_FALSE(anti->conflicts.pending_any_blocks_writes) << spec.name;
  }
}

TEST(IrLoweringTest, FcfsOptimizesDownToTheBareScan) {
  // ORDER BY id over the id-ordered pending scan is a no-op: the optimizer
  // must elide the rank and leave just the scan.
  RequestStore store;
  const ProtocolPlan plan = LowerSpec(FcfsSql(), &store);
  EXPECT_EQ(Kinds(plan),
            std::vector<PlanNode::Kind>{PlanNode::Kind::kScanPending});
  EXPECT_FALSE(plan.NeedsLockTable());
  EXPECT_FALSE(plan.MayReorder());
}

TEST(IrLoweringTest, ThrottleAntiJoinIsPushedBelowTheLockAntiJoin) {
  // The SQL text filters throttled tenants *after* the expensive
  // qualification join; the optimizer must run the cheap per-row throttle
  // check first.
  RequestStore store;
  for (const ProtocolSpec& spec : {TenantCapSql(), TenantCapDatalog()}) {
    const ProtocolPlan plan = LowerSpec(spec, &store);
    const std::vector<PlanNode::Kind> kinds = Kinds(plan);
    ASSERT_EQ(kinds.size(), 3u) << spec.name;
    EXPECT_EQ(kinds[0], PlanNode::Kind::kLockAntiJoin) << spec.name;
    EXPECT_EQ(kinds[1], PlanNode::Kind::kThrottleAntiJoin) << spec.name;
    EXPECT_EQ(kinds[2], PlanNode::Kind::kScanPending) << spec.name;
  }
}

TEST(IrLoweringTest, RankKeysMirrorTheDeclaredOrdering) {
  RequestStore store;
  const ProtocolPlan sla = LowerSpec(SlaPrioritySql(), &store);
  const PlanNode* rank = FindNode(sla, PlanNode::Kind::kRank);
  ASSERT_NE(rank, nullptr);
  ASSERT_EQ(rank->keys.size(), 2u);
  EXPECT_EQ(rank->keys[0].source, RankSource::kPriority);
  EXPECT_EQ(rank->keys[1].source, RankSource::kId);

  const ProtocolPlan edf = LowerSpec(EdfSql(), &store);
  rank = FindNode(edf, PlanNode::Kind::kRank);
  ASSERT_NE(rank, nullptr);
  ASSERT_EQ(rank->keys.size(), 3u);
  EXPECT_EQ(rank->keys[0].source, RankSource::kDeadlineIsZero);
  EXPECT_EQ(rank->keys[1].source, RankSource::kDeadline);
  EXPECT_EQ(rank->keys[2].source, RankSource::kId);
}

TEST(IrLoweringTest, TenantJoinFlavorsFollowTheLanguageSemantics) {
  RequestStore store;
  // SQL's `requests, tenants WHERE r.tenant = t.tenant` is an inner join:
  // requests of unknown tenants drop.
  const ProtocolPlan sql = LowerSpec(WfqSql(), &store);
  const PlanNode* join = FindNode(sql, PlanNode::Kind::kTenantJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_FALSE(join->left_outer);
  const PlanNode* rank = FindNode(sql, PlanNode::Kind::kRank);
  ASSERT_NE(rank, nullptr);
  EXPECT_EQ(rank->keys[0].source, RankSource::kTenantVtime);
  EXPECT_FALSE(rank->missing_acct_last);

  // Datalog's rank relation keeps unranked requests, sorted last: a
  // left-outer join plus missing-last ordering.
  const ProtocolPlan dl = LowerSpec(WfqDatalog(), &store);
  join = FindNode(dl, PlanNode::Kind::kTenantJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_TRUE(join->left_outer);
  rank = FindNode(dl, PlanNode::Kind::kRank);
  ASSERT_NE(rank, nullptr);
  EXPECT_TRUE(rank->missing_acct_last);

  const ProtocolPlan drr = LowerSpec(DrrDatalog(), &store);
  rank = FindNode(drr, PlanNode::Kind::kRank);
  ASSERT_NE(rank, nullptr);
  ASSERT_EQ(rank->keys.size(), 3u);
  EXPECT_EQ(rank->keys[0].source, RankSource::kTenantRound);
  EXPECT_EQ(rank->keys[1].source, RankSource::kTenant);
  EXPECT_EQ(rank->keys[2].source, RankSource::kId);
}

TEST(IrLoweringTest, InnerTenantJoinSurvivesElisionOuterDoesNot) {
  // An inner tenants join is a semijoin filter (unknown tenants drop)
  // and must be kept even when nothing reads the joined acct; only the
  // never-dropping left-outer form is dead weight.
  RequestStore store;
  ProtocolSpec spec;
  spec.name = "tenant-known-only";
  spec.backend = "sql";
  spec.text =
      "SELECT * FROM requests r2, tenants t WHERE r2.tenant = t.tenant "
      "ORDER BY r2.id";
  spec.ordered = true;
  auto lowered = LowerSqlSpec(spec, *store.catalog());
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  const PlanNode* join = FindNode(*lowered, PlanNode::Kind::kTenantJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_FALSE(join->left_outer);

  ProtocolPlan outer;
  outer.ordered = false;
  auto join_node = PlanNode::Make(PlanNode::Kind::kTenantJoin);
  join_node->left_outer = true;
  join_node->input = PlanNode::Make(PlanNode::Kind::kScanPending);
  outer.root = std::move(join_node);
  OptimizePlan(&outer);
  EXPECT_EQ(Kinds(outer),
            std::vector<PlanNode::Kind>{PlanNode::Kind::kScanPending});
}

TEST(IrLoweringTest, WherePredicatesLowerToTypedFiltersBelowTheLocks) {
  // Generic WHERE conjuncts become typed filter nodes, pushed below the
  // lock anti-join (predicate pushdown on the IR).
  RequestStore store;
  ProtocolSpec spec = Ss2plSql();
  spec.name = "ss2pl-premium";
  // Splice a WHERE into the final SELECT of the Listing 1 text.
  const std::string marker = "WHERE r2.ta = ss2PL.ta AND r2.intrata = ss2PL.intrata";
  const size_t at = spec.text.find(marker);
  ASSERT_NE(at, std::string::npos);
  spec.text.insert(at + marker.size(), " AND r2.priority = 0");
  auto lowered = LowerSqlSpec(spec, *store.catalog());
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  const std::vector<PlanNode::Kind> kinds = Kinds(*lowered);
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], PlanNode::Kind::kLockAntiJoin);
  EXPECT_EQ(kinds[1], PlanNode::Kind::kFilter);
  EXPECT_EQ(kinds[2], PlanNode::Kind::kScanPending);
  const PlanNode* filter = FindNode(*lowered, PlanNode::Kind::kFilter);
  ASSERT_EQ(filter->predicates.size(), 1u);
  EXPECT_EQ(filter->predicates[0].field, RequestField::kPriority);
  EXPECT_EQ(filter->predicates[0].cmp, CompareKind::kEq);
  EXPECT_EQ(filter->predicates[0].value, 0);
}

TEST(IrLoweringTest, OutsideTheDialectIsUnsupportedAndFallsBack) {
  RequestStore store;
  // Aggregates, descending sorts, and missing id tie-breaks are outside
  // the IR dialect: the lowering must refuse (Unsupported), and the SQL
  // backend must still compile the spec via the interpreter.
  for (const char* text :
       {"SELECT id, ta, intrata, operation, object FROM requests "
        "GROUP BY id, ta, intrata, operation, object",
        "SELECT * FROM requests ORDER BY id DESC",
        "SELECT * FROM requests r, history h WHERE r.object = h.object"}) {
    ProtocolSpec spec;
    spec.name = "custom";
    spec.backend = "sql";
    spec.text = text;
    auto lowered = LowerSqlSpec(spec, *store.catalog());
    ASSERT_FALSE(lowered.ok()) << text;
    EXPECT_TRUE(lowered.status().IsUnsupported()) << text;
    auto protocol = ProtocolFactory::Global().Compile(spec, &store);
    ASSERT_TRUE(protocol.ok()) << text << ": " << protocol.status().ToString();
    EXPECT_EQ(dynamic_cast<const ir::CompiledProtocol*>(protocol->get()),
              nullptr)
        << text;
  }
  // An ordered spec whose ORDER BY lacks a trailing unique key cannot
  // promise the interpreter's exact order.
  ProtocolSpec spec;
  spec.name = "custom-ordered";
  spec.backend = "sql";
  spec.text = "SELECT * FROM requests ORDER BY priority";
  spec.ordered = true;
  auto lowered = LowerSqlSpec(spec, *store.catalog());
  ASSERT_FALSE(lowered.ok());
  EXPECT_TRUE(lowered.status().IsUnsupported());
}

TEST(IrLoweringTest, DatalogVacuousSameVariableComparisonsFallBack) {
  // `T > T` / `T != T` never hold, so these blocked rules derive nothing;
  // compiling them into active conflict rules would block requests the
  // text never blocks. They must be out of dialect (interpreter fallback).
  RequestStore store;
  for (const char* body :
       {"blocked(T, I) :- req(_, T, I, \"w\", Obj), req(_, T, _, _, Obj), "
        "T > T.",
        "wl(Obj, Ta) :- hist(_, Ta, _, \"w\", Obj), !fin(Ta).\n"
        "fin(Ta) :- hist(_, Ta, _, \"c\", Obj).\n"
        "fin(Ta) :- hist(_, Ta, _, \"a\", Obj).\n"
        "blocked(T, I) :- req(_, T, I, _, Obj), wl(Obj, T), T != T."}) {
    ProtocolSpec spec;
    spec.name = "vacuous";
    spec.backend = "datalog";
    spec.text = std::string(body) +
                "\nqualified(Id, Ta, In, Op, Obj) :- "
                "req(Id, Ta, In, Op, Obj), !blocked(Ta, In).";
    auto lowered = LowerDatalogSpec(spec);
    ASSERT_FALSE(lowered.ok()) << body;
    EXPECT_TRUE(lowered.status().IsUnsupported()) << body;
    auto protocol = ProtocolFactory::Global().Compile(spec, &store);
    ASSERT_TRUE(protocol.ok()) << protocol.status().ToString();
    EXPECT_EQ(dynamic_cast<const ir::CompiledProtocol*>(protocol->get()),
              nullptr);
  }
}

TEST(IrLoweringTest, DatalogOutsideTheDialectFallsBack) {
  RequestStore store;
  ProtocolSpec spec;
  spec.name = "custom-datalog";
  spec.backend = "datalog";
  // Transitive closure is real Datalog but not a scheduling idiom the IR
  // knows; the backend must fall back to the semi-naive engine.
  spec.text = R"(
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
qualified(Id, Ta, In, Op, Obj) :- req(Id, Ta, In, Op, Obj), reach(Ta, 1).
)";
  auto lowered = LowerDatalogSpec(spec);
  ASSERT_FALSE(lowered.ok());
  EXPECT_TRUE(lowered.status().IsUnsupported());
  auto protocol = ProtocolFactory::Global().Compile(spec, &store);
  ASSERT_TRUE(protocol.ok()) << protocol.status().ToString();
  EXPECT_EQ(dynamic_cast<const ir::CompiledProtocol*>(protocol->get()), nullptr);
}

TEST(IrLoweringTest, LimitLowersAndKeepsItsFeedingRank) {
  RequestStore store;
  ProtocolSpec spec;
  spec.name = "top8";
  spec.backend = "sql";
  spec.text = "SELECT * FROM requests ORDER BY priority, id LIMIT 8";
  spec.ordered = true;
  auto lowered = LowerSqlSpec(spec, *store.catalog());
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  const std::vector<PlanNode::Kind> kinds = Kinds(*lowered);
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], PlanNode::Kind::kLimit);
  EXPECT_EQ(kinds[1], PlanNode::Kind::kRank);
  EXPECT_EQ(kinds[2], PlanNode::Kind::kScanPending);
  EXPECT_EQ(lowered->root->limit, 8);
}

TEST(IrLoweringTest, UnorderedRankNotFeedingALimitIsElided) {
  // An unordered protocol dispatches by id whatever the text's ORDER BY
  // says — the optimizer drops the wasted per-cycle sort.
  RequestStore store;
  ProtocolSpec spec;
  spec.name = "unordered-orderby";
  spec.backend = "sql";
  spec.text = "SELECT * FROM requests ORDER BY priority, id";
  spec.ordered = false;
  auto lowered = LowerSqlSpec(spec, *store.catalog());
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  EXPECT_EQ(Kinds(*lowered),
            std::vector<PlanNode::Kind>{PlanNode::Kind::kScanPending});
}

TEST(IrLoweringTest, ExplainRendersCompiledAndFallbackForms) {
  RequestStore store;
  auto compiled = ExplainProtocol(Ss2plSql(), &store);
  ASSERT_TRUE(compiled.ok());
  EXPECT_NE(compiled->find("compiled protocol IR:"), std::string::npos);
  EXPECT_NE(compiled->find("LockAntiJoin"), std::string::npos);
  EXPECT_NE(compiled->find("ScanPending"), std::string::npos);

  auto interp = ExplainProtocol(InterpretedVariant(Ss2plSql()), &store);
  ASSERT_TRUE(interp.ok());
  EXPECT_NE(interp->find("interpreted (forced by interp: prefix)"),
            std::string::npos);
  EXPECT_NE(interp->find("physical SQL plan:"), std::string::npos);

  ProtocolSpec custom;
  custom.name = "custom";
  custom.backend = "sql";
  custom.text = "SELECT * FROM requests ORDER BY id DESC";
  auto fallback = ExplainProtocol(custom, &store);
  ASSERT_TRUE(fallback.ok());
  EXPECT_NE(fallback->find("lowering failed"), std::string::npos);

  auto datalog = ExplainProtocol(WfqDatalog(), &store);
  ASSERT_TRUE(datalog.ok());
  EXPECT_NE(datalog->find("TenantJoin LEFT"), std::string::npos);

  auto pipeline = ExplainProtocol(ComposedWfq(), &store);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_NE(pipeline->find("stage pipeline: filter:ss2pl | fair_rank:vtime"),
            std::string::npos);
  EXPECT_NE(pipeline->find("compiled protocol IR:"), std::string::npos);
  EXPECT_NE(pipeline->find("TenantJoin LEFT"), std::string::npos);
}

std::string PlanText(const ProtocolSpec& spec, RequestStore* store) {
  return ExplainProtocolPlan(LowerSpec(spec, store));
}

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  const size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(PipelineLoweringTest, NativeNamesCompileToTheirDeclarativeTwinsPlans) {
  // One runtime behind three front-ends: each pipeline lowers to exactly
  // the plan its SQL (and Datalog, where one exists) twin lowers to.
  RequestStore store;
  struct Twins {
    ProtocolSpec pipeline;
    std::vector<ProtocolSpec> declarative;
  };
  const std::vector<Twins> families = {
      {Ss2plNative(), {Ss2plSql(), Ss2plDatalog()}},
      {FcfsNative(), {FcfsSql()}},
      {SlaPriorityNative(), {SlaPrioritySql()}},
      {ComposedSs2plPriority(), {SlaPrioritySql()}},
      {EdfNative(), {EdfSql()}},
      {ReadCommittedNative(), {ReadCommittedSql(), ReadCommittedDatalog()}},
      {TenantCapNative(), {TenantCapSql(), TenantCapDatalog()}},
      {ComposedTenantCap(), {TenantCapSql(), TenantCapDatalog()}},
  };
  for (const Twins& family : families) {
    const std::string pipeline = PlanText(family.pipeline, &store);
    for (const ProtocolSpec& twin : family.declarative) {
      EXPECT_EQ(pipeline, PlanText(twin, &store))
          << family.pipeline.name << " vs " << twin.name;
    }
  }
  EXPECT_EQ(PlanText(Ss2plNative(), &store),
            "LockAntiJoin [wlock->all, rlock->w, pend:w->all, pend:any->w]\n"
            "  ScanPending\n");

  // wfq/drr differ from their twins only in the documented missing-tenant
  // rule: the pipeline LEFT-joins (absent tenant ranks at 0), SQL
  // inner-joins (drops it), Datalog sorts it last.
  for (const auto& [pipeline, sql, datalog] :
       {std::make_tuple(WfqNative(), WfqSql(), WfqDatalog()),
        std::make_tuple(ComposedWfq(), WfqSql(), WfqDatalog()),
        std::make_tuple(DrrNative(), DrrSql(), DrrDatalog()),
        std::make_tuple(ComposedDrr(), DrrSql(), DrrDatalog())}) {
    const std::string text = PlanText(pipeline, &store);
    EXPECT_EQ(text, Replace(PlanText(sql, &store), "TenantJoin [tenants]",
                            "TenantJoin LEFT [tenants]"))
        << pipeline.name;
    EXPECT_EQ(text,
              Replace(PlanText(datalog, &store), "; unranked last", ""))
        << pipeline.name;
  }
}

TEST(PipelineLoweringTest, StagesLowerToIrOperators) {
  RequestStore store;
  ProtocolSpec spec;
  spec.name = "mix";
  spec.backend = "composed";
  spec.text =
      "rank:priority | cap:4 | filter:ss2pl | tenant_cap | "
      "starvation_boost:500";
  const ProtocolPlan plan = LowerSpec(spec, &store);
  EXPECT_TRUE(plan.ordered);
  EXPECT_EQ(plan.source, "pipeline");
  // The limit stays below the lock anti-join (cap before filter); the
  // throttle is pushed down within its limit-delimited segment; the rank
  // feeding the limit survives, and the boost tops the pipeline.
  EXPECT_EQ(Kinds(plan),
            (std::vector<PlanNode::Kind>{
                PlanNode::Kind::kStarvationBoost,
                PlanNode::Kind::kLockAntiJoin,
                PlanNode::Kind::kThrottleAntiJoin, PlanNode::Kind::kLimit,
                PlanNode::Kind::kRank, PlanNode::Kind::kScanPending}));
  EXPECT_EQ(FindNode(plan, PlanNode::Kind::kStarvationBoost)->wait_us, 500);
  EXPECT_EQ(FindNode(plan, PlanNode::Kind::kLimit)->limit, 4);
  EXPECT_NE(ExplainProtocolPlan(plan).find(
                "StarvationBoost [oldest pending wait >= 500us]"),
            std::string::npos);

  // filter:none lowers to nothing; a pipeline without a rank-like stage
  // dispatches by id.
  spec.text = "filter:none | cap:2";
  const ProtocolPlan capped = LowerSpec(spec, &store);
  EXPECT_FALSE(capped.ordered);
  EXPECT_EQ(Kinds(capped),
            (std::vector<PlanNode::Kind>{PlanNode::Kind::kLimit,
                                         PlanNode::Kind::kScanPending}));
}

TEST(PipelineLoweringTest, BoostKeepsAnEarlierRankAndOrdersAFcfsRank) {
  RequestStore store;
  ProtocolSpec spec;
  spec.name = "boosted";
  spec.backend = "composed";
  // A boost is a stable re-order: the priority rank below it still orders
  // every run of equally-boosted requests, so the optimizer must keep it.
  spec.text = "filter:ss2pl | rank:priority | starvation_boost:100";
  EXPECT_NE(FindNode(LowerSpec(spec, &store), PlanNode::Kind::kRank), nullptr);
  // An id rank *after* a boost is no identity: the boost broke id order.
  spec.text = "starvation_boost:100 | rank:fcfs";
  EXPECT_NE(FindNode(LowerSpec(spec, &store), PlanNode::Kind::kRank), nullptr);
  // ...while an id rank over the plain scan is elided as before.
  spec.text = "rank:fcfs | starvation_boost:100";
  EXPECT_EQ(FindNode(LowerSpec(spec, &store), PlanNode::Kind::kRank), nullptr);
}

}  // namespace
}  // namespace declsched::scheduler::ir
