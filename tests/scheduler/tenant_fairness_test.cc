// Multi-tenant fairness: the wfq / drr / tenant-cap policies.
//
// Three properties pin the subsystem down:
//  * four-way equivalence — the `*-native` and composed pipelines, SQL,
//    and Datalog formulations of each policy agree (order for the ranking
//    policies, exact id order for the filter policy) on randomized
//    request/history/tenants instances, because all four read the same
//    `tenants` relation;
//  * starvation freedom — under wfq with a flooding aggressor, every
//    light tenant's requests dispatch within a bounded number of cycles
//    (1000 randomized tenant-skewed traces);
//  * sharded accounting equivalence — the merged per-tenant accounting of
//    a sharded scheduler (TenantSnapshot) matches the unsharded
//    scheduler's accountant on the same trace.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "scheduler/declarative_scheduler.h"
#include "scheduler/protocol_library.h"
#include "scheduler/sharded_scheduler.h"
#include "scheduler/tenant_accountant.h"

namespace declsched::scheduler {
namespace {

Request Op(int64_t id, int64_t ta, int64_t intrata, txn::OpType op,
           int64_t object, int tenant = 0) {
  Request r;
  r.id = id;
  r.ta = ta;
  r.intrata = intrata;
  r.op = op;
  r.object = object;
  r.tenant = tenant;
  return r;
}

std::vector<int64_t> Ids(const RequestBatch& batch) {
  std::vector<int64_t> out;
  out.reserve(batch.size());
  for (const Request& r : batch) out.push_back(r.id);
  return out;
}

Result<RequestBatch> ScheduleOnce(const ProtocolSpec& spec, RequestStore* store) {
  auto compiled = ProtocolFactory::Global().Compile(spec, store);
  if (!compiled.ok()) return compiled.status();
  return (*compiled)->Schedule(ScheduleContext{store, SimTime()});
}

// --- four-way formulation equivalence --------------------------------------

class TenantEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(TenantEquivalenceTest, AllFourFormulationsAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  RequestStore store;

  // Random per-tenant QoS state for tenants 0..5; tenant 6 gets no row and
  // must behave as the auto-created default everywhere.
  for (int64_t t = 0; t < 6; ++t) {
    TenantAcct acct;
    acct.tenant = t;
    acct.weight = rng.UniformInt(1, 4);
    acct.vtime = rng.UniformInt(0, 5) * 1000;  // deliberate ties
    acct.round = rng.UniformInt(0, 3);
    acct.tokens = rng.UniformInt(0, 3);
    acct.rate = rng.Bernoulli(0.5) ? 1000 : 0;
    acct.burst = 4;
    acct.cap = rng.Bernoulli(0.5) ? rng.UniformInt(1, 3) : 0;
    acct.inflight = rng.UniformInt(0, 4);
    ASSERT_TRUE(store.UpsertTenant(acct).ok());
  }

  // Random history: ops of 8 transactions over 10 objects, some finished.
  RequestBatch history;
  int64_t id = 0;
  for (int i = 0; i < 40; ++i) {
    const int64_t ta = rng.UniformInt(1, 8);
    txn::OpType op;
    const double kind = rng.NextDouble();
    if (kind < 0.08) {
      op = txn::OpType::kCommit;
    } else if (kind < 0.12) {
      op = txn::OpType::kAbort;
    } else if (kind < 0.56) {
      op = txn::OpType::kRead;
    } else {
      op = txn::OpType::kWrite;
    }
    const int64_t object = op == txn::OpType::kCommit || op == txn::OpType::kAbort
                               ? -1
                               : rng.UniformInt(1, 10);
    history.push_back(Op(++id, ta, i + 1, op, object,
                         static_cast<int>(rng.UniformInt(0, 6))));
  }
  ASSERT_TRUE(store.InsertPending(history).ok());
  ASSERT_TRUE(store.MarkScheduled(history).ok());

  // Random pending requests of further transactions, random tenants.
  RequestBatch pending;
  for (int i = 0; i < 30; ++i) {
    pending.push_back(Op(++id, rng.UniformInt(4, 16), 100 + i,
                         rng.Bernoulli(0.5) ? txn::OpType::kRead
                                            : txn::OpType::kWrite,
                         rng.UniformInt(1, 10),
                         static_cast<int>(rng.UniformInt(0, 6))));
  }
  ASSERT_TRUE(store.InsertPending(pending).ok());

  const struct {
    const char* policy;
    ProtocolSpec native, composed, sql, datalog;
  } policies[] = {
      {"wfq", WfqNative(), ComposedWfq(), WfqSql(), WfqDatalog()},
      {"drr", DrrNative(), ComposedDrr(), DrrSql(), DrrDatalog()},
      {"tenant-cap", TenantCapNative(), ComposedTenantCap(), TenantCapSql(),
       TenantCapDatalog()},
  };
  for (const auto& p : policies) {
    auto native = ScheduleOnce(p.native, &store);
    auto composed = ScheduleOnce(p.composed, &store);
    auto sql = ScheduleOnce(p.sql, &store);
    auto datalog = ScheduleOnce(p.datalog, &store);
    ASSERT_TRUE(native.ok()) << p.policy << ": " << native.status().ToString();
    ASSERT_TRUE(composed.ok()) << p.policy << ": " << composed.status().ToString();
    ASSERT_TRUE(sql.ok()) << p.policy << ": " << sql.status().ToString();
    ASSERT_TRUE(datalog.ok()) << p.policy << ": " << datalog.status().ToString();
    // Order-sensitive comparison: the ranking policies declare a dispatch
    // order in every formulation; tenant-cap is unordered and every
    // backend reports it in id order.
    EXPECT_EQ(Ids(*native), Ids(*composed)) << p.policy;
    EXPECT_EQ(Ids(*native), Ids(*sql)) << p.policy;
    EXPECT_EQ(Ids(*native), Ids(*datalog)) << p.policy;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TenantEquivalenceTest, ::testing::Range(1, 31));

TEST(TenantPolicyTest, WfqPrefersLowVirtualTime) {
  RequestStore store;
  TenantAcct heavy;
  heavy.tenant = 1;
  heavy.vtime = 5000;
  ASSERT_TRUE(store.UpsertTenant(heavy).ok());
  TenantAcct light;
  light.tenant = 2;
  light.vtime = 10;
  ASSERT_TRUE(store.UpsertTenant(light).ok());
  ASSERT_TRUE(store
                  .InsertPending({Op(1, 1, 1, txn::OpType::kRead, 5, 1),
                                  Op(2, 2, 1, txn::OpType::kRead, 6, 2)})
                  .ok());
  auto batch = ScheduleOnce(WfqNative(), &store);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(Ids(*batch), (std::vector<int64_t>{2, 1}));
}

TEST(TenantPolicyTest, TenantCapDropsThrottledTenants) {
  RequestStore store;
  TenantAcct capped;
  capped.tenant = 1;
  capped.cap = 2;
  capped.inflight = 2;  // at the cap: throttled
  ASSERT_TRUE(store.UpsertTenant(capped).ok());
  TenantAcct dry;
  dry.tenant = 2;
  dry.rate = 100;
  dry.tokens = 0;  // empty bucket: throttled
  ASSERT_TRUE(store.UpsertTenant(dry).ok());
  ASSERT_TRUE(store
                  .InsertPending({Op(1, 1, 1, txn::OpType::kRead, 5, 1),
                                  Op(2, 2, 1, txn::OpType::kRead, 6, 2),
                                  Op(3, 3, 1, txn::OpType::kRead, 7, 3)})
                  .ok());
  for (const ProtocolSpec& spec :
       {TenantCapNative(), ComposedTenantCap(), TenantCapSql(),
        TenantCapDatalog()}) {
    auto batch = ScheduleOnce(spec, &store);
    ASSERT_TRUE(batch.ok()) << spec.name << ": " << batch.status().ToString();
    EXPECT_EQ(Ids(*batch), (std::vector<int64_t>{3})) << spec.name;
  }
}

TEST(TenantPolicyTest, EveryTenantIdGetsAnAutoCreatedRow) {
  // Any int is a legal tenant id — including -1, which must not collide
  // with the auto-create short-circuit. Without its row, the SQL join
  // formulations would silently drop the request.
  RequestStore store;
  ASSERT_TRUE(store
                  .InsertPending({Op(1, 1, 1, txn::OpType::kRead, 5, -1),
                                  Op(2, 2, 1, txn::OpType::kRead, 6, -1)})
                  .ok());
  EXPECT_EQ(store.tenants_by_id().count(-1), 1u);
  auto sql = ScheduleOnce(WfqSql(), &store);
  auto native = ScheduleOnce(WfqNative(), &store);
  ASSERT_TRUE(sql.ok());
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(Ids(*sql), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(Ids(*native), Ids(*sql));
}

TEST(TenantPolicyTest, DatalogRankMustBeDerived) {
  RequestStore store;
  ProtocolSpec bad = WfqDatalog();
  bad.datalog_rank = "nosuchrelation";
  EXPECT_TRUE(
      ProtocolFactory::Global().Compile(bad, &store).status().IsBindError());
}

TEST(TenantPolicyTest, StarvationBoostStageFrontsStarvedTenants) {
  // Three tenants, two requests each; at now = 500ms tenant 2's oldest
  // request has waited ~500ms, tenant 3's 450ms, tenant 1's only 50ms.
  RequestStore store;
  const struct {
    int64_t id;
    int tenant;
    int64_t arrival_us;
    int priority;
  } rows[] = {{1, 1, 450000, 0}, {2, 2, 100, 1},    {3, 3, 50000, 1},
              {4, 1, 460000, 1}, {5, 2, 470000, 0}, {6, 3, 480000, 1}};
  for (const auto& row : rows) {
    Request r = Op(row.id, row.id, 1, txn::OpType::kRead, 10 + row.id,
                   row.tenant);
    r.arrival = SimTime::FromMicros(row.arrival_us);
    r.priority = row.priority;
    ASSERT_TRUE(store.InsertPending({r}).ok());
  }
  const struct {
    const char* label;
    const char* pipeline;
    std::vector<int64_t> want;
  } cases[] = {
      // Nobody has waited 600ms: the boost keeps the fcfs order.
      {"no tenant starved", "rank:fcfs | starvation_boost:600000",
       {1, 2, 3, 4, 5, 6}},
      // Tenants 2 and 3 are starved: most-starved tenant first, each
      // tenant's requests in their fcfs order, the fresh tenant last.
      {"two tenants starved", "rank:fcfs | starvation_boost:400000",
       {2, 5, 3, 6, 1, 4}},
      // The cap truncates first (ids 1-3), then the boost re-orders what
      // is left.
      {"boost after cap", "rank:fcfs | cap:3 | starvation_boost:400000",
       {2, 3, 1}},
      // Starvation is judged against the whole pending set: the cap cut
      // tenant 2's oldest request (id 2), yet tenant 2 still counts as
      // starved, so its surviving fresh request 5 moves ahead of 1.
      {"boost after cap judges the full pending set",
       "rank:priority | cap:2 | starvation_boost:400000",
       {5, 1}},
  };
  for (const auto& c : cases) {
    ProtocolSpec spec;
    spec.name = "boost";
    spec.backend = "composed";
    spec.text = c.pipeline;
    auto compiled = ProtocolFactory::Global().Compile(spec, &store);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const ScheduleContext context{&store, SimTime::FromMicros(500000)};
    auto batch = (*compiled)->Schedule(context);
    ASSERT_TRUE(batch.ok()) << c.label;
    EXPECT_EQ(Ids(*batch), c.want) << c.label;
  }
}

// --- starvation freedom under wfq ------------------------------------------

TEST(WfqStarvationFreedomTest, LightTenantsAlwaysDispatchWithinBound) {
  // 1000 randomized tenant-skewed traces: an aggressor floods the queue
  // open-loop while each light tenant keeps one closed-loop request in
  // flight. Under wfq every light-tenant request must dispatch within a
  // small number of cycles, no matter how deep the aggressor backlog
  // grows. (Under fcfs the light tenants would wait behind the whole
  // backlog — the unfairness bench_tenant_fairness measures.)
  Rng rng(20260727);
  int64_t worst_wait = 0;
  for (int trace = 0; trace < 1000; ++trace) {
    const int light_tenants = 3 + static_cast<int>(rng.UniformInt(0, 5));
    const int aggressor_rate = 5 + static_cast<int>(rng.UniformInt(0, 7));
    const int64_t cap = 2 + rng.UniformInt(0, 4);
    const int cycles = 20 + static_cast<int>(rng.UniformInt(0, 20));
    // Fair bound: the aggressor can win the all-zero-vtime first cycles,
    // after which light tenants (lowest vtime) outrank it; each needs one
    // slot every few cycles.
    const int64_t bound = 4 + light_tenants;

    DeclarativeScheduler::Options options;
    options.protocol = WfqNative();
    options.deadlock_detection = false;
    options.max_dispatch_per_cycle = cap;
    DeclarativeScheduler sched(std::move(options), nullptr);
    ASSERT_TRUE(sched.Init().ok());

    int64_t next_ta = 1;
    int64_t next_object = 1;  // distinct objects: fairness, not locking
    std::map<int64_t, int> submit_cycle;  // id -> cycle submitted
    std::map<int, bool> light_inflight;   // tenant -> has a pending request
    auto submit_one = [&](int tenant, int cycle) {
      Request r;
      r.ta = next_ta++;
      r.intrata = 1;
      r.op = rng.Bernoulli(0.5) ? txn::OpType::kRead : txn::OpType::kWrite;
      r.object = next_object++;
      r.tenant = tenant;
      const int64_t id = sched.Submit(r, SimTime::FromMicros(cycle));
      submit_cycle[id] = cycle;
    };

    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (int i = 0; i < aggressor_rate; ++i) submit_one(/*tenant=*/0, cycle);
      for (int t = 1; t <= light_tenants; ++t) {
        if (!light_inflight[t]) {
          submit_one(t, cycle);
          light_inflight[t] = true;
        }
      }
      auto stats = sched.RunCycle(SimTime::FromMicros(cycle));
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      for (const Request& r : sched.last_dispatched()) {
        if (r.tenant == 0) continue;
        const int64_t waited = cycle - submit_cycle[r.id];
        worst_wait = std::max(worst_wait, waited);
        ASSERT_LE(waited, bound)
            << "light tenant " << r.tenant << " starved (trace " << trace
            << ", cycle " << cycle << ")";
        light_inflight[r.tenant] = false;
      }
    }
  }
  // The property must not be vacuous: some trace made a light tenant wait.
  EXPECT_GE(worst_wait, 1);
}

// --- sharded vs unsharded accounting equivalence ---------------------------

struct TraceTxn {
  txn::TxnId ta = 0;
  int tenant = 0;
  std::vector<Request> ops;  // objects strictly ascending (deadlock-free)
};

std::vector<TraceTxn> MakeTenantTrace(Rng* rng, txn::TxnId* next_ta) {
  std::vector<TraceTxn> txns;
  const int count = 24 + static_cast<int>(rng->UniformInt(0, 8));
  for (int t = 0; t < count; ++t) {
    TraceTxn txn;
    txn.ta = (*next_ta)++;
    txn.tenant = static_cast<int>(rng->UniformInt(0, 3));
    std::set<int64_t> objects;
    const int ops = 1 + static_cast<int>(rng->UniformInt(0, 3));
    while (static_cast<int>(objects.size()) < ops) {
      objects.insert(rng->UniformInt(0, 11));
    }
    int64_t intrata = 1;
    for (int64_t object : objects) {
      txn.ops.push_back(Op(0, txn.ta, intrata++,
                           rng->Bernoulli(0.6) ? txn::OpType::kWrite
                                               : txn::OpType::kRead,
                           object, txn.tenant));
    }
    txns.push_back(std::move(txn));
  }
  return txns;
}

/// Drives submit-ops / settle / submit-finishers to completion; the same
/// closed-loop contract as the escrow property test.
template <typename Submit, typename Settle>
void DriveToCompletion(const std::vector<TraceTxn>& txns, Submit submit,
                       Settle settle) {
  std::map<txn::TxnId, size_t> remaining;
  std::map<txn::TxnId, int> tenant_of;
  std::set<txn::TxnId> finisher_sent, finished;
  for (const TraceTxn& txn : txns) {
    remaining[txn.ta] = txn.ops.size();
    tenant_of[txn.ta] = txn.tenant;
    for (const Request& op : txn.ops) submit(op);
  }
  for (int round = 0; round < 1000 && finished.size() < txns.size(); ++round) {
    RequestBatch batch;
    settle(&batch);
    for (const Request& r : batch) {
      if (r.op == txn::OpType::kCommit || r.op == txn::OpType::kAbort) {
        finished.insert(r.ta);
      } else if (remaining.count(r.ta)) {
        --remaining[r.ta];
      }
    }
    for (const TraceTxn& txn : txns) {
      if (finished.count(txn.ta) || finisher_sent.count(txn.ta)) continue;
      if (remaining[txn.ta] == 0) {
        finisher_sent.insert(txn.ta);
        submit(Op(0, txn.ta, 1000, txn::OpType::kCommit, Request::kNoObject,
                  tenant_of[txn.ta]));
      }
    }
  }
  ASSERT_EQ(finished.size(), txns.size()) << "trace did not complete";
}

TEST(ShardedTenantAccountingTest, MergedSnapshotMatchesUnsharded) {
  // Same trace through the unsharded scheduler and through 2/3-shard
  // cooperative schedulers: the merged per-tenant admitted/dispatched/
  // service accounting must be identical (in-flight and finished-row
  // counts legitimately differ — mirror markers are per-shard rows).
  Rng rng(7);
  txn::TxnId next_ta = 1;
  for (int round = 0; round < 20; ++round) {
    const auto txns = MakeTenantTrace(&rng, &next_ta);

    DeclarativeScheduler::Options ref_options;
    ref_options.protocol = Ss2plNative();
    ref_options.deadlock_detection = false;
    DeclarativeScheduler reference(std::move(ref_options), nullptr);
    ASSERT_TRUE(reference.Init().ok());
    DriveToCompletion(
        txns, [&](const Request& r) { reference.Submit(r, SimTime()); },
        [&](RequestBatch* out) {
          while (true) {
            auto stats = reference.RunCycle(SimTime());
            ASSERT_TRUE(stats.ok()) << stats.status().ToString();
            const RequestBatch& batch = reference.last_dispatched();
            out->insert(out->end(), batch.begin(), batch.end());
            if (stats->dispatched == 0 && reference.queue_size() == 0) return;
          }
        });
    ASSERT_NE(reference.tenant_accountant(), nullptr);
    std::map<int64_t, TenantAccountant::TenantTotals> expected;
    for (const auto& t : reference.tenant_accountant()->Totals()) {
      expected[t.tenant] = t;
    }

    ShardedScheduler::Options options;
    options.num_shards = 2 + round % 2;
    options.shard.protocol = Ss2plNative();
    options.shard.deadlock_detection = false;
    ShardedScheduler sharded(std::move(options), nullptr);
    ASSERT_TRUE(sharded.Init().ok());
    DriveToCompletion(
        txns, [&](const Request& r) { sharded.Submit(r, SimTime()); },
        [&](RequestBatch* out) {
          ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());
          const RequestBatch batch = sharded.TakeDispatched();
          out->insert(out->end(), batch.begin(), batch.end());
        });

    const ShardedScheduler::GlobalTenantSnapshot merged =
        sharded.TenantSnapshot();
    ASSERT_EQ(merged.shards.size(),
              static_cast<size_t>(sharded.num_shards()));
    // Every shard that ran a cycle published a cycle-boundary cut.
    int published = 0;
    for (const auto& stamp : merged.shards) {
      published += stamp.version > 0 ? 1 : 0;
    }
    EXPECT_GE(published, 1);
    for (const auto& t : merged.tenants) {
      ASSERT_TRUE(expected.count(t.tenant)) << "tenant " << t.tenant;
      const auto& e = expected[t.tenant];
      EXPECT_EQ(t.admitted, e.admitted) << "tenant " << t.tenant;
      EXPECT_EQ(t.dispatched, e.dispatched) << "tenant " << t.tenant;
      EXPECT_EQ(t.service_us, e.service_us) << "tenant " << t.tenant;
      EXPECT_EQ(t.pending, 0) << "tenant " << t.tenant;
      EXPECT_EQ(e.pending, 0) << "tenant " << t.tenant;
    }
  }
}

}  // namespace
}  // namespace declsched::scheduler
