// Runtime protocol switching across backends: the paper's flexibility claim
// (protocols are data) must hold when the replacement protocol runs on a
// different backend entirely — SQL to Datalog to a composed stage
// pipeline to the interpreted oracle — with pending requests preserved and
// every dispatched request delivered exactly once.

#include <map>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "scheduler/declarative_scheduler.h"
#include "scheduler/middleware_sim.h"
#include "scheduler/protocol_library.h"

namespace declsched::scheduler {
namespace {

Request Op(int64_t ta, int64_t intrata, txn::OpType op, int64_t object) {
  Request r;
  r.ta = ta;
  r.intrata = intrata;
  r.op = op;
  r.object = object;
  return r;
}

TEST(ProtocolSwitchTest, SwitchAcrossAllFourBackendsPreservesPending) {
  server::DatabaseServer::Config server_config;
  server_config.num_rows = 100;
  server::DatabaseServer server(server_config);
  DeclarativeScheduler scheduler({}, &server);
  ASSERT_TRUE(scheduler.Init().ok());
  EXPECT_EQ(scheduler.protocol().backend, "sql");

  // T1 write-locks object 5; T2's write of 5 stays pending.
  scheduler.Submit(Op(1, 1, txn::OpType::kWrite, 5), SimTime());
  ASSERT_TRUE(scheduler.RunCycle(SimTime()).ok());
  scheduler.Submit(Op(2, 1, txn::OpType::kWrite, 5), SimTime());
  auto stats = scheduler.RunCycle(SimTime());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->qualified, 0);
  EXPECT_EQ(scheduler.store()->pending_count(), 1);

  // Hop across every backend; the blocked request must survive each hop.
  for (const ProtocolSpec& spec :
       {Ss2plDatalog(), Ss2plNative(), ComposedSs2plPriority()}) {
    ASSERT_TRUE(scheduler.SwitchProtocol(spec).ok()) << spec.name;
    EXPECT_EQ(scheduler.protocol().name, spec.name);
    EXPECT_EQ(scheduler.store()->pending_count(), 1) << spec.name;
    stats = scheduler.RunCycle(SimTime());
    ASSERT_TRUE(stats.ok()) << spec.name;
    EXPECT_EQ(stats->qualified, 0) << spec.name;  // still blocked, same rules
    EXPECT_EQ(scheduler.store()->pending_count(), 1) << spec.name;
  }

  // T1 commits (under the composed backend); T2's write frees next cycle.
  scheduler.Submit(Op(1, 2, txn::OpType::kCommit, Request::kNoObject), SimTime());
  stats = scheduler.RunCycle(SimTime());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->qualified, 1);  // the commit
  stats = scheduler.RunCycle(SimTime());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->qualified, 1);  // T2's freed write, dispatched exactly once
  EXPECT_EQ(scheduler.store()->pending_count(), 0);
}

TEST(ProtocolSwitchTest, RotatingBackendsDispatchEachRequestExactlyOnce) {
  // Closed-loop clients: 6 transactions, each 3 writes (objects in ascending
  // order, so no deadlocks) plus a commit. The active protocol rotates
  // through every backend every cycle — including the stateless interpreted
  // oracle, so each hop back to a compiled protocol lands on a fresh
  // instance whose lock state must resync before answering. No dispatch may
  // be lost or duplicated across switches.
  const std::vector<ProtocolSpec> rotation = {
      Ss2plSql(), Ss2plDatalog(), Ss2plNative(), InterpretedVariant(Ss2plSql()),
      ComposedSs2plPriority()};

  server::DatabaseServer::Config server_config;
  server_config.num_rows = 10;
  server::DatabaseServer server(server_config);
  DeclarativeScheduler scheduler({}, &server);
  ASSERT_TRUE(scheduler.Init().ok());

  constexpr int kTxns = 6;
  constexpr int kWritesPerTxn = 3;
  std::map<int64_t, int> next_op;       // ta -> ops submitted so far
  std::map<int64_t, int64_t> submitted; // request id -> ta
  std::set<int64_t> dispatched_ids;
  std::set<int64_t> committed;

  auto submit_next = [&](int64_t ta) {
    const int k = next_op[ta];
    if (k > kWritesPerTxn) return;
    Request r = k < kWritesPerTxn
                    // Shared objects 0..2: transactions contend.
                    ? Op(ta, k + 1, txn::OpType::kWrite, k % 3)
                    : Op(ta, k + 1, txn::OpType::kCommit, Request::kNoObject);
    const int64_t id = scheduler.Submit(r, SimTime());
    submitted[id] = ta;
    ++next_op[ta];
  };

  for (int64_t ta = 1; ta <= kTxns; ++ta) submit_next(ta);

  int cycle = 0;
  while (static_cast<int>(committed.size()) < kTxns && cycle < 500) {
    const ProtocolSpec& spec = rotation[cycle % rotation.size()];
    const int64_t pending_before = scheduler.store()->pending_count();
    ASSERT_TRUE(scheduler.SwitchProtocol(spec).ok()) << spec.name;
    // Switching alone must not consume or invent pending work.
    ASSERT_EQ(scheduler.store()->pending_count(), pending_before) << spec.name;

    auto stats = scheduler.RunCycle(SimTime());
    ASSERT_TRUE(stats.ok()) << spec.name << ": " << stats.status().ToString();
    EXPECT_EQ(stats->victims, 0);  // ordered object access: no deadlocks
    for (const Request& r : scheduler.last_dispatched()) {
      ASSERT_TRUE(dispatched_ids.insert(r.id).second)
          << "request #" << r.id << " dispatched twice (cycle " << cycle
          << ", protocol " << spec.name << ")";
      if (r.op == txn::OpType::kCommit) {
        committed.insert(r.ta);
      } else {
        submit_next(r.ta);
      }
    }
    ++cycle;
  }

  EXPECT_EQ(committed.size(), static_cast<size_t>(kTxns));
  // Every submitted request was dispatched exactly once — nothing dropped.
  EXPECT_EQ(dispatched_ids.size(), submitted.size());
  for (const auto& [id, ta] : submitted) {
    EXPECT_TRUE(dispatched_ids.count(id) > 0) << "request #" << id << " lost";
  }
}

TEST(ProtocolSwitchTest, SchedulerCompilesThroughSuppliedFactory) {
  // Custom backends need not pollute ProtocolFactory::Global(): the
  // scheduler accepts a local factory via Options.
  class DropAllProtocol : public Protocol {
   public:
    explicit DropAllProtocol(ProtocolSpec spec) : Protocol(std::move(spec)) {}
    Result<RequestBatch> Schedule(const ScheduleContext&) const override {
      return RequestBatch{};
    }
  };
  ProtocolFactory factory;
  ASSERT_TRUE(factory
                  .RegisterBackend("drop-all",
                                   [](const ProtocolSpec& spec, RequestStore*)
                                       -> Result<std::unique_ptr<Protocol>> {
                                     return std::unique_ptr<Protocol>(
                                         new DropAllProtocol(spec));
                                   })
                  .ok());
  DeclarativeScheduler::Options options;
  options.protocol.name = "drop-everything";
  options.protocol.backend = "drop-all";
  options.deadlock_detection = false;
  options.factory = &factory;
  DeclarativeScheduler scheduler(options, nullptr);
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.Submit(Op(1, 1, txn::OpType::kRead, 5), SimTime());
  auto stats = scheduler.RunCycle(SimTime());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->qualified, 0);  // the custom backend drops everything
  EXPECT_EQ(scheduler.store()->pending_count(), 1);
  // Switching resolves through the same supplied factory (global backends
  // are invisible to it).
  EXPECT_TRUE(scheduler.SwitchProtocol(Ss2plSql()).IsNotFound());
}

TEST(ProtocolSwitchTest, AdaptiveControllerSwitchesAcrossBackendsMidSim) {
  // Full middleware simulation whose adaptive controller relaxes from the
  // declarative SS2PL SQL protocol to the composed read-committed pipeline
  // under load — a cross-backend switch happening mid-simulation.
  MiddlewareSimConfig config;
  config.num_clients = 40;
  config.duration = SimTime::FromSeconds(120);
  config.workload.num_objects = 30;  // heavy contention: pending builds up
  config.workload.reads_per_txn = 3;
  config.workload.writes_per_txn = 3;
  config.server.num_rows = 30;
  config.seed = 13;
  config.max_committed_txns = 200;
  AdaptiveConsistencyController::Options adaptive;
  adaptive.strict = Ss2plNative();
  adaptive.relaxed = ComposedReadCommittedEdf();
  adaptive.relax_above = 25;
  adaptive.tighten_below = 5;
  config.adaptive = adaptive;
  auto result = RunMiddlewareSimulation(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->protocol_switches, 0);
  EXPECT_GT(result->committed_txns, 0);
}

}  // namespace
}  // namespace declsched::scheduler
