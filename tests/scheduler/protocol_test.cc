#include "scheduler/protocol.h"

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "scheduler/protocol_library.h"

namespace declsched::scheduler {
namespace {

Request Op(int64_t id, int64_t ta, int64_t intrata, txn::OpType op, int64_t object) {
  Request r;
  r.id = id;
  r.ta = ta;
  r.intrata = intrata;
  r.op = op;
  r.object = object;
  return r;
}

std::vector<std::string> Ids(const RequestBatch& batch) {
  std::vector<std::string> out;
  for (const Request& r : batch) out.push_back(std::to_string(r.id));
  return out;
}

Result<RequestBatch> ScheduleOnce(const ProtocolSpec& spec, RequestStore* store) {
  auto compiled = ProtocolFactory::Global().Compile(spec, store);
  if (!compiled.ok()) return compiled.status();
  return (*compiled)->Schedule(ScheduleContext{store, SimTime()});
}

TEST(ProtocolFactoryTest, GlobalHasAllBuiltInBackends) {
  ProtocolFactory& factory = ProtocolFactory::Global();
  for (const char* backend : {"sql", "datalog", "passthrough", "composed"}) {
    EXPECT_TRUE(factory.HasBackend(backend)) << backend;
  }
  // No `native` backend: the `*-native` specs are stage pipelines.
  EXPECT_FALSE(factory.HasBackend("native"));
  // >= rather than ==: registering a custom backend into Global() is a
  // documented extension point and must not break this test.
  EXPECT_GE(factory.Backends().size(), 4u);
}

TEST(ProtocolFactoryTest, UnknownBackendIsNotFound) {
  RequestStore store;
  ProtocolSpec spec;
  spec.name = "mystery";
  spec.backend = "prolog";
  EXPECT_TRUE(
      ProtocolFactory::Global().Compile(spec, &store).status().IsNotFound());
}

TEST(ProtocolFactoryTest, CustomBackendRegistersAndCompiles) {
  // A backend is just a compile function: protocols from new evaluation
  // strategies plug in without touching the scheduler.
  class EmptyProtocol : public Protocol {
   public:
    explicit EmptyProtocol(ProtocolSpec spec) : Protocol(std::move(spec)) {}
    Result<RequestBatch> Schedule(const ScheduleContext&) const override {
      return RequestBatch{};
    }
  };
  ProtocolFactory factory;
  ASSERT_TRUE(factory
                  .RegisterBackend(
                      "nothing",
                      [](const ProtocolSpec& spec, RequestStore*)
                          -> Result<std::unique_ptr<Protocol>> {
                        return std::unique_ptr<Protocol>(new EmptyProtocol(spec));
                      })
                  .ok());
  EXPECT_NE(factory.RegisterBackend("nothing", nullptr).code(), StatusCode::kOk);
  RequestStore store;
  ASSERT_TRUE(store.InsertPending({Op(1, 1, 1, txn::OpType::kRead, 5)}).ok());
  ProtocolSpec spec;
  spec.name = "drop-everything";
  spec.backend = "nothing";
  auto compiled = factory.Compile(spec, &store);
  ASSERT_TRUE(compiled.ok());
  auto batch = (*compiled)->Schedule(ScheduleContext{&store, SimTime()});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
  // The custom backend lives in the local factory only.
  EXPECT_FALSE(ProtocolFactory::Global().HasBackend("nothing"));
}

TEST(ProtocolLibraryTest, AllBuiltInsCompile) {
  RequestStore store;
  for (const std::string& name : ProtocolRegistry::BuiltIns().Names()) {
    auto spec = ProtocolRegistry::BuiltIns().Get(name);
    ASSERT_TRUE(spec.ok());
    auto compiled = ProtocolFactory::Global().Compile(*spec, &store);
    EXPECT_TRUE(compiled.ok()) << name << ": " << compiled.status().ToString();
  }
}

TEST(ProtocolLibraryTest, RegistryLookup) {
  ProtocolRegistry registry = ProtocolRegistry::BuiltIns();
  EXPECT_TRUE(registry.Get("ss2pl-sql").ok());
  EXPECT_TRUE(registry.Get("ss2pl-native").ok());
  EXPECT_TRUE(registry.Get("composed-rc-edf").ok());
  EXPECT_TRUE(registry.Get("wfq-native").ok());
  EXPECT_TRUE(registry.Get("tenant-cap-datalog").ok());
  EXPECT_TRUE(registry.Get("nope").status().IsNotFound());
  EXPECT_EQ(registry.Names().size(), 27u);
  EXPECT_TRUE(registry.Register(Ss2plSql()).code() == StatusCode::kAlreadyExists);
}

TEST(ProtocolLibraryTest, DatalogIsMoreSuccinctThanSql) {
  // The paper's Section 5 motivation, quantified: the Datalog formulation of
  // SS2PL is a fraction of the SQL one.
  const int sql_size = Ss2plSql().CodeSize();
  const int datalog_size = Ss2plDatalog().CodeSize();
  EXPECT_GT(sql_size, 30);
  EXPECT_LT(datalog_size, 15);
  EXPECT_LT(datalog_size * 2, sql_size);
}

TEST(ProtocolLibraryTest, CodeSizePerBackend) {
  EXPECT_EQ(Passthrough().CodeSize(), 0);
  EXPECT_EQ(Ss2plNative().CodeSize(), 2);  // filter:ss2pl | rank:fcfs
  EXPECT_EQ(ComposedReadCommittedEdf().CodeSize(), 2);   // filter | rank
  EXPECT_EQ(ComposedReadCommittedEdf(16).CodeSize(), 3); // filter | rank | cap
}

TEST(ProtocolTest, PassthroughReturnsEverythingInIdOrder) {
  RequestStore store;
  ASSERT_TRUE(store
                  .InsertPending({Op(2, 1, 2, txn::OpType::kWrite, 5),
                                  Op(1, 1, 1, txn::OpType::kWrite, 5),
                                  Op(3, 2, 1, txn::OpType::kWrite, 5)})
                  .ok());
  auto batch = ScheduleOnce(Passthrough(), &store);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(Ids(*batch), (std::vector<std::string>{"1", "2", "3"}));
}

TEST(ProtocolTest, Ss2plBlocksConflictsInEveryBackend) {
  for (const ProtocolSpec& spec : {Ss2plSql(), Ss2plDatalog(), Ss2plNative()}) {
    RequestStore store;
    // T1 write-locked object 5 (history, not finished).
    const Request held = Op(1, 1, 1, txn::OpType::kWrite, 5);
    ASSERT_TRUE(store.InsertPending({held}).ok());
    ASSERT_TRUE(store.MarkScheduled({held}).ok());
    ASSERT_TRUE(store
                    .InsertPending({Op(2, 2, 1, txn::OpType::kRead, 5),
                                    Op(3, 2, 2, txn::OpType::kRead, 9)})
                    .ok());
    auto batch = ScheduleOnce(spec, &store);
    ASSERT_TRUE(batch.ok()) << spec.name << ": " << batch.status().ToString();
    EXPECT_EQ(Ids(*batch), (std::vector<std::string>{"3"})) << spec.name;
  }
}

TEST(ProtocolTest, ReadCommittedNeverBlocksReaders) {
  for (const ProtocolSpec& spec :
       {ReadCommittedSql(), ReadCommittedDatalog(), ReadCommittedNative()}) {
    RequestStore store;
    const Request held = Op(1, 1, 1, txn::OpType::kWrite, 5);
    ASSERT_TRUE(store.InsertPending({held}).ok());
    ASSERT_TRUE(store.MarkScheduled({held}).ok());
    ASSERT_TRUE(store
                    .InsertPending({Op(2, 2, 1, txn::OpType::kRead, 5),
                                    Op(3, 3, 1, txn::OpType::kWrite, 5)})
                    .ok());
    auto batch = ScheduleOnce(spec, &store);
    ASSERT_TRUE(batch.ok()) << spec.name << ": " << batch.status().ToString();
    // The read qualifies despite the write lock; the write stays blocked.
    EXPECT_EQ(Ids(*batch), (std::vector<std::string>{"2"})) << spec.name;
  }
}

TEST(ProtocolTest, SlaPriorityOrdersPremiumFirst) {
  for (const ProtocolSpec& spec : {SlaPrioritySql(), SlaPriorityNative()}) {
    RequestStore store;
    Request low = Op(1, 1, 1, txn::OpType::kRead, 5);
    low.priority = 2;
    Request high = Op(2, 2, 1, txn::OpType::kRead, 6);
    high.priority = 0;
    Request mid = Op(3, 3, 1, txn::OpType::kRead, 7);
    mid.priority = 1;
    ASSERT_TRUE(store.InsertPending({low, high, mid}).ok());
    auto batch = ScheduleOnce(spec, &store);
    ASSERT_TRUE(batch.ok()) << spec.name << ": " << batch.status().ToString();
    EXPECT_EQ(Ids(*batch), (std::vector<std::string>{"2", "3", "1"})) << spec.name;
  }
}

TEST(ProtocolTest, EdfOrdersByDeadlineWithZeroLast) {
  for (const ProtocolSpec& spec : {EdfSql(), EdfNative()}) {
    RequestStore store;
    Request no_deadline = Op(1, 1, 1, txn::OpType::kRead, 5);
    Request late = Op(2, 2, 1, txn::OpType::kRead, 6);
    late.deadline = SimTime::FromMillis(500);
    Request soon = Op(3, 3, 1, txn::OpType::kRead, 7);
    soon.deadline = SimTime::FromMillis(100);
    ASSERT_TRUE(store.InsertPending({no_deadline, late, soon}).ok());
    auto batch = ScheduleOnce(spec, &store);
    ASSERT_TRUE(batch.ok()) << spec.name << ": " << batch.status().ToString();
    EXPECT_EQ(Ids(*batch), (std::vector<std::string>{"3", "2", "1"})) << spec.name;
  }
}

TEST(ProtocolTest, FcfsQualifiesEverything) {
  for (const ProtocolSpec& spec : {FcfsSql(), FcfsNative()}) {
    RequestStore store;
    // Even conflicting requests all qualify under FCFS (no consistency).
    ASSERT_TRUE(store
                    .InsertPending({Op(1, 1, 1, txn::OpType::kWrite, 5),
                                    Op(2, 2, 1, txn::OpType::kWrite, 5)})
                    .ok());
    auto batch = ScheduleOnce(spec, &store);
    ASSERT_TRUE(batch.ok()) << spec.name;
    EXPECT_EQ(batch->size(), 2u) << spec.name;
  }
}

TEST(ProtocolTest, CompileRejectsResultWithoutTable2Columns) {
  RequestStore store;
  ProtocolSpec bad;
  bad.name = "bad";
  bad.backend = "sql";
  bad.text = "SELECT ta, intrata FROM requests";
  EXPECT_TRUE(
      ProtocolFactory::Global().Compile(bad, &store).status().IsBindError());
}

TEST(ProtocolTest, CompileRejectsDatalogWithoutOutputRelation) {
  RequestStore store;
  ProtocolSpec bad;
  bad.name = "bad";
  bad.backend = "datalog";
  bad.text = "foo(Id) :- req(Id, _, _, _, _).";
  EXPECT_TRUE(
      ProtocolFactory::Global().Compile(bad, &store).status().IsBindError());
}

TEST(ComposedProtocolTest, FilterRankCapPipeline) {
  RequestStore store;
  // T1 write-locked object 5; pending: blocked write on 5 plus three reads
  // with distinct deadlines.
  const Request held = Op(1, 1, 1, txn::OpType::kWrite, 5);
  ASSERT_TRUE(store.InsertPending({held}).ok());
  ASSERT_TRUE(store.MarkScheduled({held}).ok());
  Request blocked_write = Op(2, 2, 1, txn::OpType::kWrite, 5);
  Request soon = Op(3, 3, 1, txn::OpType::kRead, 7);
  soon.deadline = SimTime::FromMillis(100);
  Request later = Op(4, 4, 1, txn::OpType::kRead, 8);
  later.deadline = SimTime::FromMillis(200);
  Request latest = Op(5, 5, 1, txn::OpType::kRead, 9);
  latest.deadline = SimTime::FromMillis(300);
  ASSERT_TRUE(store.InsertPending({blocked_write, soon, later, latest}).ok());

  ProtocolSpec spec = ComposedReadCommittedEdf(/*cap=*/2);
  auto compiled = ProtocolFactory::Global().Compile(spec, &store);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE((*compiled)->ordered());  // the rank stage defines the order
  auto batch = (*compiled)->Schedule(ScheduleContext{&store, SimTime()});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  // Write blocked by the filter; reads ranked by deadline; cap keeps two.
  EXPECT_EQ(Ids(*batch), (std::vector<std::string>{"3", "4"}));
}

TEST(ComposedProtocolTest, MatchesEquivalentMonolithicProtocol) {
  // filter:ss2pl | rank:priority == the sla-priority protocols.
  RequestStore store;
  Request low = Op(1, 1, 1, txn::OpType::kRead, 5);
  low.priority = 2;
  Request high = Op(2, 2, 1, txn::OpType::kRead, 6);
  high.priority = 0;
  ASSERT_TRUE(store.InsertPending({low, high}).ok());
  auto composed = ScheduleOnce(ComposedSs2plPriority(), &store);
  auto monolithic = ScheduleOnce(SlaPrioritySql(), &store);
  ASSERT_TRUE(composed.ok());
  ASSERT_TRUE(monolithic.ok());
  EXPECT_EQ(Ids(*composed), Ids(*monolithic));
}

TEST(ComposedProtocolTest, FilterAfterReducingStageKeepsAgeOrdering) {
  // Even when an earlier stage drops the older conflicting request from the
  // batch, the filter judges pending-pending conflicts against the store's
  // full pending set: the younger write must stay blocked.
  RequestStore store;
  Request old_write = Op(1, 1, 1, txn::OpType::kWrite, 5);
  old_write.priority = 1;  // ranked below the younger premium write
  Request young_write = Op(2, 2, 1, txn::OpType::kWrite, 5);
  young_write.priority = 0;
  ASSERT_TRUE(store.InsertPending({old_write, young_write}).ok());
  ProtocolSpec spec;
  spec.name = "cap-then-filter";
  spec.backend = "composed";
  spec.text = "rank:priority | cap:1 | filter:ss2pl";
  auto batch = ScheduleOnce(spec, &store);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  // The cap kept only T2's write, but T1's older pending write on the same
  // object still blocks it — nothing qualifies.
  EXPECT_TRUE(batch->empty());
}

TEST(ComposedProtocolTest, RejectsBadPipelines) {
  RequestStore store;
  for (const char* text :
       {"", " | ", "warp:9", "filter:eventual", "rank:random", "cap:-3",
        "cap:x", "cap:", "fair_rank:size", "tenant_cap:4",
        "starvation_boost:0", "starvation_boost:soon"}) {
    ProtocolSpec bad;
    bad.name = "bad";
    bad.backend = "composed";
    bad.text = text;
    EXPECT_TRUE(
        ProtocolFactory::Global().Compile(bad, &store).status().IsBindError())
        << "pipeline '" << text << "'";
  }
}

// Property: the compiled SQL (Listing 1), Datalog, and stage-pipeline
// formulations of SS2PL qualify exactly the same requests as the
// interpreted Listing 1 oracle on randomized request/history instances.
class Ss2plEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(Ss2plEquivalenceTest, EveryFormulationMatchesTheInterpretedOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  RequestStore store;

  // Random history: ops of 10 transactions over 12 objects, some finished.
  RequestBatch history;
  int64_t id = 0;
  for (int i = 0; i < 50; ++i) {
    const int64_t ta = rng.UniformInt(1, 10);
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
                               : rng.UniformInt(1, 12);
    history.push_back(Op(++id, ta, i + 1, op, object));
  }
  ASSERT_TRUE(store.InsertPending(history).ok());
  ASSERT_TRUE(store.MarkScheduled(history).ok());

  // Random pending requests of 10 further transactions.
  RequestBatch pending;
  for (int i = 0; i < 40; ++i) {
    const int64_t ta = rng.UniformInt(5, 20);
    pending.push_back(Op(++id, ta, 100 + i,
                         rng.Bernoulli(0.5) ? txn::OpType::kRead : txn::OpType::kWrite,
                         rng.UniformInt(1, 12)));
  }
  ASSERT_TRUE(store.InsertPending(pending).ok());

  // SS2PL and read-committed each agree across all their formulations.
  for (const std::vector<ProtocolSpec>& family :
       {std::vector<ProtocolSpec>{Ss2plSql(), Ss2plDatalog(), Ss2plNative(),
                                  InterpretedVariant(Ss2plDatalog())},
        std::vector<ProtocolSpec>{ReadCommittedSql(), ReadCommittedDatalog(),
                                  ReadCommittedNative(),
                                  InterpretedVariant(ReadCommittedDatalog())}}) {
    auto oracle = ScheduleOnce(InterpretedVariant(family[0]), &store);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (const ProtocolSpec& spec : family) {
      auto batch = ScheduleOnce(spec, &store);
      ASSERT_TRUE(batch.ok()) << spec.name << ": " << batch.status().ToString();
      EXPECT_EQ(Ids(*batch), Ids(*oracle)) << spec.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ss2plEquivalenceTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace declsched::scheduler
