// Differential property tests for the protocol IR: every registry spec's
// compiled form must dispatch order-identically to its interpreted oracle
// — the interpreted engine running the spec's own text for SQL/Datalog
// ("interp:" prefix), and for a stage pipeline the interpreted SQL twin
// that lowers to the same plan — across randomized
// admit/dispatch/abort/GC/switch traces, while the compiled path stays
// O(delta) (one initial lock-state rebuild per instance, enforced via the
// rebuild counters) and survives out-of-band store edits by falling back
// to a rebuild.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "scheduler/declarative_scheduler.h"
#include "scheduler/ir/compiled_protocol.h"
#include "scheduler/lock_table.h"
#include "scheduler/protocol_library.h"
#include "storage/table.h"

namespace declsched::scheduler {
namespace {

bool IsDeclarative(const ProtocolSpec& spec) {
  return spec.backend == "sql" || spec.backend == "datalog";
}

/// The SQL twin of the composed read-committed + EDF pipeline (optionally
/// capped): the read-committed text with the EDF ORDER BY.
ProtocolSpec ReadCommittedEdfSql(int64_t cap) {
  ProtocolSpec spec = ReadCommittedSql();
  spec.name = "read-committed-edf-sql";
  spec.text +=
      "ORDER BY CASE WHEN r2.deadline = 0 THEN 1 ELSE 0 END, r2.deadline, "
      "r2.id";
  if (cap > 0) spec.text += " LIMIT " + std::to_string(cap);
  spec.ordered = true;
  return spec;
}

/// The declarative twin of each built-in stage pipeline: the SQL spec that
/// lowers to the same plan (ir_lowering_test pins the plans equal), so its
/// interpreted form is the pipeline's oracle. The fairness pairs agree
/// whenever every tenant has a tenants row (the scheduler creates one on
/// first sight; see the missing-tenant note in protocol_library.h).
ProtocolSpec DeclarativeTwin(const ProtocolSpec& spec) {
  static const std::map<std::string, ProtocolSpec (*)()> kTwins = {
      {"ss2pl-native", Ss2plSql},
      {"fcfs-native", FcfsSql},
      {"sla-priority-native", SlaPrioritySql},
      {"composed-ss2pl-priority", SlaPrioritySql},
      {"edf-native", EdfSql},
      {"read-committed-native", ReadCommittedSql},
      {"wfq-native", WfqSql},
      {"composed-wfq", WfqSql},
      {"drr-native", DrrSql},
      {"composed-drr", DrrSql},
      {"tenant-cap-native", TenantCapSql},
      {"composed-tenant-cap", TenantCapSql},
  };
  if (spec.name == "composed-rc-edf") return ReadCommittedEdfSql(0);
  auto it = kTwins.find(spec.name);
  EXPECT_NE(it, kTwins.end()) << "no declarative twin for " << spec.name;
  return it == kTwins.end() ? spec : it->second();
}

/// The oracle a spec's dispatch order is compared against: the interpreted
/// engine for SQL/Datalog and (through the declarative twin) for stage
/// pipelines, a fresh instance of the same spec otherwise (passthrough).
ProtocolSpec OracleOf(const ProtocolSpec& spec) {
  if (IsDeclarative(spec)) return InterpretedVariant(spec);
  if (spec.backend == "composed") {
    return InterpretedVariant(DeclarativeTwin(spec));
  }
  return spec;
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

TEST(ProtocolIrTest, EveryDeclarativeRegistrySpecCompiles) {
  const ProtocolRegistry registry = ProtocolRegistry::BuiltIns();
  int declarative = 0;
  for (const std::string& name : registry.Names()) {
    const ProtocolSpec spec = *registry.Get(name);
    if (!IsDeclarative(spec)) continue;
    ++declarative;
    RequestStore store;
    auto protocol = ProtocolFactory::Global().Compile(spec, &store);
    ASSERT_TRUE(protocol.ok()) << name << ": " << protocol.status().ToString();
    EXPECT_NE(dynamic_cast<const ir::CompiledProtocol*>(protocol->get()),
              nullptr)
        << name << " fell back to the interpreter";
    // The interp: variant must force the interpreted engine.
    auto interp =
        ProtocolFactory::Global().Compile(InterpretedVariant(spec), &store);
    ASSERT_TRUE(interp.ok()) << name << ": " << interp.status().ToString();
    EXPECT_EQ(dynamic_cast<const ir::CompiledProtocol*>(interp->get()), nullptr)
        << name << " interp: variant did not force the interpreter";
  }
  EXPECT_EQ(declarative, 13);  // 8 SQL + 5 Datalog built-ins
}

TEST(ProtocolIrTest, EveryPipelineRegistrySpecCompiles) {
  // The `*-native` names and the composed-* specs are stage pipelines, and
  // every one of them runs on the compiled IR runtime.
  const ProtocolRegistry registry = ProtocolRegistry::BuiltIns();
  int pipelines = 0;
  for (const std::string& name : registry.Names()) {
    const ProtocolSpec spec = *registry.Get(name);
    if (spec.backend != "composed") continue;
    ++pipelines;
    RequestStore store;
    auto protocol = ProtocolFactory::Global().Compile(spec, &store);
    ASSERT_TRUE(protocol.ok()) << name << ": " << protocol.status().ToString();
    EXPECT_NE(dynamic_cast<const ir::CompiledProtocol*>(protocol->get()),
              nullptr)
        << name;
  }
  EXPECT_EQ(pipelines, 13);  // 8 *-native + 5 composed-* built-ins
}

// --- store-level differential: one Schedule() call, arbitrary store ------

/// Random store contents: pending ops, resident history of unfinished
/// transactions, termination markers, per-tenant QoS rows (caps, empty
/// token buckets), occasional out-of-band SQL DML — no delta narration at
/// all, so the compiled path's staleness fallback is load-bearing.
class RandomStoreMutator {
 public:
  explicit RandomStoreMutator(RequestStore* store, uint64_t seed)
      : store_(store), rng_(seed) {}

  void Step() {
    switch (rng_.UniformInt(0, 5)) {
      case 0:
      case 1:
        Admit(static_cast<int>(rng_.UniformInt(1, 5)));
        break;
      case 2:
        ScheduleSome();
        break;
      case 3:
        Terminate();
        break;
      case 4:
        ASSERT_TRUE(store_->GarbageCollectFinished().ok());
        break;
      case 5:
        Tweak();
        break;
    }
  }

 private:
  void Admit(int count) {
    RequestBatch batch;
    for (int i = 0; i < count; ++i) {
      const txn::TxnId ta = PickTxn();
      Request r = Op(next_id_++, ta, next_intrata_[ta]++,
                     rng_.Bernoulli(0.5) ? txn::OpType::kRead
                                         : txn::OpType::kWrite,
                     rng_.UniformInt(0, 7));
      r.priority = static_cast<int>(rng_.UniformInt(0, 2));
      r.deadline = rng_.Bernoulli(0.3)
                       ? SimTime()
                       : SimTime::FromMicros(rng_.UniformInt(1, 1000000));
      r.tenant = static_cast<int>(ta % 4);
      batch.push_back(r);
    }
    ASSERT_TRUE(store_->InsertPending(batch).ok());
  }

  void ScheduleSome() {
    RequestBatch pending = *store_->AllPending();
    RequestBatch scheduled;
    for (const Request& r : pending) {
      if (rng_.Bernoulli(0.4)) scheduled.push_back(r);
    }
    if (!scheduled.empty()) {
      ASSERT_TRUE(store_->MarkScheduled(scheduled).ok());
    }
  }

  void Terminate() {
    if (live_.empty()) return;
    const size_t pick = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(live_.size()) - 1));
    const txn::TxnId ta = live_[pick];
    live_.erase(live_.begin() + static_cast<int64_t>(pick));
    store_->DropPendingOfTransaction(ta);
    ASSERT_TRUE(store_
                    ->InsertHistory(Op(next_id_++, ta, 1 << 20,
                                       rng_.Bernoulli(0.5)
                                           ? txn::OpType::kCommit
                                           : txn::OpType::kAbort,
                                       Request::kNoObject))
                    .ok());
  }

  /// QoS rows and out-of-band DML: throttled tenants (cap hit, bucket
  /// empty), shifted vtimes/rounds, and a deleted tenants row (the
  /// missing-tenant edge: SQL's inner join drops, Datalog ranks last).
  void Tweak() {
    switch (rng_.UniformInt(0, 3)) {
      case 0: {
        TenantAcct acct = store_->TenantOrDefault(rng_.UniformInt(0, 3));
        acct.weight = rng_.UniformInt(1, 4);
        acct.vtime = rng_.UniformInt(0, 500);
        acct.round = rng_.UniformInt(0, 5);
        acct.cap = rng_.Bernoulli(0.5) ? rng_.UniformInt(1, 2) : 0;
        acct.inflight = rng_.UniformInt(0, 3);
        acct.rate = rng_.Bernoulli(0.5) ? 1 : 0;
        acct.tokens = rng_.UniformInt(0, 1);
        ASSERT_TRUE(store_->UpsertTenant(acct).ok());
        break;
      }
      case 1:
        ASSERT_TRUE(store_->sql_engine()
                        ->Execute("DELETE FROM tenants WHERE tenant = " +
                                  std::to_string(rng_.UniformInt(0, 3)))
                        .ok());
        break;
      case 2:
        ASSERT_TRUE(store_->sql_engine()
                        ->Execute("DELETE FROM history WHERE ta = " +
                                  std::to_string(rng_.UniformInt(1, 6)))
                        .ok());
        break;
      case 3:
        ASSERT_TRUE(store_->sql_engine()
                        ->Execute("UPDATE requests SET priority = 0 "
                                  "WHERE object = 3")
                        .ok());
        break;
    }
  }

  txn::TxnId PickTxn() {
    if (!live_.empty() && rng_.Bernoulli(0.75)) {
      return live_[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(live_.size()) - 1))];
    }
    const txn::TxnId ta = next_ta_++;
    live_.push_back(ta);
    return ta;
  }

  RequestStore* store_;
  Rng rng_;
  std::vector<txn::TxnId> live_;
  std::map<txn::TxnId, int64_t> next_intrata_;
  int64_t next_id_ = 1;
  txn::TxnId next_ta_ = 1;
};

std::string DescribeBatch(const RequestBatch& batch) {
  std::string out;
  for (const Request& r : batch) out += r.ToString() + " ";
  return out;
}

/// The declarative registry specs plus custom ones covering IR paths the
/// built-ins do not reach (typed WHERE filters, LIMIT, limit-fed ranks on
/// an unordered protocol), then the stage pipelines.
std::vector<ProtocolSpec> DifferentialSpecs() {
  std::vector<ProtocolSpec> specs;
  const ProtocolRegistry registry = ProtocolRegistry::BuiltIns();
  for (const std::string& name : registry.Names()) {
    const ProtocolSpec spec = *registry.Get(name);
    if (IsDeclarative(spec)) specs.push_back(spec);
  }
  ProtocolSpec premium;
  premium.name = "premium-reads";
  premium.backend = "sql";
  premium.text =
      "SELECT * FROM requests WHERE priority <= 1 AND operation <> 'w' "
      "ORDER BY priority, id";
  premium.ordered = true;
  specs.push_back(premium);

  ProtocolSpec top;
  top.name = "top5-by-deadline";
  top.backend = "sql";
  top.text = "SELECT * FROM requests ORDER BY deadline, id LIMIT 5";
  top.ordered = true;
  specs.push_back(top);

  // Unordered but limited: the rank feeding the limit must survive the
  // optimizer, and the final dispatch order is by id on both paths.
  ProtocolSpec capped = top;
  capped.name = "top5-unordered";
  capped.ordered = false;
  specs.push_back(capped);

  // An inner tenants join that no rank key reads: its semijoin effect
  // (requests of unknown tenants drop) must survive the optimizer — the
  // mutator deletes tenants rows, so a wrongly elided join diverges.
  ProtocolSpec known;
  known.name = "tenant-known-only";
  known.backend = "sql";
  known.text =
      "SELECT * FROM requests r2, tenants t WHERE r2.tenant = t.tenant "
      "ORDER BY r2.id";
  known.ordered = true;
  specs.push_back(known);

  // Stage pipelines, judged against their interpreted SQL twins. The
  // fairness pipelines sit out here: the mutator deletes tenants rows, and
  // there the pipeline (vtime/round 0) and SQL (inner join) rules differ by
  // design; the scheduler-level lockstep below covers them.
  for (const std::string& name : registry.Names()) {
    const ProtocolSpec spec = *registry.Get(name);
    if (spec.backend != "composed" || name.find("wfq") != std::string::npos ||
        name.find("drr") != std::string::npos) {
      continue;
    }
    specs.push_back(spec);
  }
  specs.push_back(ComposedReadCommittedEdf(/*cap=*/3));
  return specs;
}

TEST(ProtocolIrTest, CompiledMatchesInterpretedOnArbitraryStores) {
  for (const ProtocolSpec& spec : DifferentialSpecs()) {
    const std::string& name = spec.name;
    const ProtocolSpec oracle =
        spec.name == "composed-rc-edf-cap3"
            ? InterpretedVariant(ReadCommittedEdfSql(/*cap=*/3))
            : OracleOf(spec);
    for (uint64_t seed : {11u, 42u}) {
      RequestStore store;
      auto compiled = ProtocolFactory::Global().Compile(spec, &store);
      auto interp = ProtocolFactory::Global().Compile(oracle, &store);
      ASSERT_TRUE(compiled.ok() && interp.ok()) << name;
      // The differential is only meaningful if the subject really took
      // the compiled path.
      ASSERT_NE(dynamic_cast<const ir::CompiledProtocol*>(compiled->get()),
                nullptr)
          << name << " fell back to the interpreter";
      RandomStoreMutator mutator(&store, seed);
      for (int step = 0; step < 60; ++step) {
        mutator.Step();
        if (::testing::Test::HasFatalFailure()) return;
        ScheduleContext context{};
        context.store = &store;
        auto got = (*compiled)->Schedule(context);
        auto want = (*interp)->Schedule(context);
        ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
        ASSERT_TRUE(want.ok()) << name << ": " << want.status().ToString();
        ASSERT_EQ(got->size(), want->size())
            << name << " seed " << seed << " step " << step
            << "\ncompiled: " << DescribeBatch(*got)
            << "\ninterp:   " << DescribeBatch(*want);
        for (size_t i = 0; i < got->size(); ++i) {
          ASSERT_EQ((*got)[i].id, (*want)[i].id)
              << name << " seed " << seed << " step " << step << " position "
              << i << "\ncompiled: " << DescribeBatch(*got)
              << "\ninterp:   " << DescribeBatch(*want);
        }
      }
    }
  }
}

// --- scheduler-level differential: whole runs in lockstep ----------------

struct LockstepResult {
  int64_t submitted = 0;
  int64_t dispatched = 0;
  int committed = 0;
  int txns = 0;
};

/// Drives two schedulers on identical submissions: `subject` runs the
/// rotation's specs (switching each cycle when there are several),
/// `reference` stays on `oracle`. Asserts order-exact dispatch equality
/// every cycle and exactly-once dispatch overall. Tenants carry weights
/// and a rate-limited token bucket (sim time advances one second per
/// cycle, so throttled tenants always make progress eventually).
void RunLockstepDifferential(const std::vector<ProtocolSpec>& rotation,
                             const ProtocolSpec& oracle, uint64_t seed,
                             LockstepResult* out) {
  LockstepResult& result = *out;
  DeclarativeScheduler::Options options;
  options.protocol = rotation[0];
  options.tenant_qos.tenants[1].weight = 2;
  options.tenant_qos.tenants[2].rate = 3;
  DeclarativeScheduler subject(options, nullptr);
  EXPECT_TRUE(subject.Init().ok());

  DeclarativeScheduler::Options ref_options;
  ref_options.protocol = oracle;
  ref_options.tenant_qos = options.tenant_qos;
  DeclarativeScheduler reference(ref_options, nullptr);
  EXPECT_TRUE(reference.Init().ok());

  // Closed-loop workload: each transaction touches distinct objects in
  // ascending order (deadlock-free), ends in a commit or abort marker;
  // SLA columns and tenants are randomized but identical on both sides.
  constexpr int kTxns = 12;
  constexpr int kOpsPerTxn = 4;
  result.txns = kTxns;
  Rng rng(seed);
  std::map<int64_t, int> next_op;
  std::map<int64_t, std::vector<Request>> script;
  for (int64_t ta = 1; ta <= kTxns; ++ta) {
    std::set<int64_t> objects;
    while (static_cast<int>(objects.size()) < kOpsPerTxn) {
      objects.insert(rng.UniformInt(0, 7));
    }
    int k = 0;
    for (int64_t object : objects) {
      Request r = Op(0, ta, ++k,
                     rng.Bernoulli(0.4) ? txn::OpType::kWrite
                                        : txn::OpType::kRead,
                     object);
      r.priority = static_cast<int>(rng.UniformInt(0, 2));
      r.deadline = rng.Bernoulli(0.3)
                       ? SimTime()
                       : SimTime::FromMicros(rng.UniformInt(1, 1000000));
      r.tenant = static_cast<int>(ta % 3);
      script[ta].push_back(r);
    }
    Request fin = Op(0, ta, kOpsPerTxn + 1,
                     rng.Bernoulli(0.2) ? txn::OpType::kAbort
                                        : txn::OpType::kCommit,
                     Request::kNoObject);
    fin.tenant = static_cast<int>(ta % 3);
    script[ta].push_back(fin);
  }

  std::set<int64_t> dispatched_ids;
  SimTime now;
  auto submit_next = [&](int64_t ta) {
    const int k = next_op[ta];
    if (k >= static_cast<int>(script[ta].size())) return;
    subject.Submit(script[ta][static_cast<size_t>(k)], now);
    reference.Submit(script[ta][static_cast<size_t>(k)], now);
    ++next_op[ta];
    ++result.submitted;
  };
  for (int64_t ta = 1; ta <= kTxns; ++ta) submit_next(ta);

  std::set<int64_t> finished;
  int cycle = 0;
  while (static_cast<int>(finished.size()) < kTxns && cycle < 400) {
    now = SimTime::FromMicros((cycle + 1) * 1000000);  // token refill ticks
    const ProtocolSpec& spec =
        rotation[static_cast<size_t>(cycle) % rotation.size()];
    if (rotation.size() > 1) {
      EXPECT_TRUE(subject.SwitchProtocol(spec).ok()) << spec.name;
    }
    auto subject_stats = subject.RunCycle(now);
    auto reference_stats = reference.RunCycle(now);
    EXPECT_TRUE(subject_stats.ok()) << subject_stats.status().ToString();
    EXPECT_TRUE(reference_stats.ok()) << reference_stats.status().ToString();

    const RequestBatch& got = subject.last_dispatched();
    const RequestBatch& want = reference.last_dispatched();
    ASSERT_EQ(got.size(), want.size())
        << "cycle " << cycle << " protocol " << spec.name
        << "\nsubject:   " << DescribeBatch(got)
        << "\nreference: " << DescribeBatch(want);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id)
          << "cycle " << cycle << " position " << i << " protocol "
          << spec.name << "\nsubject:   " << DescribeBatch(got)
          << "\nreference: " << DescribeBatch(want);
    }
    for (const Request& r : got) {
      ASSERT_TRUE(dispatched_ids.insert(r.id).second)
          << "request #" << r.id << " dispatched twice";
      ++result.dispatched;
      if (r.op == txn::OpType::kCommit || r.op == txn::OpType::kAbort) {
        finished.insert(r.ta);
      } else {
        submit_next(r.ta);
      }
    }
    ++cycle;
  }
  result.committed = static_cast<int>(finished.size());
}

TEST(ProtocolIrTest, LockstepDifferentialAcrossAllRegistrySpecs) {
  const ProtocolRegistry registry = ProtocolRegistry::BuiltIns();
  int specs = 0;
  for (const std::string& name : registry.Names()) {
    const ProtocolSpec spec = *registry.Get(name);
    ++specs;
    LockstepResult result;
    RunLockstepDifferential({spec}, OracleOf(spec), /*seed=*/1000, &result);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "divergence on " << name;
      return;
    }
    // Every transaction must have finished — also guards against a
    // compiled plan that silently dispatches nothing.
    EXPECT_EQ(result.committed, result.txns) << name;
    EXPECT_EQ(result.dispatched, result.submitted) << name;
  }
  EXPECT_EQ(specs, 27);
}

TEST(ProtocolIrTest, CompiledStaysODeltaAcrossWholeRuns) {
  // A persistent compiled instance must be fed entirely by deltas: the
  // only lock-state rebuild is the initial sync.
  for (const char* name : {"ss2pl-sql", "ss2pl-datalog", "wfq-sql",
                           "tenant-cap-datalog", "edf-sql"}) {
    const ProtocolSpec spec = *ProtocolRegistry::BuiltIns().Get(name);
    DeclarativeScheduler::Options options;
    options.protocol = spec;
    DeclarativeScheduler sched(options, nullptr);
    ASSERT_TRUE(sched.Init().ok());
    Rng rng(7);
    int64_t next_ta = 1;
    for (int cycle = 0; cycle < 40; ++cycle) {
      for (int i = 0; i < 4; ++i) {
        const txn::TxnId ta = next_ta++;
        Request r = Op(0, ta, 1,
                       rng.Bernoulli(0.5) ? txn::OpType::kRead
                                          : txn::OpType::kWrite,
                       rng.UniformInt(0, 9));
        r.tenant = static_cast<int>(ta % 3);
        sched.Submit(r, SimTime());
        Request fin = Op(0, ta, 2, txn::OpType::kCommit, Request::kNoObject);
        fin.tenant = r.tenant;
        sched.Submit(fin, SimTime());
      }
      ASSERT_TRUE(sched.RunCycle(SimTime()).ok());
    }
    const auto* compiled =
        dynamic_cast<const ir::CompiledProtocol*>(sched.active_protocol());
    ASSERT_NE(compiled, nullptr) << name;
    EXPECT_EQ(compiled->lock_state().full_rebuilds(), 1) << name;
    EXPECT_GT(compiled->lock_state().deltas_applied(), 0) << name;
  }
}

TEST(ProtocolIrTest, LockstepAcrossCompiledInterpretedAndPipelineSwitches) {
  // Every switch compiles a fresh instance whose incremental state starts
  // unsynced — it must resync and continue exactly where the interpreted
  // reference is, with no dropped or duplicated dispatches.
  const ProtocolSpec sql = Ss2plSql();
  const std::vector<ProtocolSpec> rotation = {
      sql, InterpretedVariant(sql), Ss2plDatalog(), Ss2plNative(),
      ComposedSs2plPriority()};
  LockstepResult result;
  RunLockstepDifferential(rotation, InterpretedVariant(sql), /*seed=*/2024,
                          &result);
  EXPECT_EQ(result.committed, result.txns);
  EXPECT_EQ(result.dispatched, result.submitted);
}

TEST(ProtocolIrTest, OutOfBandEditFallsBackToRebuildAndStaysExact) {
  const ProtocolSpec spec = *ProtocolRegistry::BuiltIns().Get("ss2pl-sql");
  DeclarativeScheduler::Options options;
  options.protocol = spec;
  DeclarativeScheduler subject(options, nullptr);
  ASSERT_TRUE(subject.Init().ok());
  DeclarativeScheduler::Options ref_options;
  ref_options.protocol = InterpretedVariant(spec);
  DeclarativeScheduler reference(ref_options, nullptr);
  ASSERT_TRUE(reference.Init().ok());

  auto both_cycles_equal = [&]() {
    auto s = subject.RunCycle(SimTime());
    auto r = reference.RunCycle(SimTime());
    ASSERT_TRUE(s.ok() && r.ok());
    const RequestBatch& got = subject.last_dispatched();
    const RequestBatch& want = reference.last_dispatched();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id);
    }
  };

  // Two transactions contending on one object; T1 holds the write lock.
  for (auto* sched : {&subject, &reference}) {
    sched->Submit(Op(0, 1, 1, txn::OpType::kWrite, 5), SimTime());
  }
  both_cycles_equal();
  for (auto* sched : {&subject, &reference}) {
    sched->Submit(Op(0, 2, 1, txn::OpType::kWrite, 5), SimTime());
  }
  both_cycles_equal();  // T2 blocked by T1's lock on both sides

  const auto* compiled =
      dynamic_cast<const ir::CompiledProtocol*>(subject.active_protocol());
  ASSERT_NE(compiled, nullptr);
  const int64_t rebuilds_before = compiled->lock_state().full_rebuilds();

  // Yank T1's history rows out from under both schedulers with ad-hoc DML
  // (never narrated): the compiled side must detect the content-version
  // move, rebuild, and agree that T2 is now free to go.
  for (auto* sched : {&subject, &reference}) {
    auto dml = sched->store()->sql_engine()->Execute(
        "DELETE FROM history WHERE ta = 1");
    ASSERT_TRUE(dml.ok());
    EXPECT_EQ(*dml, 1);
  }
  both_cycles_equal();
  EXPECT_EQ(compiled->lock_state().full_rebuilds(), rebuilds_before + 1);
  bool dispatched_t2 = false;
  for (const Request& r : subject.last_dispatched()) {
    dispatched_t2 |= r.ta == 2;
  }
  EXPECT_TRUE(dispatched_t2);
}

TEST(ProtocolIrTest, CompiledSurvivesAutoVacuumRowCompaction) {
  // storage::Table vacuum compacts the heap and remaps RowIds WITHOUT
  // bumping the content version, so incremental state keyed on RowIds
  // would read remapped slots while still counting as synced. A vacuum
  // between cycles must neither change any dispatch nor push the compiled
  // side off the delta path.
  const ProtocolSpec spec = *ProtocolRegistry::BuiltIns().Get("ss2pl-sql");
  DeclarativeScheduler::Options options;
  options.protocol = spec;
  DeclarativeScheduler subject(options, nullptr);
  ASSERT_TRUE(subject.Init().ok());
  DeclarativeScheduler::Options ref_options;
  ref_options.protocol = InterpretedVariant(spec);
  DeclarativeScheduler reference(ref_options, nullptr);
  ASSERT_TRUE(reference.Init().ok());

  // Make auto-vacuum maximally aggressive on the subject's requests table
  // so every bulk-delete boundary (MarkScheduled) compacts the heap.
  storage::Table* requests =
      subject.store()->catalog()->GetTable("requests");
  ASSERT_NE(requests, nullptr);
  requests->SetAutoVacuum(/*live_ratio=*/0.99, /*min_slots=*/1);

  Rng rng(31);
  int64_t next_ta = 1;
  for (int cycle = 0; cycle < 30; ++cycle) {
    for (int i = 0; i < 3; ++i) {
      const txn::TxnId ta = next_ta++;
      Request r = Op(0, ta, 1,
                     rng.Bernoulli(0.5) ? txn::OpType::kRead
                                        : txn::OpType::kWrite,
                     rng.UniformInt(0, 5));
      r.priority = static_cast<int>(rng.UniformInt(0, 2));
      subject.Submit(r, SimTime());
      reference.Submit(r, SimTime());
      Request fin = Op(0, ta, 2, txn::OpType::kCommit, Request::kNoObject);
      subject.Submit(fin, SimTime());
      reference.Submit(fin, SimTime());
    }
    auto s = subject.RunCycle(SimTime());
    auto r = reference.RunCycle(SimTime());
    ASSERT_TRUE(s.ok() && r.ok());
    const RequestBatch& got = subject.last_dispatched();
    const RequestBatch& want = reference.last_dispatched();
    ASSERT_EQ(got.size(), want.size()) << "cycle " << cycle;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id)
          << "cycle " << cycle << " position " << i
          << "\ncompiled: " << DescribeBatch(got)
          << "\ninterp:   " << DescribeBatch(want);
    }
    // Force an extra mid-run compaction on top of the auto-vacuums, the
    // worst case for any RowId-keyed state: remap with no version bump.
    if (cycle % 5 == 4) requests->Vacuum();
  }
  const auto* compiled =
      dynamic_cast<const ir::CompiledProtocol*>(subject.active_protocol());
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->lock_state().full_rebuilds(), 1);
}

}  // namespace
}  // namespace declsched::scheduler
