// Differential property tests for the vectorized IR executor (ISSUE 9):
// every compiled spec run on the vec executor must dispatch
// order-identically to the scalar executor (its in-IR oracle, selectable
// via ScalarExecVariant) across randomized stores, whole scheduler runs of
// every registry spec, protocol-switch rotations, unnarrated-mutation
// rebuild paths, and storage-level vacuum row compaction — while the vec
// path's columnar mirror stays O(delta) (one initial rebuild per instance,
// enforced via its counters).

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "scheduler/declarative_scheduler.h"
#include "scheduler/ir/compiled_protocol.h"
#include "scheduler/ir/explain.h"
#include "scheduler/protocol_library.h"
#include "storage/table.h"

namespace declsched::scheduler {
namespace {

bool IsDeclarative(const ProtocolSpec& spec) {
  return spec.backend == "sql" || spec.backend == "datalog";
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

const ir::CompiledProtocol* AsCompiled(const Protocol* protocol) {
  return dynamic_cast<const ir::CompiledProtocol*>(protocol);
}

TEST(IrVecTest, CompiledSpecsRunVecByDefaultScalarByOption) {
  const ProtocolRegistry registry = ProtocolRegistry::BuiltIns();
  int declarative = 0;
  for (const std::string& name : registry.Names()) {
    const ProtocolSpec spec = *registry.Get(name);
    if (!IsDeclarative(spec)) continue;
    ++declarative;
    RequestStore store;
    auto vec = ProtocolFactory::Global().Compile(spec, &store);
    ASSERT_TRUE(vec.ok()) << name;
    const auto* vec_compiled = AsCompiled(vec->get());
    ASSERT_NE(vec_compiled, nullptr) << name;
    EXPECT_TRUE(vec_compiled->uses_vec()) << name << " not vec by default";
    EXPECT_NE(vec_compiled->mirror(), nullptr) << name;

    auto scalar =
        ProtocolFactory::Global().Compile(ScalarExecVariant(spec), &store);
    ASSERT_TRUE(scalar.ok()) << name;
    const auto* scalar_compiled = AsCompiled(scalar->get());
    ASSERT_NE(scalar_compiled, nullptr) << name;
    EXPECT_FALSE(scalar_compiled->uses_vec())
        << name << " scalar: variant did not force the scalar executor";
    EXPECT_EQ(scalar_compiled->mirror(), nullptr) << name;

    // EXPLAIN names the executor for both variants.
    auto vec_explain = ir::ExplainProtocol(spec, &store);
    ASSERT_TRUE(vec_explain.ok()) << name;
    EXPECT_NE(vec_explain->find("executor: vectorized"), std::string::npos)
        << *vec_explain;
    auto scalar_explain = ir::ExplainProtocol(ScalarExecVariant(spec), &store);
    ASSERT_TRUE(scalar_explain.ok()) << name;
    EXPECT_NE(scalar_explain->find("executor: scalar"), std::string::npos)
        << *scalar_explain;
  }
  EXPECT_EQ(declarative, 13);  // 8 SQL + 5 Datalog built-ins
}

// --- store-level differential: one Schedule() call, arbitrary store ------

/// Random store contents: pending ops, resident history of unfinished
/// transactions, termination markers, per-tenant QoS rows (caps, empty
/// token buckets), occasional out-of-band SQL DML — no delta narration at
/// all, so the vec path's staleness rebuild is load-bearing every step.
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

  /// QoS rows and out-of-band DML, including the edits that age the
  /// columnar mirror underneath the executor: deleted tenants rows,
  /// history deletes, and in-place UPDATEs of pending columns.
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

/// The declarative registry specs plus custom ones covering IR paths the
/// built-ins do not reach (typed WHERE filters, LIMIT, limit-fed ranks on
/// an unordered protocol, a semijoin no rank key reads).
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

  ProtocolSpec capped = top;
  capped.name = "top5-unordered";
  capped.ordered = false;
  specs.push_back(capped);

  ProtocolSpec known;
  known.name = "tenant-known-only";
  known.backend = "sql";
  known.text =
      "SELECT * FROM requests r2, tenants t WHERE r2.tenant = t.tenant "
      "ORDER BY r2.id";
  known.ordered = true;
  specs.push_back(known);
  return specs;
}

TEST(IrVecTest, VecMatchesScalarOnArbitraryStores) {
  for (const ProtocolSpec& spec : DifferentialSpecs()) {
    const std::string& name = spec.name;
    for (uint64_t seed : {13u, 77u}) {
      RequestStore store;
      auto vec = ProtocolFactory::Global().Compile(spec, &store);
      auto scalar =
          ProtocolFactory::Global().Compile(ScalarExecVariant(spec), &store);
      ASSERT_TRUE(vec.ok() && scalar.ok()) << name;
      ASSERT_TRUE(AsCompiled(vec->get())->uses_vec()) << name;
      ASSERT_FALSE(AsCompiled(scalar->get())->uses_vec()) << name;
      RandomStoreMutator mutator(&store, seed);
      for (int step = 0; step < 60; ++step) {
        mutator.Step();
        if (::testing::Test::HasFatalFailure()) return;
        ScheduleContext context{};
        context.store = &store;
        auto got = (*vec)->Schedule(context);
        auto want = (*scalar)->Schedule(context);
        ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
        ASSERT_TRUE(want.ok()) << name << ": " << want.status().ToString();
        ASSERT_EQ(got->size(), want->size())
            << name << " seed " << seed << " step " << step
            << "\nvec:    " << DescribeBatch(*got)
            << "\nscalar: " << DescribeBatch(*want);
        for (size_t i = 0; i < got->size(); ++i) {
          ASSERT_EQ((*got)[i].id, (*want)[i].id)
              << name << " seed " << seed << " step " << step << " position "
              << i << "\nvec:    " << DescribeBatch(*got)
              << "\nscalar: " << DescribeBatch(*want);
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
/// rotation's specs (switching each cycle when there are several) on the
/// vectorized executor, `reference` stays on `oracle`. Asserts order-exact
/// dispatch equality every cycle and exactly-once dispatch overall.
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

TEST(IrVecTest, LockstepDifferentialAcrossAllRegistrySpecs) {
  // Every registry spec, declaratives against their scalar-executor
  // variant. Non-declarative specs never lower (ScalarExecVariant returns
  // them unchanged); running them anyway keeps the whole-run liveness
  // assertions over the full registry.
  const ProtocolRegistry registry = ProtocolRegistry::BuiltIns();
  int specs = 0;
  for (const std::string& name : registry.Names()) {
    const ProtocolSpec spec = *registry.Get(name);
    ++specs;
    LockstepResult result;
    RunLockstepDifferential({spec}, ScalarExecVariant(spec), /*seed=*/1000,
                            &result);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "divergence on " << name;
      return;
    }
    EXPECT_EQ(result.committed, result.txns) << name;
    EXPECT_EQ(result.dispatched, result.submitted) << name;
  }
  EXPECT_EQ(specs, 27);
}

TEST(IrVecTest, VecMirrorStaysODeltaAcrossWholeRuns) {
  // A persistent vec-compiled instance must be fed entirely by deltas:
  // the only columnar-mirror rebuild (and lock-state rebuild) is the
  // initial sync. Covers both anti-join sides plus fairness joins.
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
    const auto* compiled = AsCompiled(sched.active_protocol());
    ASSERT_NE(compiled, nullptr) << name;
    ASSERT_TRUE(compiled->uses_vec()) << name;
    const auto* mirror = compiled->mirror();
    ASSERT_NE(mirror, nullptr) << name;
    EXPECT_EQ(mirror->full_rebuilds(), 1) << name;
    EXPECT_GT(mirror->deltas_applied(), 0) << name;
    // Tombstones from 160 dispatched transactions must have been compacted
    // away, not accumulated forever.
    EXPECT_GT(mirror->compactions(), 0) << name;
    EXPECT_EQ(compiled->lock_state().full_rebuilds(), 1) << name;
  }
}

TEST(IrVecTest, LockstepAcrossExecutorAndBackendSwitches) {
  // Rotating vec-compiled, scalar-compiled, interpreted, Datalog, and
  // stage-pipeline instances mid-run: every switch starts a fresh columnar mirror
  // unsynced — it must resync and continue exactly where the scalar
  // reference is, with no dropped or duplicated dispatches.
  const ProtocolSpec sql = Ss2plSql();
  const std::vector<ProtocolSpec> rotation = {
      sql, ScalarExecVariant(sql), InterpretedVariant(sql), Ss2plDatalog(),
      Ss2plNative()};
  LockstepResult result;
  RunLockstepDifferential(rotation, ScalarExecVariant(sql), /*seed=*/2024,
                          &result);
  EXPECT_EQ(result.committed, result.txns);
  EXPECT_EQ(result.dispatched, result.submitted);
}

TEST(IrVecTest, UnnarratedMutationFallsBackToRebuildAndStaysExact) {
  // Ad-hoc DML against the pending relation (never narrated through a
  // hook) must age the columnar mirror into a rebuild — and the dispatch
  // after it must still match the scalar oracle exactly.
  const ProtocolSpec spec =
      *ProtocolRegistry::BuiltIns().Get("sla-priority-sql");
  DeclarativeScheduler::Options options;
  options.protocol = spec;
  DeclarativeScheduler subject(options, nullptr);
  ASSERT_TRUE(subject.Init().ok());
  DeclarativeScheduler::Options ref_options;
  ref_options.protocol = ScalarExecVariant(spec);
  DeclarativeScheduler reference(ref_options, nullptr);
  ASSERT_TRUE(reference.Init().ok());

  auto both_cycles_equal = [&]() {
    auto s = subject.RunCycle(SimTime());
    auto r = reference.RunCycle(SimTime());
    ASSERT_TRUE(s.ok() && r.ok());
    const RequestBatch& got = subject.last_dispatched();
    const RequestBatch& want = reference.last_dispatched();
    ASSERT_EQ(got.size(), want.size())
        << "\nvec:    " << DescribeBatch(got)
        << "\nscalar: " << DescribeBatch(want);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id);
    }
  };

  // Seed both sides with contending work so pending stays resident.
  for (auto* sched : {&subject, &reference}) {
    sched->Submit(Op(0, 1, 1, txn::OpType::kWrite, 5), SimTime());
    sched->Submit(Op(0, 2, 1, txn::OpType::kWrite, 5), SimTime());
    sched->Submit(Op(0, 3, 1, txn::OpType::kRead, 6), SimTime());
  }
  both_cycles_equal();

  const auto* compiled = AsCompiled(subject.active_protocol());
  ASSERT_NE(compiled, nullptr);
  ASSERT_TRUE(compiled->uses_vec());
  const int64_t rebuilds_before = compiled->mirror()->full_rebuilds();

  // Rewrite a pending column in place on both sides: the vec mirror must
  // detect the unnarrated content-version move and rebuild, and the next
  // dispatch must reflect the new priorities identically.
  for (auto* sched : {&subject, &reference}) {
    auto dml = sched->store()->sql_engine()->Execute(
        "UPDATE requests SET priority = 9 WHERE object = 5");
    ASSERT_TRUE(dml.ok());
  }
  both_cycles_equal();
  EXPECT_EQ(compiled->mirror()->full_rebuilds(), rebuilds_before + 1);
}

TEST(IrVecTest, ColumnarMirrorSurvivesAutoVacuumRowCompaction) {
  // Regression (ISSUE 9 satellite): storage::Table vacuum compacts the
  // heap and remaps RowIds WITHOUT bumping the content version — a mirror
  // keyed on RowIds would keep reading remapped slots while still counting
  // as synced. The columnar mirror identifies rows by id value, so a
  // vacuum between cycles must neither desync it nor change any dispatch.
  const ProtocolSpec spec = *ProtocolRegistry::BuiltIns().Get("ss2pl-sql");
  DeclarativeScheduler::Options options;
  options.protocol = spec;
  DeclarativeScheduler subject(options, nullptr);
  ASSERT_TRUE(subject.Init().ok());
  DeclarativeScheduler::Options ref_options;
  ref_options.protocol = ScalarExecVariant(spec);
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
          << "\nvec:    " << DescribeBatch(got)
          << "\nscalar: " << DescribeBatch(want);
    }
    // Force an extra mid-run compaction on top of the auto-vacuums, the
    // worst case for any RowId-keyed state: remap with no version bump.
    if (cycle % 5 == 4) requests->Vacuum();
  }
  // Vacuum does not bump the content version, so the mirror must have
  // stayed on the delta path throughout (one initial rebuild only).
  const auto* compiled = AsCompiled(subject.active_protocol());
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->mirror()->full_rebuilds(), 1);
}

}  // namespace
}  // namespace declsched::scheduler
