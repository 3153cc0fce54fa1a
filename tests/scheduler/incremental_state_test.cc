// Property tests for the incremental scheduler state: the delta-maintained
// LockTableState must answer exactly like a from-scratch BuildLockTable()
// after arbitrary dispatch/abort/GC/switch sequences, and the incremental
// compiled protocols must dispatch exactly like the stateless interpreted
// Listing 1 oracle ("interp:ss2pl-sql") across whole scheduler runs,
// protocol switches included.

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "scheduler/declarative_scheduler.h"
#include "scheduler/lock_table.h"
#include "scheduler/protocol_library.h"

namespace declsched::scheduler {
namespace {

Request Op(int64_t id, int64_t ta, int64_t intrata, txn::OpType op,
           int64_t object) {
  Request r;
  r.id = id;
  r.ta = ta;
  r.intrata = intrata;
  r.op = op;
  r.object = object;
  return r;
}

/// Order-insensitive view of a LockTable for equality checks.
struct NormalizedLocks {
  std::set<txn::TxnId> finished;
  std::map<txn::ObjectId, std::set<txn::TxnId>> wlocks;
  std::map<txn::ObjectId, std::set<txn::TxnId>> rlocks;

  bool operator==(const NormalizedLocks& other) const {
    return finished == other.finished && wlocks == other.wlocks &&
           rlocks == other.rlocks;
  }
};

NormalizedLocks Normalize(const LockTable& table) {
  NormalizedLocks n;
  n.finished.insert(table.finished.begin(), table.finished.end());
  for (const auto& [object, holders] : table.wlocks) {
    n.wlocks[object].insert(holders.begin(), holders.end());
  }
  for (const auto& [object, holders] : table.rlocks) {
    n.rlocks[object].insert(holders.begin(), holders.end());
  }
  return n;
}

std::string Describe(const NormalizedLocks& n) {
  std::string out = "finished{";
  for (txn::TxnId ta : n.finished) out += std::to_string(ta) + ",";
  out += "} w{";
  for (const auto& [object, holders] : n.wlocks) {
    out += std::to_string(object) + ":[";
    for (txn::TxnId ta : holders) out += std::to_string(ta) + ",";
    out += "]";
  }
  out += "} r{";
  for (const auto& [object, holders] : n.rlocks) {
    out += std::to_string(object) + ":[";
    for (txn::TxnId ta : holders) out += std::to_string(ta) + ",";
    out += "]";
  }
  return out + "}";
}

/// Drives a RequestStore exactly like DeclarativeScheduler does — every
/// history mutation immediately narrated to the LockTableState — while
/// checking the incremental table against the from-scratch derivation
/// after every step.
class NarratedStoreDriver {
 public:
  explicit NarratedStoreDriver(uint64_t seed) : rng_(seed) {}

  void AdmitRandomOps(int count) {
    RequestBatch batch;
    for (int i = 0; i < count; ++i) {
      const txn::TxnId ta = PickTxn();
      const auto op = rng_.Bernoulli(0.5) ? txn::OpType::kRead : txn::OpType::kWrite;
      batch.push_back(Op(next_id_++, ta, next_intrata_[ta]++, op,
                         rng_.UniformInt(0, 7)));
    }
    ASSERT_TRUE(store_.InsertPending(batch).ok());
    // (Pending-only change: nothing to narrate to the lock state.)
  }

  void ScheduleRandomSubset() {
    RequestBatch pending = *store_.AllPending();
    if (pending.empty()) return;
    RequestBatch scheduled;
    for (const Request& r : pending) {
      if (rng_.Bernoulli(0.5)) scheduled.push_back(r);
    }
    if (scheduled.empty()) scheduled.push_back(pending[0]);
    ASSERT_TRUE(store_.MarkScheduled(scheduled).ok());
    state_.ApplyHistoryAppend(scheduled, store_);
  }

  void TerminateRandomTxn() {
    if (live_txns_.empty()) return;
    const size_t pick = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(live_txns_.size()) - 1));
    const txn::TxnId ta = live_txns_[pick];
    live_txns_.erase(live_txns_.begin() + static_cast<int64_t>(pick));
    const auto op = rng_.Bernoulli(0.5) ? txn::OpType::kCommit : txn::OpType::kAbort;
    if (op == txn::OpType::kAbort) {
      // The scheduler's deadlock-victim path: drop pending, inject marker.
      store_.DropPendingOfTransaction(ta);
      RequestBatch marker{
          Op(next_id_++, ta, 1 << 30, txn::OpType::kAbort, Request::kNoObject)};
      ASSERT_TRUE(store_.InsertHistory(marker[0]).ok());
      state_.ApplyHistoryAppend(marker, store_);
    } else {
      // The regular path: a commit request scheduled like any other.
      RequestBatch marker{
          Op(next_id_++, ta, next_intrata_[ta]++, txn::OpType::kCommit,
             Request::kNoObject)};
      ASSERT_TRUE(store_.InsertPending(marker).ok());
      ASSERT_TRUE(store_.MarkScheduled(marker).ok());
      state_.ApplyHistoryAppend(marker, store_);
    }
  }

  void CollectGarbage() {
    auto gc = store_.GarbageCollectFinished();
    ASSERT_TRUE(gc.ok());
    if (!gc->txns.empty()) state_.ApplyFinished(gc->txns, store_);
  }

  void CheckEquivalence() {
    const NormalizedLocks incremental = Normalize(state_.Refresh(store_));
    const NormalizedLocks scratch = Normalize(BuildLockTable(&store_));
    ASSERT_EQ(incremental, scratch)
        << "incremental: " << Describe(incremental)
        << "\nscratch:     " << Describe(scratch);
  }

  RequestStore* store() { return &store_; }
  LockTableState* state() { return &state_; }
  Rng* rng() { return &rng_; }

 private:
  txn::TxnId PickTxn() {
    // Mostly reuse a live transaction; sometimes start a new one.
    if (!live_txns_.empty() && rng_.Bernoulli(0.8)) {
      return live_txns_[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(live_txns_.size()) - 1))];
    }
    const txn::TxnId ta = next_ta_++;
    live_txns_.push_back(ta);
    return ta;
  }

  RequestStore store_;
  LockTableState state_;
  Rng rng_;
  std::vector<txn::TxnId> live_txns_;
  std::map<txn::TxnId, int64_t> next_intrata_;
  int64_t next_id_ = 1;
  txn::TxnId next_ta_ = 1;
};

TEST(LockTableStateTest, MatchesFromScratchUnderRandomNarratedSequences) {
  for (uint64_t seed : {1u, 7u, 23u, 99u}) {
    NarratedStoreDriver driver(seed);
    driver.CheckEquivalence();  // initial sync (counts the one rebuild)
    for (int step = 0; step < 120; ++step) {
      switch (driver.rng()->UniformInt(0, 3)) {
        case 0:
          driver.AdmitRandomOps(static_cast<int>(driver.rng()->UniformInt(1, 6)));
          break;
        case 1:
          driver.ScheduleRandomSubset();
          break;
        case 2:
          driver.TerminateRandomTxn();
          break;
        case 3:
          driver.CollectGarbage();
          break;
      }
      driver.CheckEquivalence();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The whole run must have been served by deltas: the only full scan is
    // the initial sync. This is the O(delta) claim, enforced.
    EXPECT_EQ(driver.state()->full_rebuilds(), 1) << "seed " << seed;
    EXPECT_GT(driver.state()->deltas_applied(), 0) << "seed " << seed;
  }
}

TEST(LockTableStateTest, UnnarratedMutationFallsBackToRebuild) {
  NarratedStoreDriver driver(/*seed=*/5);
  driver.AdmitRandomOps(8);
  driver.ScheduleRandomSubset();
  driver.CheckEquivalence();
  const int64_t rebuilds_before = driver.state()->full_rebuilds();

  // Mutate history behind the state's back (no hook): next Refresh() must
  // detect the missed epoch and rebuild rather than answer stale.
  RequestBatch sneak{Op(1000000, 77, 1, txn::OpType::kWrite, 3)};
  ASSERT_TRUE(driver.store()->InsertPending(sneak).ok());
  ASSERT_TRUE(driver.store()->MarkScheduled(sneak).ok());
  driver.CheckEquivalence();
  EXPECT_EQ(driver.state()->full_rebuilds(), rebuilds_before + 1);

  // A delta that skips a mutation (store two epochs ahead) must be refused
  // wholesale, not half-applied: apply only the second of two mutations.
  RequestBatch missed{Op(1000001, 78, 1, txn::OpType::kWrite, 4)};
  RequestBatch late{Op(1000002, 79, 1, txn::OpType::kWrite, 5)};
  ASSERT_TRUE(driver.store()->InsertPending(missed).ok());
  ASSERT_TRUE(driver.store()->MarkScheduled(missed).ok());
  ASSERT_TRUE(driver.store()->InsertPending(late).ok());
  ASSERT_TRUE(driver.store()->MarkScheduled(late).ok());
  driver.state()->ApplyHistoryAppend(late, *driver.store());
  const int64_t rebuilds_mid = driver.state()->full_rebuilds();
  driver.CheckEquivalence();
  EXPECT_EQ(driver.state()->full_rebuilds(), rebuilds_mid + 1);

  // Out-of-band SQL DML on history never bumps the store epoch, but it
  // moves the table's content version — Refresh() must still notice.
  const int64_t rebuilds_end = driver.state()->full_rebuilds();
  auto dml =
      driver.store()->sql_engine()->Execute("DELETE FROM history WHERE ta = 78");
  ASSERT_TRUE(dml.ok());
  EXPECT_EQ(*dml, 1);
  driver.CheckEquivalence();
  EXPECT_EQ(driver.state()->full_rebuilds(), rebuilds_end + 1);
}

/// Runs two schedulers in lockstep on identical submissions: `subject`
/// hops across backends mid-run, `reference` stays on the stateless
/// interpreted Listing 1 oracle. Every cycle must dispatch identical request
/// sequences, and every submitted request must dispatch exactly once.
void RunLockstep(const std::vector<ProtocolSpec>& rotation, uint64_t seed) {
  DeclarativeScheduler::Options options;
  options.protocol = rotation[0];
  DeclarativeScheduler subject(options, nullptr);
  ASSERT_TRUE(subject.Init().ok());

  DeclarativeScheduler::Options ref_options;
  ref_options.protocol = InterpretedVariant(Ss2plSql());
  DeclarativeScheduler reference(ref_options, nullptr);
  ASSERT_TRUE(reference.Init().ok());

  // Closed-loop workload: contended objects, explicit commits. Each
  // transaction touches distinct objects in ascending order, so runs are
  // deadlock-free and every transaction eventually commits.
  constexpr int kTxns = 12;
  constexpr int kOpsPerTxn = 4;
  Rng rng(seed);
  std::map<int64_t, int> next_op;
  std::map<int64_t, std::vector<Request>> script;  // ta -> op sequence
  for (int64_t ta = 1; ta <= kTxns; ++ta) {
    std::set<int64_t> objects;
    while (static_cast<int>(objects.size()) < kOpsPerTxn) {
      objects.insert(rng.UniformInt(0, 7));
    }
    int k = 0;
    for (int64_t object : objects) {  // std::set iterates ascending
      const auto op = rng.Bernoulli(0.4) ? txn::OpType::kWrite : txn::OpType::kRead;
      script[ta].push_back(Op(0, ta, ++k, op, object));
    }
    script[ta].push_back(
        Op(0, ta, kOpsPerTxn + 1, txn::OpType::kCommit, Request::kNoObject));
  }

  std::set<int64_t> dispatched_ids;
  int64_t submitted = 0;
  auto submit_next = [&](int64_t ta) {
    const int k = next_op[ta];
    if (k >= static_cast<int>(script[ta].size())) return;
    subject.Submit(script[ta][static_cast<size_t>(k)], SimTime());
    reference.Submit(script[ta][static_cast<size_t>(k)], SimTime());
    ++next_op[ta];
    ++submitted;
  };
  for (int64_t ta = 1; ta <= kTxns; ++ta) submit_next(ta);

  std::set<int64_t> committed;
  int cycle = 0;
  while (static_cast<int>(committed.size()) < kTxns && cycle < 400) {
    const ProtocolSpec& spec = rotation[static_cast<size_t>(cycle) % rotation.size()];
    // With a single-spec rotation the subject keeps one protocol instance
    // for the whole run — the persistent delta-fed path; with more, every
    // hop compiles a fresh instance that must resync first.
    if (rotation.size() > 1) {
      ASSERT_TRUE(subject.SwitchProtocol(spec).ok()) << spec.name;
    }
    auto subject_stats = subject.RunCycle(SimTime());
    auto reference_stats = reference.RunCycle(SimTime());
    ASSERT_TRUE(subject_stats.ok()) << subject_stats.status().ToString();
    ASSERT_TRUE(reference_stats.ok()) << reference_stats.status().ToString();
    EXPECT_EQ(subject_stats->victims, 0);  // ordered access: no deadlocks

    const RequestBatch& got = subject.last_dispatched();
    const RequestBatch& want = reference.last_dispatched();
    ASSERT_EQ(got.size(), want.size())
        << "cycle " << cycle << " protocol " << spec.name;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id)
          << "cycle " << cycle << " position " << i << " protocol " << spec.name;
    }
    for (const Request& r : got) {
      ASSERT_TRUE(dispatched_ids.insert(r.id).second)
          << "request #" << r.id << " dispatched twice";
      if (r.op == txn::OpType::kCommit) {
        committed.insert(r.ta);
      } else {
        submit_next(r.ta);
      }
    }
    ++cycle;
  }
  EXPECT_EQ(committed.size(), static_cast<size_t>(kTxns)) << "seed " << seed;
  EXPECT_EQ(static_cast<int64_t>(dispatched_ids.size()), submitted);
}

TEST(IncrementalProtocolTest, MatchesInterpretedOracleAcrossWholeRuns) {
  RunLockstep({Ss2plNative()}, /*seed=*/101);
  RunLockstep({Ss2plNative()}, /*seed=*/202);
  RunLockstep({Ss2plSql()}, /*seed=*/101);
}

TEST(IncrementalProtocolTest, MatchesInterpretedOracleAcrossSwitches) {
  // Every switch compiles a fresh compiled instance whose incremental state
  // starts unsynced — it must rebuild and continue exactly where the
  // stateless reference is, with no dropped or duplicated dispatches.
  RunLockstep({Ss2plNative(), Ss2plSql(), Ss2plNative(), Ss2plDatalog()},
              /*seed=*/303);
  RunLockstep({Ss2plNative(), ComposedSs2plPriority()}, /*seed=*/404);
}

}  // namespace
}  // namespace declsched::scheduler
