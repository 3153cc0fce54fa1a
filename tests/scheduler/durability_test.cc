// Scheduler durability: logical WAL codecs, store-level log+replay
// equality, snapshot/restore, and end-to-end crash/recover/continue on the
// sharded scheduler — including re-publication of escrow fan-out mirrors,
// the piece whose in-memory inboxes die with the process.

#include "scheduler/durability.h"

#include <sys/stat.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "scheduler/protocol_library.h"
#include "scheduler/shard_router.h"
#include "scheduler/sharded_scheduler.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "test_util.h"

namespace declsched::scheduler {
namespace {

using ::declsched::testing::ScopedTempDir;

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

/// Canonical dump of one store's relations, for state equality.
std::vector<std::string> DumpStore(const RequestStore& store) {
  std::vector<std::string> rows;
  const auto add = [&rows](const char* rel, const Request& r) {
    rows.push_back(std::string(rel) + ":" + std::to_string(r.id) + "," +
                   std::to_string(r.ta) + "," + std::to_string(r.intrata) +
                   "," + txn::OpTypeToChar(r.op) + "," +
                   std::to_string(r.object) + ",t" + std::to_string(r.tenant));
  };
  for (const auto& [id, r] : store.pending_by_id()) add("pending", r);
  store.catalog()->GetTable("history")->ForEach(
      [&](storage::RowId, const storage::Row& row) {
        add("history", RequestStore::RowToRequestFull(row));
      });
  for (const auto& [tenant, acct] : store.tenants_by_id()) {
    rows.push_back("tenant:" + std::to_string(acct.tenant) + ",w" +
                   std::to_string(acct.weight) + ",v" +
                   std::to_string(acct.vtime) + ",i" +
                   std::to_string(acct.inflight));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// --- codecs -----------------------------------------------------------------

TEST(DurabilityCodecTest, RequestsRoundtrip) {
  RequestBatch batch;
  batch.push_back(Op(1, 10, 1, txn::OpType::kWrite, 5));
  batch.push_back(Op(2, 10, 2, txn::OpType::kRead, 6));
  Request commit = Op(3, 10, 3, txn::OpType::kCommit, Request::kNoObject);
  commit.priority = 7;
  commit.deadline = SimTime::FromMicros(123456);
  commit.arrival = SimTime::FromMicros(99);
  commit.client = 4;
  commit.tenant = 2;
  batch.push_back(commit);

  auto decoded = DecodeRequests(EncodeRequests(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.ValueOrDie().size(), 3u);
  const Request& r = decoded.ValueOrDie()[2];
  EXPECT_EQ(r.id, 3);
  EXPECT_EQ(r.ta, 10);
  EXPECT_EQ(r.op, txn::OpType::kCommit);
  EXPECT_EQ(r.priority, 7);
  EXPECT_EQ(r.deadline.micros(), 123456);
  EXPECT_EQ(r.arrival.micros(), 99);
  EXPECT_EQ(r.client, 4);
  EXPECT_EQ(r.tenant, 2);

  // Truncated payloads are loud, not quiet.
  const std::string bytes = EncodeRequests(batch);
  EXPECT_FALSE(DecodeRequests(bytes.substr(0, bytes.size() - 1)).ok());
  EXPECT_FALSE(DecodeRequests(bytes + "x").ok());
}

TEST(DurabilityCodecTest, TenantAndFanoutRoundtrip) {
  TenantAcct acct;
  acct.tenant = 3;
  acct.weight = 2;
  acct.vtime = 777;
  acct.inflight = 5;
  auto decoded = DecodeTenant(EncodeTenant(acct));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().tenant, 3);
  EXPECT_EQ(decoded.ValueOrDie().vtime, 777);
  EXPECT_EQ(decoded.ValueOrDie().inflight, 5);

  const Request marker = Op(9, 44, 5, txn::OpType::kCommit, Request::kNoObject);
  auto fanout = DecodeEscrowFanout(EncodeEscrowFanout(0b1011, marker));
  ASSERT_TRUE(fanout.ok());
  EXPECT_EQ(fanout.ValueOrDie().mask, 0b1011u);
  EXPECT_EQ(fanout.ValueOrDie().marker.ta, 44);
  EXPECT_EQ(fanout.ValueOrDie().marker.op, txn::OpType::kCommit);
}

// --- store-level log + replay ----------------------------------------------

TEST(DurabilityStoreTest, ReplayedLogReproducesStoreState) {
  const ScopedTempDir dir("durability_test");
  RequestStore logged;
  {
    storage::Wal::Options options;
    options.path = storage::WalPath(dir);
    auto wal = storage::Wal::Open(options, 1);
    ASSERT_TRUE(wal.ok());
    logged.AttachWal(wal.ValueOrDie().get(), 0);

    RequestBatch batch;
    batch.push_back(Op(1, 10, 1, txn::OpType::kWrite, 5));
    batch.push_back(Op(2, 11, 1, txn::OpType::kRead, 6));
    ASSERT_TRUE(logged.InsertPending(batch).ok());
    ASSERT_TRUE(logged.MarkScheduled({batch[0]}).ok());
    ASSERT_TRUE(
        logged
            .InsertHistory(Op(3, 10, 2, txn::OpType::kCommit, Request::kNoObject))
            .ok());
    TenantAcct acct;
    acct.tenant = 1;
    acct.weight = 3;
    acct.vtime = 500;
    ASSERT_TRUE(logged.UpsertTenant(acct).ok());
    logged.DropPendingOfTransaction(11);
    ASSERT_TRUE(logged.GarbageCollectFinished().ok());
    EXPECT_GT(logged.last_wal_lsn(), 0u);
    logged.DetachWal();
    ASSERT_TRUE(wal.ValueOrDie()->Close().ok());
  }

  RequestStore replayed;
  auto stats = storage::ScanWal(storage::WalPath(dir),
                                [&](const storage::WalRecord& record) {
                                  return ApplyWalRecord(&replayed, record);
                                });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.ValueOrDie().records, 6u);
  EXPECT_EQ(DumpStore(replayed), DumpStore(logged));
}

TEST(DurabilityStoreTest, SnapshotRestoreReproducesStoreState) {
  RequestStore original;
  RequestBatch batch;
  batch.push_back(Op(1, 20, 1, txn::OpType::kWrite, 3));
  batch.push_back(Op(2, 21, 1, txn::OpType::kWrite, 4));
  ASSERT_TRUE(original.InsertPending(batch).ok());
  ASSERT_TRUE(original.MarkScheduled({batch[1]}).ok());
  TenantAcct acct;
  acct.tenant = 0;
  acct.weight = 9;
  acct.vtime = 123;
  ASSERT_TRUE(original.UpsertTenant(acct).ok());

  RequestStore restored;
  ASSERT_TRUE(RestoreShardStore(&restored, SnapshotShardStore(original)).ok());
  EXPECT_EQ(DumpStore(restored), DumpStore(original));
  // The derived typed mirror rebuilt correctly too, not just the rows.
  EXPECT_EQ(restored.pending_count(), original.pending_count());
  EXPECT_EQ(restored.history_count(), original.history_count());
}

TEST(DurabilityStoreTest, ReplayAgainstWalAttachedStoreRefuses) {
  const ScopedTempDir dir("durability_test");
  storage::Wal::Options options;
  options.path = storage::WalPath(dir);
  auto wal = storage::Wal::Open(options, 1);
  ASSERT_TRUE(wal.ok());
  RequestStore store;
  store.AttachWal(wal.ValueOrDie().get(), 0);
  storage::WalRecord record;
  record.type = static_cast<uint8_t>(WalRecordType::kGc);
  EXPECT_FALSE(ApplyWalRecord(&store, record).ok());
  EXPECT_FALSE(RestoreShardStore(&store, {}).ok());
  store.DetachWal();
  ASSERT_TRUE(wal.ValueOrDie()->Close().ok());
}

// --- end-to-end: sharded scheduler crash / recover / continue ---------------

ShardedScheduler::Options DurableOptions(const std::string& dir,
                                         int num_shards) {
  ShardedScheduler::Options options;
  options.num_shards = num_shards;
  options.shard.protocol = Ss2plNative();
  options.shard.deadlock_detection = false;
  options.durability.enabled = true;
  options.durability.dir = dir;
  return options;
}

/// Submits and fully finishes `ta` (ops then commit, closed-loop).
void RunTxn(ShardedScheduler* sched, txn::TxnId ta,
            const std::vector<int64_t>& objects) {
  int64_t intrata = 1;
  for (int64_t object : objects) {
    sched->Submit(Op(0, ta, intrata++, txn::OpType::kWrite, object), SimTime());
  }
  ASSERT_TRUE(sched->RunUntilIdle(SimTime()).ok());
  sched->Submit(Op(0, ta, intrata, txn::OpType::kCommit, Request::kNoObject),
                SimTime());
  ASSERT_TRUE(sched->RunUntilIdle(SimTime()).ok());
}

TEST(DurabilityShardedTest, RecoverReproducesStateAndKeepsWorking) {
  const ScopedTempDir dir("durability_test");
  std::vector<std::vector<std::string>> pre_crash;
  {
    auto sched = std::make_unique<ShardedScheduler>(DurableOptions(dir, 2),
                                                    nullptr);
    ASSERT_TRUE(sched->Init().ok());
    EXPECT_FALSE(sched->recovery_result().snapshot_loaded);
    // A finished cross-shard transaction and a still-running one that holds
    // locks across the crash.
    RunTxn(sched.get(), 100, {0, 1, 2, 3, 4, 5});
    sched->Submit(Op(0, 200, 1, txn::OpType::kWrite, 0), SimTime());
    sched->Submit(Op(0, 200, 2, txn::OpType::kWrite, 1), SimTime());
    ASSERT_TRUE(sched->RunUntilIdle(SimTime()).ok());
    for (int s = 0; s < 2; ++s) {
      pre_crash.push_back(DumpStore(*sched->shard(s)->store()));
    }
    // No checkpoint: the destructor flushes the WAL buffer but writes no
    // snapshot — recovery must replay the whole log.
  }
  {
    auto sched = std::make_unique<ShardedScheduler>(DurableOptions(dir, 2),
                                                    nullptr);
    ASSERT_TRUE(sched->Init().ok());
    EXPECT_GT(sched->recovery_result().records_replayed, 0);
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(DumpStore(*sched->shard(s)->store()), pre_crash[s])
          << "shard " << s << " diverged after replay";
    }
    // The recovered instance is live: finish txn 200 (its locks and
    // footprint must have been re-established) and run a fresh one over
    // the same objects.
    sched->Submit(Op(0, 200, 3, txn::OpType::kCommit, Request::kNoObject),
                  SimTime());
    ASSERT_TRUE(sched->RunUntilIdle(SimTime()).ok());
    RunTxn(sched.get(), 201, {0, 1, 2});
    EXPECT_EQ(sched->shard(0)->store()->pending_count() +
                  sched->shard(1)->store()->pending_count(),
              0);
  }
}

TEST(DurabilityShardedTest, CheckpointMakesNextRecoveryReplayNothing) {
  const ScopedTempDir dir("durability_test");
  std::vector<std::vector<std::string>> pre;
  {
    auto sched = std::make_unique<ShardedScheduler>(DurableOptions(dir, 2),
                                                    nullptr);
    ASSERT_TRUE(sched->Init().ok());
    RunTxn(sched.get(), 300, {0, 1, 2, 3});
    sched->Submit(Op(0, 301, 1, txn::OpType::kWrite, 2), SimTime());
    ASSERT_TRUE(sched->RunUntilIdle(SimTime()).ok());
    ASSERT_TRUE(sched->Checkpoint().ok());
    for (int s = 0; s < 2; ++s) {
      pre.push_back(DumpStore(*sched->shard(s)->store()));
    }
  }
  {
    auto sched = std::make_unique<ShardedScheduler>(DurableOptions(dir, 2),
                                                    nullptr);
    ASSERT_TRUE(sched->Init().ok());
    EXPECT_TRUE(sched->recovery_result().snapshot_loaded);
    EXPECT_EQ(sched->recovery_result().records_replayed, 0);
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(DumpStore(*sched->shard(s)->store()), pre[s]);
    }
  }
}

TEST(DurabilityShardedTest, RecoveredIdsDoNotCollide) {
  const ScopedTempDir dir("durability_test");
  {
    auto sched = std::make_unique<ShardedScheduler>(DurableOptions(dir, 1),
                                                    nullptr);
    ASSERT_TRUE(sched->Init().ok());
    sched->Submit(Op(0, 50, 1, txn::OpType::kWrite, 7), SimTime());
    ASSERT_TRUE(sched->RunUntilIdle(SimTime()).ok());
  }
  auto sched = std::make_unique<ShardedScheduler>(DurableOptions(dir, 1),
                                                  nullptr);
  ASSERT_TRUE(sched->Init().ok());
  EXPECT_EQ(sched->recovered_max_ta(), 50);
  // A new submission must get an id above the restored row's.
  const int64_t id = sched->Submit(
      Op(0, 51, 1, txn::OpType::kWrite, 8), SimTime());
  EXPECT_GT(id, 1);
}

TEST(DurabilityShardedTest, EscrowFanoutRepublishedOnRecovery) {
  // Hand-crafts the exact crash the fanout record exists for: the home
  // shard dispatched (and GC'd) a cross-shard commit, but the receiving
  // shard never applied its mirror — its locks would leak forever without
  // re-publication.
  const int kShards = 2;
  ShardRouter router(kShards);
  int64_t object_on_1 = -1;
  for (int64_t o = 0; o < 64; ++o) {
    if (router.ShardOfObject(o) == 1) {
      object_on_1 = o;
      break;
    }
  }
  ASSERT_GE(object_on_1, 0);

  const ScopedTempDir dir("durability_test");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0755) == 0 || errno == EEXIST, true);
  {
    storage::Wal::Options options;
    options.path = storage::WalPath(dir);
    auto wal = storage::Wal::Open(options, 1);
    ASSERT_TRUE(wal.ok());
    storage::Wal* w = wal.ValueOrDie().get();
    // Shard 1: txn 77's write dispatched (pending -> history, no marker):
    // its lock on object_on_1 is held.
    const Request write = Op(5, 77, 1, txn::OpType::kWrite, object_on_1);
    w->Append(static_cast<uint8_t>(WalRecordType::kInsertPending), 1,
              EncodeRequests({write}));
    w->Append(static_cast<uint8_t>(WalRecordType::kMarkScheduled), 1,
              EncodeRequestIds({write}));
    // Shard 0 (home): the commit marker dispatched and was GC'd in the
    // same cycle — the only durable evidence of the fan-out is this record.
    const Request marker =
        Op(6, 77, 2, txn::OpType::kCommit, Request::kNoObject);
    w->Append(static_cast<uint8_t>(WalRecordType::kEscrowFanout), 0,
              EncodeEscrowFanout(0b11, marker));
    ASSERT_TRUE(w->Close().ok());
  }

  auto sched = std::make_unique<ShardedScheduler>(
      DurableOptions(dir, kShards), nullptr);
  ASSERT_TRUE(sched->Init().ok());
  // The re-published mirror releases txn 77's lock; a conflicting write
  // must dispatch instead of stalling.
  sched->Submit(Op(0, 88, 1, txn::OpType::kWrite, object_on_1), SimTime());
  ASSERT_TRUE(sched->RunUntilIdle(SimTime()).ok());
  bool dispatched = false;
  for (const Request& r : sched->TakeDispatched()) {
    if (r.ta == 88) dispatched = true;
  }
  EXPECT_TRUE(dispatched)
      << "txn 88 stalled: the recovered shard still holds txn 77's lock";
}

TEST(DurabilityShardedTest, HomeMarkerWithoutFanoutRepublishedOnRecovery) {
  // The crash one record earlier: the home shard's dispatch of a
  // cross-shard commit is durable (its marker is in history), but the
  // fanout record appended after it is not. The marker alone proves the
  // finisher dispatched, so the receiving shard is still owed its mirror.
  const int kShards = 2;
  ShardRouter router(kShards);
  int64_t object_on_1 = -1;
  for (int64_t o = 0; o < 64; ++o) {
    if (router.ShardOfObject(o) == 1) {
      object_on_1 = o;
      break;
    }
  }
  ASSERT_GE(object_on_1, 0);

  const ScopedTempDir dir("durability_test");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0755) == 0 || errno == EEXIST, true);
  {
    storage::Wal::Options options;
    options.path = storage::WalPath(dir);
    auto wal = storage::Wal::Open(options, 1);
    ASSERT_TRUE(wal.ok());
    storage::Wal* w = wal.ValueOrDie().get();
    const Request write = Op(5, 77, 1, txn::OpType::kWrite, object_on_1);
    w->Append(static_cast<uint8_t>(WalRecordType::kInsertPending), 1,
              EncodeRequests({write}));
    w->Append(static_cast<uint8_t>(WalRecordType::kMarkScheduled), 1,
              EncodeRequestIds({write}));
    // Shard 0 (home): the commit dispatched; no GC, no fanout record.
    const Request commit =
        Op(6, 77, 2, txn::OpType::kCommit, Request::kNoObject);
    w->Append(static_cast<uint8_t>(WalRecordType::kInsertPending), 0,
              EncodeRequests({commit}));
    w->Append(static_cast<uint8_t>(WalRecordType::kMarkScheduled), 0,
              EncodeRequestIds({commit}));
    ASSERT_TRUE(w->Close().ok());
  }

  auto sched = std::make_unique<ShardedScheduler>(
      DurableOptions(dir, kShards), nullptr);
  ASSERT_TRUE(sched->Init().ok());
  sched->Submit(Op(0, 88, 1, txn::OpType::kWrite, object_on_1), SimTime());
  ASSERT_TRUE(sched->RunUntilIdle(SimTime()).ok());
  bool dispatched = false;
  for (const Request& r : sched->TakeDispatched()) {
    if (r.ta == 88) dispatched = true;
  }
  EXPECT_TRUE(dispatched)
      << "txn 88 stalled: the recovered shard still holds txn 77's lock";
}

TEST(DurabilityShardedTest, SyncDispatchWalMakesCycleDurableBeforeDispatch) {
  const ScopedTempDir dir("durability_test");
  ShardedScheduler::Options options = DurableOptions(dir, 1);
  options.shard.sync_dispatch_wal = true;
  options.keep_dispatch_log = true;
  auto sched = std::make_unique<ShardedScheduler>(std::move(options), nullptr);
  ASSERT_TRUE(sched->Init().ok());

  sched->Submit(Op(0, 60, 1, txn::OpType::kWrite, 3), SimTime());
  const uint64_t pre_cycle_head = sched->wal()->head_lsn();
  ASSERT_TRUE(sched->RunUntilIdle(SimTime()).ok());
  ASSERT_FALSE(sched->TakeDispatched().empty());
  // The cycle synced before dispatching: everything appended before the
  // cycle (the admission record included) is durable with no explicit
  // Flush from the test.
  EXPECT_GE(sched->wal()->durable_lsn(), pre_cycle_head);
  EXPECT_GT(sched->wal()->fsync_count(), 0);
}

}  // namespace
}  // namespace declsched::scheduler
