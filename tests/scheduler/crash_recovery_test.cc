// Crash-point property test: the durability gate for the sharded scheduler.
//
// For every named crash point x several seeds, a forked child drives a
// randomized closed-loop workload against a durable ShardedScheduler with
// the crash point armed. The child records every dispatch to an O_APPEND
// log and every *durable* commit acknowledgment (via Wal::WhenDurable) to
// an ack file, then dies mid-flight with _exit() — the kill -9 model: no
// flushes, no destructors, page cache intact, user-space buffers lost.
//
// The parent then recovers the same directory in-process and checks the
// contract the front door relies on:
//   * no durably-acked transaction is lost: after recovery its requests
//     are fully committed — no pending rows, no lock held without its
//     finisher marker on any shard;
//   * no double dispatch: an acked transaction never dispatches again
//     after recovery, and no single run ever dispatches one request twice;
//   * the recovered instance makes progress: unfinished transactions can
//     be finished by a retrying client (at-least-once for un-acked work),
//     after which a fresh transaction over every object dispatches fully —
//     i.e. no lock leaked across the crash.
//
// Fork requires the parent to be single-threaded, which it is between
// trials (each trial's scheduler joins its WAL flusher on destruction).
// Under TSan, fork+threads is unsupported, so the matrix is skipped there;
// the hook-based harness tests below still run.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/crashpoint.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "scheduler/protocol_library.h"
#include "scheduler/sharded_scheduler.h"
#include "storage/wal.h"
#include "test_util.h"

#if defined(__SANITIZE_THREAD__)
#define DECLSCHED_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DECLSCHED_TSAN 1
#endif
#endif

namespace declsched::scheduler {
namespace {

using ::declsched::testing::ScopedTempDir;

constexpr int kShards = 2;
constexpr int kObjects = 12;
constexpr int kChildBugExit = 7;  // child-side self-check failure

const char* const kCrashPoints[] = {
    "wal:pre-append",
    "wal:post-append",
    "wal:mid-record",
    "wal:post-write-pre-fsync",
    "wal:post-fsync",
    "wal:post-truncate",
    "snapshot:begin",
    "snapshot:mid-write",
    "snapshot:pre-rename",
    "snapshot:post-rename-pre-truncate",
};

Request Op(txn::TxnId ta, int64_t intrata, txn::OpType op, int64_t object) {
  Request r;
  r.ta = ta;
  r.intrata = intrata;
  r.op = op;
  r.object = object;
  return r;
}

bool IsFinisher(const Request& r) {
  return r.op == txn::OpType::kCommit || r.op == txn::OpType::kAbort;
}

ShardedScheduler::Options DurableOptions(const std::string& dir) {
  ShardedScheduler::Options options;
  options.num_shards = kShards;
  options.shard.protocol = Ss2plNative();
  options.shard.deadlock_detection = false;
  options.durability.enabled = true;
  options.durability.dir = dir;
  return options;
}

struct WorkloadTxn {
  txn::TxnId ta = 0;
  std::vector<int64_t> objects;  // ascending: canonical order, deadlock-free
};

/// Deterministic from the seed: the parent regenerates the same workload
/// the child ran, and it doubles as the never-crashed reference.
std::vector<WorkloadTxn> MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  std::vector<WorkloadTxn> txns;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    WorkloadTxn t;
    t.ta = 100 + i;
    std::set<int64_t> objects;
    const int k = 1 + static_cast<int>(rng.UniformInt(0, 3));
    while (static_cast<int>(objects.size()) < k) {
      objects.insert(rng.UniformInt(0, kObjects - 1));
    }
    t.objects.assign(objects.begin(), objects.end());
    txns.push_back(std::move(t));
  }
  return txns;
}

/// "ta:intrata" — the identity a request keeps across crash and replay.
std::string Key(const Request& r) {
  return std::to_string(r.ta) + ":" + std::to_string(r.intrata);
}

// --- child side --------------------------------------------------------------

/// Runs the workload with `point` armed; never returns. Exits 0 if the
/// crash point never fired, kCrashPointExitCode if it did, kChildBugExit
/// on any child-side invariant failure. Pairs of transactions overlap so
/// locks are actually contended at the moment of the crash.
[[noreturn]] void ChildWorkload(const std::string& dir, uint64_t seed,
                                const char* point, int nth) {
  ::alarm(60);  // hang guard: a stuck child fails the trial via SIGALRM
  if (point != nullptr) ArmCrashPoint(point, nth);
  const int ack_fd =
      ::open((dir + "/acks.log").c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  const int disp_fd = ::open((dir + "/dispatch.log").c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0 || disp_fd < 0) ::_exit(kChildBugExit);

  const std::vector<WorkloadTxn> workload = MakeWorkload(seed);
  {
    ShardedScheduler sched(DurableOptions(dir), nullptr);
    if (!sched.Init().ok()) ::_exit(kChildBugExit);

    std::map<txn::TxnId, int> ops_dispatched;
    const auto drain = [&]() {
      if (!sched.RunUntilIdle(SimTime()).ok()) ::_exit(kChildBugExit);
      for (const Request& r : sched.TakeDispatched()) {
        char line[128];
        const int len = ::snprintf(
            line, sizeof(line), "%lld %lld %c %lld\n",
            static_cast<long long>(r.ta), static_cast<long long>(r.intrata),
            txn::OpTypeToChar(r.op), static_cast<long long>(r.object));
        if (::write(disp_fd, line, len) != len) ::_exit(kChildBugExit);
        if (IsFinisher(r)) {
          // Ack = the commit's WAL records are durable. head_lsn() here
          // covers every record appended before this point (single global
          // LSN sequence), so a durable ack implies the whole transaction
          // is replayable.
          const int64_t ta = r.ta;
          sched.wal()->WhenDurable(sched.wal()->head_lsn(), [ack_fd, ta]() {
            char buf[32];
            const int n = ::snprintf(buf, sizeof(buf), "%lld\n",
                                     static_cast<long long>(ta));
            if (::write(ack_fd, buf, n) != n) ::_exit(kChildBugExit);
          });
        } else {
          ++ops_dispatched[r.ta];
        }
      }
    };
    const auto commit = [&](const WorkloadTxn& t) {
      // Submission contract: the finisher goes in only once every op of
      // the transaction has been observed dispatched.
      if (ops_dispatched[t.ta] != static_cast<int>(t.objects.size())) {
        ::_exit(kChildBugExit);
      }
      sched.Submit(Op(t.ta, static_cast<int64_t>(t.objects.size()) + 1,
                      txn::OpType::kCommit, Request::kNoObject),
                   SimTime());
      drain();
    };

    size_t done = 0;
    for (size_t i = 0; i < workload.size(); i += 2) {
      const WorkloadTxn& a = workload[i];
      const WorkloadTxn* b = i + 1 < workload.size() ? &workload[i + 1] : nullptr;
      int64_t intrata = 1;
      for (int64_t object : a.objects) {
        sched.Submit(Op(a.ta, intrata++, txn::OpType::kWrite, object),
                     SimTime());
      }
      if (b != nullptr) {
        intrata = 1;
        for (int64_t object : b->objects) {
          sched.Submit(Op(b->ta, intrata++, txn::OpType::kWrite, object),
                       SimTime());
        }
      }
      drain();           // a's ops dispatch; b's blocked ones wait on a
      commit(a);         // releases a's locks; b's remaining ops dispatch
      if (b != nullptr) commit(*b);
      if (!sched.wal()->Flush().ok()) ::_exit(kChildBugExit);
      done += b != nullptr ? 2 : 1;
      if (done == workload.size() / 2) {
        if (!sched.Checkpoint().ok()) ::_exit(kChildBugExit);
      }
    }
  }
  ::_exit(0);
}

// --- parent side -------------------------------------------------------------

std::set<int64_t> ReadAckSet(const std::string& dir) {
  std::set<int64_t> acked;
  std::ifstream in(dir + "/acks.log");
  int64_t ta = 0;
  while (in >> ta) acked.insert(ta);
  return acked;
}

struct LoggedDispatch {
  int64_t ta = 0;
  int64_t intrata = 0;
  char op = '?';
};

std::vector<LoggedDispatch> ReadDispatchLog(const std::string& dir) {
  std::vector<LoggedDispatch> out;
  std::ifstream in(dir + "/dispatch.log");
  std::string line;
  while (std::getline(in, line)) {
    LoggedDispatch d;
    int64_t object = 0;
    std::istringstream row(line);
    if (row >> d.ta >> d.intrata >> d.op >> object) out.push_back(d);
  }
  return out;
}

/// What one shard's relations say about one transaction.
struct TaPresence {
  bool pending_op = false;
  bool pending_finisher = false;
  bool hist_op = false;  ///< dispatched read/write: its lock is held
  bool marker = false;   ///< finisher in history: locks released here
};

std::vector<std::map<int64_t, TaPresence>> Classify(ShardedScheduler* sched) {
  std::vector<std::map<int64_t, TaPresence>> out(kShards);
  for (int s = 0; s < kShards; ++s) {
    const RequestStore& store = *sched->shard(s)->store();
    for (const auto& [id, r] : store.pending_by_id()) {
      TaPresence& p = out[s][r.ta];
      if (IsFinisher(r)) {
        p.pending_finisher = true;
      } else {
        p.pending_op = true;
      }
    }
    store.catalog()->GetTable("history")->ForEach(
        [&](storage::RowId, const storage::Row& row) {
          const Request r = RequestStore::RowToRequestFull(row);
          TaPresence& p = out[s][r.ta];
          if (IsFinisher(r)) {
            p.marker = true;
          } else {
            p.hist_op = true;
          }
        });
  }
  return out;
}

int64_t TotalPending(ShardedScheduler* sched) {
  int64_t total = 0;
  for (int s = 0; s < kShards; ++s) {
    total += static_cast<int64_t>(sched->shard(s)->store()->pending_count());
  }
  return total;
}

/// Recovers `dir` and checks every durability invariant; then plays the
/// retrying client until the system drains, and proves no lock leaked.
void RecoverAndVerify(const std::string& dir,
                      const std::vector<WorkloadTxn>& workload,
                      const std::string& trial) {
  const std::set<int64_t> acked = ReadAckSet(dir);
  const std::vector<LoggedDispatch> child_log = ReadDispatchLog(dir);

  // A single run never dispatches the same request twice (child side).
  std::set<std::string> child_keys;
  for (const LoggedDispatch& d : child_log) {
    const std::string key = std::to_string(d.ta) + ":" + std::to_string(d.intrata);
    EXPECT_TRUE(child_keys.insert(key).second)
        << trial << ": child dispatched " << key << " twice";
  }
  // Every durable ack has its commit dispatch in the child log: the ack
  // callback only ever runs after the dispatch was logged.
  for (int64_t ta : acked) {
    int commits = 0;
    for (const LoggedDispatch& d : child_log) {
      if (d.ta == ta && d.op == 'c') ++commits;
    }
    EXPECT_EQ(commits, 1) << trial << ": acked ta " << ta;
  }

  ShardedScheduler sched(DurableOptions(dir), nullptr);
  ASSERT_TRUE(sched.Init().ok()) << trial;
  ASSERT_TRUE(sched.RunUntilIdle(SimTime()).ok()) << trial;

  RequestBatch parent_dispatched = sched.TakeDispatched();
  // No double dispatch across the crash: an acked transaction is fully
  // committed in the replayed state — nothing of it can run again.
  for (const Request& r : parent_dispatched) {
    EXPECT_EQ(acked.count(r.ta), 0u)
        << trial << ": acked ta " << r.ta << " re-dispatched after recovery";
  }

  // No durably-acked transaction lost: committed everywhere, no lock still
  // held without its marker, nothing of it still pending.
  {
    const auto state = Classify(&sched);
    for (int64_t ta : acked) {
      for (int s = 0; s < kShards; ++s) {
        const auto it = state[s].find(ta);
        if (it == state[s].end()) continue;  // fully retired by GC
        const TaPresence& p = it->second;
        EXPECT_FALSE(p.pending_op || p.pending_finisher)
            << trial << ": acked ta " << ta << " has pending rows on shard "
            << s;
        EXPECT_FALSE(p.hist_op && !p.marker)
            << trial << ": acked ta " << ta << " holds locks on shard " << s
            << " with no finisher marker";
      }
    }
  }

  // The retrying client: finish every un-acked transaction, in submission
  // order so earlier transactions unblock later ones (canonical-order
  // workload — no deadlocks). At-least-once: a commit that dispatched but
  // never became durable is legitimately re-dispatched here.
  for (const WorkloadTxn& t : workload) {
    if (acked.count(t.ta) != 0) continue;
    ASSERT_TRUE(sched.RunUntilIdle(SimTime()).ok()) << trial;
    for (const Request& r : sched.TakeDispatched()) {
      EXPECT_EQ(acked.count(r.ta), 0u) << trial;
      parent_dispatched.push_back(r);
    }
    const auto state = Classify(&sched);
    bool any_rows = false, any_marker = false, any_pending_finisher = false,
         any_pending_op = false;
    for (int s = 0; s < kShards; ++s) {
      const auto it = state[s].find(t.ta);
      if (it == state[s].end()) continue;
      any_rows = true;
      any_marker |= it->second.marker;
      any_pending_finisher |= it->second.pending_finisher;
      any_pending_op |= it->second.pending_op;
    }
    if (!any_rows) continue;  // never durably admitted: nothing held
    if (any_marker) continue; // committed pre-crash (mirrors republished)
    // All earlier transactions are finished, so this one's restored ops
    // cannot be blocked any more — if any is still pending, a lock leaked.
    EXPECT_FALSE(any_pending_op)
        << trial << ": ta " << t.ta << " has ops stuck pending after all "
        << "earlier transactions finished";
    if (any_pending_finisher) continue;  // restored commit will dispatch
    sched.Submit(Op(t.ta, static_cast<int64_t>(t.objects.size()) + 1,
                    txn::OpType::kCommit, Request::kNoObject),
                 SimTime());
  }
  ASSERT_TRUE(sched.RunUntilIdle(SimTime()).ok()) << trial;
  for (const Request& r : sched.TakeDispatched()) {
    EXPECT_EQ(acked.count(r.ta), 0u) << trial;
    parent_dispatched.push_back(r);
  }

  // The recovery run itself never double-dispatches either.
  std::set<std::string> parent_keys;
  for (const Request& r : parent_dispatched) {
    EXPECT_TRUE(parent_keys.insert(Key(r)).second)
        << trial << ": recovered run dispatched " << Key(r) << " twice";
  }

  // Everything drained: no pending work left anywhere.
  EXPECT_EQ(TotalPending(&sched), 0) << trial;

  // Progress proof: a fresh transaction over every object must dispatch
  // fully — any lock leaked across the crash would stall it here.
  const txn::TxnId fresh = 999999;
  int64_t intrata = 1;
  for (int64_t object = 0; object < kObjects; ++object) {
    sched.Submit(Op(fresh, intrata++, txn::OpType::kWrite, object), SimTime());
  }
  ASSERT_TRUE(sched.RunUntilIdle(SimTime()).ok()) << trial;
  int fresh_ops = 0;
  for (const Request& r : sched.TakeDispatched()) {
    if (r.ta == fresh && !IsFinisher(r)) ++fresh_ops;
  }
  ASSERT_EQ(fresh_ops, kObjects)
      << trial << ": a leaked lock is blocking new work";
  sched.Submit(Op(fresh, intrata, txn::OpType::kCommit, Request::kNoObject),
               SimTime());
  ASSERT_TRUE(sched.RunUntilIdle(SimTime()).ok()) << trial;
  bool fresh_committed = false;
  for (const Request& r : sched.TakeDispatched()) {
    if (r.ta == fresh && IsFinisher(r)) fresh_committed = true;
  }
  EXPECT_TRUE(fresh_committed) << trial;
}

/// On a clean (exit 0) run, the child's dispatch log must equal the
/// workload spec exactly — the never-crashed reference.
void VerifyCleanRunMatchesReference(
    const std::string& dir, const std::vector<WorkloadTxn>& workload,
    const std::string& trial) {
  std::multiset<std::string> expected;
  for (const WorkloadTxn& t : workload) {
    for (size_t i = 0; i < t.objects.size(); ++i) {
      expected.insert(std::to_string(t.ta) + ":" + std::to_string(i + 1));
    }
    expected.insert(std::to_string(t.ta) + ":" +
                    std::to_string(t.objects.size() + 1));
  }
  std::multiset<std::string> got;
  for (const LoggedDispatch& d : ReadDispatchLog(dir)) {
    got.insert(std::to_string(d.ta) + ":" + std::to_string(d.intrata));
  }
  EXPECT_EQ(got, expected) << trial << ": clean run diverged from reference";
}

/// Forks the child, waits, and returns its exit code (-1 on signal).
int RunChildTrial(const std::string& dir, uint64_t seed, const char* point,
                  int nth) {
  ::fflush(stdout);
  ::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ChildWorkload(dir, seed, point, nth);  // never returns
  }
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) return -1;
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

#if !defined(DECLSCHED_TSAN)

TEST(CrashRecoveryPropertyTest, NoCrashPointRunsCleanly) {
  const uint64_t seed = 4242;
  const ScopedTempDir dir("crash_recovery_test");
  const int code = RunChildTrial(dir, seed, nullptr, 0);
  ASSERT_EQ(code, 0);
  const auto workload = MakeWorkload(seed);
  VerifyCleanRunMatchesReference(dir, workload, "clean");
  // All 8 transactions commit and flush before exit: all acked.
  EXPECT_EQ(ReadAckSet(dir).size(), workload.size());
  RecoverAndVerify(dir, workload, "clean");
}

TEST(CrashRecoveryPropertyTest, EveryCrashPointEverySeed) {
  // nth varies where in the run the crash lands: first WAL touch, deep in
  // the workload, and (for seed 2) possibly never — which must also verify.
  const int kNth[] = {1, 7, 23};
  for (const char* point : kCrashPoints) {
    int crashes = 0;
    for (int si = 0; si < 3; ++si) {
      const uint64_t seed = 1000 + si * 31;
      const std::string trial =
          std::string(point) + "/seed" + std::to_string(seed);
      SCOPED_TRACE(trial);
      const ScopedTempDir dir("crash_recovery_test");
      const int code = RunChildTrial(dir, seed, point, kNth[si]);
      ASSERT_TRUE(code == 0 || code == kCrashPointExitCode)
          << trial << ": child exit " << code;
      if (code == kCrashPointExitCode) ++crashes;
      const auto workload = MakeWorkload(seed);
      if (code == 0) VerifyCleanRunMatchesReference(dir, workload, trial);
      RecoverAndVerify(dir, workload, trial);
      if (HasFatalFailure()) return;
    }
    // The harness is live: nth=1 must actually reach every named point.
    EXPECT_GE(crashes, 1) << point << " never fired";
  }
}

#else

TEST(CrashRecoveryPropertyTest, SkippedUnderTsan) {
  GTEST_SKIP() << "fork-based crash trials are not TSan-compatible";
}

#endif  // !DECLSCHED_TSAN

// --- crash-point harness itself (runs everywhere, incl. TSan) ---------------

TEST(CrashPointHarnessTest, HookObservesArmedPointWithoutDying) {
  const ScopedTempDir dir("crash_recovery_test");
  std::atomic<int> hits{0};
  SetCrashPointHook([&hits](const char*) { hits.fetch_add(1); });
  ArmCrashPoint("wal:post-fsync", 1);
  {
    ShardedScheduler sched(DurableOptions(dir), nullptr);
    ASSERT_TRUE(sched.Init().ok());
    sched.Submit(Op(10, 1, txn::OpType::kWrite, 3), SimTime());
    ASSERT_TRUE(sched.RunUntilIdle(SimTime()).ok());
    ASSERT_TRUE(sched.wal()->Flush().ok());
  }
  EXPECT_EQ(hits.load(), 1);  // fired once, then self-disarmed
  DisarmCrashPoint();
  SetCrashPointHook(nullptr);
}

TEST(CrashPointHarnessTest, EnvSpecArmsNamedPointWithCount) {
  ::setenv("DECLSCHED_CRASHPOINT", "wal:post-fsync:2", 1);
  InstallCrashPointFromEnv();
  ::unsetenv("DECLSCHED_CRASHPOINT");
  std::atomic<int> hits{0};
  SetCrashPointHook([&hits](const char*) { hits.fetch_add(1); });
  EXPECT_FALSE(CrashPointWillTrigger("wal:post-fsync"));  // 2 left
  CrashPoint("wal:post-fsync");
  EXPECT_TRUE(CrashPointWillTrigger("wal:post-fsync"));  // 1 left
  CrashPoint("wal:some-other-point");                    // wrong name: no-op
  EXPECT_EQ(hits.load(), 0);
  CrashPoint("wal:post-fsync");
  EXPECT_EQ(hits.load(), 1);
  CrashPoint("wal:post-fsync");  // disarmed after firing
  EXPECT_EQ(hits.load(), 1);
  DisarmCrashPoint();
  SetCrashPointHook(nullptr);
}

}  // namespace
}  // namespace declsched::scheduler
