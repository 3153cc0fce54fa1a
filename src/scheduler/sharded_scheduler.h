// ShardedScheduler: the declarative middleware partitioned into N parallel
// shards, each owning a full scheduler stack of its own.
//
// Motivation: after the incremental-state work made one cycle O(delta),
// the remaining scale ceiling is that one thread owns all admission,
// analysis, and dispatch. Because the declarative policy is separated from
// the execution substrate (the Protocol API), the substrate can be sharded
// without touching any policy code: each shard runs its own
// DeclarativeScheduler — RequestStore mirror, LockTableState, compiled
// Protocol instance — on its own worker thread, over the partition of
// requests whose primary lock target it owns.
//
// Partitioning (see ShardRouter): a read/write locks exactly one object,
// and SS2PL qualification is per-object — the locks that can block a
// request and the pending requests that can conflict with it all live with
// that object's shard. Single-shard traffic therefore schedules with zero
// cross-shard coordination. The one cross-shard event is a finisher
// (commit/abort) of a transaction whose lock set spans shards: its
// dispatch must release locks on every shard the transaction touched,
// exactly once, and never before the finisher is actually dispatched
// (releasing early would publish a lock-release no unsharded SS2PL history
// could contain).
//
// The escrow path handles that event:
//   1. The coordinator (running on the submitting thread) acquires one
//      admission ticket per involved shard in canonical (ascending) shard
//      order — deadlock-free by construction, and serializing overlapping
//      escrows so their prepare/publish sequences never interleave.
//   2. Holding all tickets, it registers the escrow with every involved
//      shard (each shard's protocol sees the transaction in
//      ScheduleContext::escrowed from its next cycle) and only then
//      publishes the finisher for dispatch by admitting it to the home
//      shard (the lowest involved shard).
//   3. The home shard's protocol dispatches the finisher through the
//      normal declarative path. Observing that dispatch, the home worker
//      publishes mirror markers to the other involved shards, which apply
//      them via DeclarativeScheduler::ApplyEscrowedFinisher — the same
//      narrated store transition a local dispatch makes, so each shard's
//      incremental state absorbs the cross-shard delta at O(delta). A
//      shard that misses the narration (out-of-band edit) falls back to a
//      from-scratch rebuild via the epoch/content-version staleness
//      machinery, exactly as in the unsharded scheduler.
//
// Deadlock-victim aborts mirror the same way: the shard that aborts a
// victim publishes abort markers to every other shard in the victim's
// footprint, dropping its pending requests and releasing its locks there.
// Deadlock *detection* itself is shard-local (a waits-for cycle spanning
// shards is not yet seen); workloads that acquire objects in a canonical
// order are deadlock-free by construction.
//
// Submission contract (the paper's closed-loop clients already obey it):
// submit a transaction's finisher only after all of its reads/writes have
// been observed dispatched. Ids are assigned globally by this class.
//
// Two driving modes, same per-shard logic:
//   * threaded — Start() spawns one worker per shard. A shard is a run
//     token: its cycles run only on the thread holding its claim. Each
//     worker parks until its own shard is runnable and unclaimed, claims
//     it, and runs a bounded number of passes. Work a claim makes runnable
//     on another, unclaimed shard (the next op of a transaction submitted
//     from on_dispatch, an escrow mirror, a victim abort) is not handed to
//     that shard's worker: once its own claim is released, the worker
//     claims that shard and runs it itself, waking the owner only if the
//     shard is still runnable after the pass budget. A chain of
//     cross-shard hops thus runs on one thread without a wake-up per hop.
//     Admissions from any other thread (reactors, tests, benches) wake the
//     shard's parked worker. WaitIdle() waits for global quiescence.
//   * cooperative — StepOnce()/RunUntilIdle() drive all shards on the
//     caller's thread, deterministically (property tests; single-core
//     speedup projection in bench_shard_scale).

#ifndef DECLSCHED_SCHEDULER_SHARDED_SCHEDULER_H_
#define DECLSCHED_SCHEDULER_SHARDED_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/result.h"
#include "observability/metrics.h"
#include "scheduler/adaptive_controller.h"
#include "scheduler/declarative_scheduler.h"
#include "scheduler/shard_router.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace declsched::scheduler {

struct EscrowFanout;  // scheduler/durability.h

class ShardedScheduler {
 public:
  /// Called by the dispatching shard's claim holder (some shard worker, or
  /// the cooperative caller), after every cycle that dispatched requests.
  /// Must be thread-safe; may call Submit() (that is how closed-loop
  /// drivers feed finishers without an extra thread).
  using DispatchCallback = std::function<void(int shard, const RequestBatch& batch)>;

  /// Durability configuration. When enabled, Init() first recovers `dir`
  /// (snapshot restore + WAL replay + forced derived-state rebuild), then
  /// attaches one shared group-commit WAL to every shard's store, so each
  /// store mutation appends a logical record. Dispatch acknowledgments
  /// become durable at Wal::WhenDurable / Sync of the store's
  /// last_wal_lsn(); cycle threads themselves never block on fsync.
  struct DurabilityOptions {
    bool enabled = false;
    /// Data directory holding wal.log / snapshot.bin. Created if absent
    /// (one level only).
    std::string dir;
    /// fsync on each group commit. Off = page-cache durability (benches).
    bool fsync = true;
    /// Checkpoint when this many WAL bytes accumulated since the last one
    /// (checked by the periodic thread; <= 0 disables the size trigger).
    int64_t checkpoint_every_bytes = 64 << 20;
    /// Period of the background checkpoint thread started by Start()
    /// (0 = no thread; Checkpoint() can still be called manually).
    int64_t checkpoint_interval_ms = 0;
  };

  struct Options {
    int num_shards = 4;
    /// Per-shard scheduler template. shard/num_shards/first_request_id are
    /// overwritten per shard; the protocol compiles once per shard against
    /// that shard's own store.
    DeclarativeScheduler::Options shard;
    DispatchCallback on_dispatch;
    DurabilityOptions durability;
    /// Record every dispatched request into the log read by
    /// TakeDispatched(). Turn off for throughput benches that only count.
    bool keep_dispatch_log = true;
    /// When set, the scheduler reports sched_* metrics (admissions,
    /// dispatches, per-shard cycle cost, escrow traffic, GC retirements)
    /// into this registry alongside its own atomics. The registry must
    /// outlive the scheduler. Null = zero instrumentation cost.
    observability::MetricsRegistry* metrics = nullptr;
    /// Per-shard adaptive consistency (paper Section 5): when set, every
    /// shard runs its own AdaptiveConsistencyController, fed after each of
    /// its cycles with that shard's live signals — incoming-queue depth,
    /// blocked pending (lock-wait depth), the cycle's failed-to-qualify
    /// count, and the shard accountant's in-flight and starvation reads.
    /// Shards relax and tighten independently: a hot shard can run relaxed
    /// while quiet shards stay strict. Validated at Init(). With `metrics`
    /// set, exports adaptive_switches_total plus per-shard
    /// adaptive_relaxed / adaptive_load_score gauges.
    std::optional<AdaptiveConsistencyController::Options> adaptive;
  };

  /// Monotone aggregates, readable from any thread at any time.
  struct Totals {
    int64_t submitted = 0;
    int64_t dispatched = 0;
    int64_t cycles = 0;
    /// Cross-shard escrows admitted / mirror markers applied.
    int64_t escrows = 0;
    int64_t mirrors_applied = 0;
    int64_t victims = 0;
    /// Protocol switches made by per-shard adaptive controllers.
    int64_t adaptive_switches = 0;
    /// Transactions aborted through AbortTransaction (external backstops).
    int64_t external_aborts = 0;
  };

  /// Cluster-wide per-tenant accounting: each shard's TenantAccountant
  /// publishes a snapshot at its own cycle boundary (stamped with the
  /// store epochs it reflects — per-shard epochs, the same identity the
  /// escrow/staleness machinery keys on), and this merge sums the
  /// summable counters per tenant across those per-shard cuts. Per-shard
  /// state that has no cross-shard meaning (vtime, round, tokens —
  /// relative to each shard's own service stream) is reported as 0 in the
  /// merged rows; read a single shard's accountant for those.
  struct GlobalTenantSnapshot {
    struct ShardStamp {
      uint64_t version = 0;  ///< 0 = that shard has not published yet
      uint64_t pending_epoch = 0;
      uint64_t history_epoch = 0;
    };
    std::vector<ShardStamp> shards;
    /// Merged totals, ascending tenant id.
    std::vector<TenantAccountant::TenantTotals> tenants;
  };

  /// `server` may be null (benches that time pure scheduling). A non-null
  /// server is shared by all shards; DatabaseServer::ExecuteBatch is
  /// thread-safe for exactly this fan-in.
  ShardedScheduler(Options options, server::DatabaseServer* server);
  ~ShardedScheduler();

  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  /// Compiles every shard's protocol. Once, before Submit/Start/Step.
  Status Init();

  /// Routes and admits a request (thread-safe, any number of submitters);
  /// assigns and returns its globally unique id. Cross-shard finishers go
  /// through the escrow path and may block briefly on admission tickets.
  int64_t Submit(Request request, SimTime now);

  /// Aborts a transaction from outside the shards: publishes an abort
  /// marker to every shard in its routed footprint — the same mirror path
  /// a deadlock-victim abort fans out through — dropping its pending
  /// requests and releasing its locks there, applied by each shard's next
  /// pass. For transactions whose finisher has NOT been submitted (a
  /// submitted finisher owns the transaction's termination), and whose
  /// requests have all drained into pending (aborting with requests still
  /// queued leaves them to dispatch after the transaction is gone).
  /// External drivers use it as a lock-wait-timeout backstop — notably for
  /// cross-shard waits-for cycles, which shard-local deadlock detection
  /// cannot see. Thread-safe. NotFound if no footprint is recorded.
  Status AbortTransaction(txn::TxnId ta, SimTime now);

  // --- threaded mode ---

  /// Spawns one worker thread per shard. Not to be mixed with StepOnce().
  Status Start();
  /// Stops and joins all workers once every shard claim is released;
  /// idempotent. Called by the destructor.
  void Stop();
  /// Waits until the system is quiescent: every worker parked, no shard
  /// claimed, every incoming queue and mirror inbox empty. Quiescent means
  /// "no runnable work", not "all done" — pending requests may be blocked
  /// waiting for a finisher the driver has not submitted yet. False on
  /// timeout.
  bool WaitIdle(int64_t timeout_us);

  // --- cooperative mode (deterministic; caller's thread) ---

  /// Runs every shard once — absorb mirrors, then one cycle if it has
  /// runnable work. Returns how many shards ran a cycle.
  Result<int> StepOnce(SimTime now);
  /// Steps until no shard has runnable work. Error if still unquiescent
  /// after `max_steps` rounds (a livelock guard, not a deadline).
  Status RunUntilIdle(SimTime now, int max_steps = 1000000);

  // --- introspection ---

  int num_shards() const { return options_.num_shards; }
  /// The shard's underlying scheduler. Claim-holder-only members (store(),
  /// totals(), ...) may be read only while workers are stopped or between
  /// cooperative steps.
  DeclarativeScheduler* shard(int i) { return shards_[i]->sched.get(); }
  const ShardRouter& router() const { return router_; }
  /// Shard `i`'s adaptive controller (null when Options::adaptive unset).
  /// relaxed_active()/switches()/last_load() are thread-safe; the rest is
  /// claim-holder state.
  const AdaptiveConsistencyController* adaptive_controller(int i) const {
    return shards_[i]->adaptive.get();
  }
  Totals totals() const;
  /// Merges every shard's last published tenant-accounting snapshot (see
  /// GlobalTenantSnapshot). Thread-safe; empty tenants if the shard
  /// template runs without tenant accounting. Each shard's contribution is
  /// captured atomically at that shard's cycle boundary — never a torn
  /// mid-cycle read — and its stamp says exactly which store state it
  /// reflects.
  GlobalTenantSnapshot TenantSnapshot() const;
  /// Drains the global dispatch log (dispatch order within a shard; across
  /// shards, append order). Thread-safe.
  RequestBatch TakeDispatched();
  /// CPU time shard `i`'s cycles + mirror applications have consumed —
  /// the per-shard busy time the single-core speedup projection divides
  /// by. Threaded mode charges it once per claim, cooperative mode once
  /// per StepOnce pass. Thread CPU clock, not wall: time another thread
  /// (the WAL flusher, another shard on a small machine) spends preempting
  /// a cycle is that thread's cost, not this shard's.
  int64_t shard_busy_us(int i) const;

  // --- durability ---

  /// The shared WAL (null unless durability is enabled).
  storage::Wal* wal() const { return wal_.get(); }
  /// What Init()'s recovery pass did (zeros unless durability is enabled).
  const storage::RecoveryResult& recovery_result() const {
    return recovery_result_;
  }
  /// Writes a snapshot of every shard's relations and truncates the WAL.
  /// Safe against running workers: they are parked for the capture and
  /// restarted after. InvalidArgument unless durability is enabled.
  Status Checkpoint();
  /// Highest transaction id seen in the restored relations (0 on a fresh
  /// start). A layer that assigns transaction ids (the front door) must
  /// resume above it, or new transactions would merge with restored ones.
  txn::TxnId recovered_max_ta() const { return recovered_max_ta_; }

 private:
  /// An escrow registered with a shard: the finisher marker plus the
  /// involved-shard mask (nonzero only on the home shard, which fans the
  /// mirrors out).
  struct EscrowEntry {
    Request marker;
    uint32_t mirror_mask = 0;
  };

  struct Shard {
    std::unique_ptr<DeclarativeScheduler> sched;

    /// Escrow registry: written by submitters holding this shard's ticket,
    /// consumed by the claim holder (dispatch fan-out, view rebuild).
    /// `escrow_count` mirrors the map size so the per-cycle view refresh
    /// can skip the lock entirely in the common zero-escrow case.
    std::mutex escrow_mu;
    std::map<txn::TxnId, EscrowEntry> escrow_entries;
    std::atomic<int64_t> escrow_count{0};

    /// Mirror inbox: finisher markers published by other shards' claim
    /// holders, applied by this shard's claim holder.
    std::mutex mirror_mu;
    std::vector<Request> mirror_inbox;

    /// Claim and parking, all under `wake_mu`. `dirty` = there may be
    /// runnable work; set by queue pushes (via the queue's notify hook),
    /// mirror publishes, and dispatching cycles that left pending rows.
    /// `running` = some thread holds the shard's claim; it re-checks
    /// `dirty` before letting go. `parked` = the owning worker waits on
    /// `wake_cv` and nobody has woken it yet.
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    bool dirty = true;
    bool running = false;
    bool parked = false;

    /// Escrow admission ticket (held briefly by submitting threads, in
    /// canonical shard order across shards).
    std::mutex ticket_mu;

    /// The view handed to this shard's protocol; claim holder only.
    EscrowedLocks escrow_view;

    /// Per-shard adaptive controller (null unless Options::adaptive).
    /// Driven by the claim holder after each cycle; its published state
    /// (relaxed_active, switches, last_load) is readable from any thread.
    std::unique_ptr<AdaptiveConsistencyController> adaptive;

    std::atomic<int64_t> busy_us{0};
    std::thread worker;
  };

  /// One pass of shard `s`'s loop body: absorb mirrors, rebuild the escrow
  /// view, run one cycle if `dirty` (the wake flag the caller consumed
  /// under wake_mu) or a mirror applied, process dispatches. Returns true
  /// if a cycle ran. Claim holder (or cooperative caller) only.
  Result<bool> RunShardOnce(int s, bool dirty, SimTime now);
  Status ProcessDispatched(int s, const RequestBatch& batch);
  /// Drains and applies the shard's mirror inbox; returns how many applied.
  int ApplyMirrors(int s);
  void PublishMirror(int to_shard, const Request& marker);
  void WorkerLoop(int s);
  /// Flags shard `s` runnable. A claim holder picks it up on release; a
  /// shard worker records it to drive itself (DriveRecorded); any other
  /// thread wakes the shard's parked worker.
  void MarkDirty(int s);
  /// Claims shard `s` if it is runnable and unclaimed. wake_mu not held.
  bool TryClaim(int s);
  /// Runs claimed shard `s` while it stays dirty, up to kClaimPasses
  /// passes, then releases the claim; a cycle error is fatal. Charges the
  /// thread CPU time since `*cpu_us` to the shard and advances `*cpu_us`.
  void RunClaimed(int s, int64_t* cpu_us);
  /// On worker `own`'s thread after its claim is released: claims and
  /// runs every shard its claims recorded as runnable, until none is left.
  void DriveRecorded(int own, int64_t* cpu_us);
  /// wake_mu held, `parked` true: counts the wake-up and un-parks the
  /// worker. The caller notifies wake_cv after unlocking.
  void UnparkLocked(int s);
  SimTime Now() const { return SimTime::FromMicros(now_us_.load()); }

  /// Init()'s durability arm: recover the data directory into the fresh
  /// stores, re-establish cross-shard state, open the WAL, attach it.
  Status RecoverAndAttach();
  /// Rebuilds the cross-shard machinery recovery cannot read off a single
  /// shard: router footprints of unfinished transactions, escrow entries
  /// of restored-but-undispatched cross-shard finishers, and mirrors of
  /// dispatched finishers (proved by a marker on any shard or a replayed
  /// kEscrowFanout record) whose application never reached the receiving
  /// shard's log.
  Status ReestablishCrossShardState(const std::vector<EscrowFanout>& fanouts);
  /// Snapshot + WAL rotate, workers already parked. lifecycle_mu_ held.
  Status WriteCheckpointNow();
  void CheckpointLoop();
  void StopCheckpointThread();
  /// Worker spawn/join only; lifecycle_mu_ held by the caller.
  Status StartLocked();
  void StopLocked();

  Options options_;
  server::DatabaseServer* server_;
  ShardRouter router_;
  /// Declared before shards_ so it is destroyed after them — the stores
  /// hold raw pointers into it.
  std::unique_ptr<storage::Wal> wal_;
  storage::RecoveryResult recovery_result_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<int64_t> next_id_{1};
  txn::TxnId recovered_max_ta_ = 0;  ///< written once, during Init recovery
  std::atomic<int64_t> now_us_{0};
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> dispatched_{0};
  std::atomic<int64_t> cycles_{0};
  std::atomic<int64_t> escrows_{0};
  std::atomic<int64_t> mirrors_applied_{0};
  std::atomic<int64_t> victims_{0};
  std::atomic<int64_t> adaptive_switches_{0};
  std::atomic<int64_t> external_aborts_{0};
  /// Claims taken; WaitIdle rescans when it moved during a scan.
  std::atomic<uint64_t> claims_{0};

  std::mutex dispatch_log_mu_;
  RequestBatch dispatch_log_;

  /// Cached metric pointers (non-null iff options_.metrics is set).
  observability::Counter* m_submitted_ = nullptr;
  observability::Counter* m_dispatched_ = nullptr;
  observability::Counter* m_cycles_ = nullptr;
  observability::Counter* m_escrows_ = nullptr;
  observability::Counter* m_mirrors_ = nullptr;
  observability::Counter* m_victims_ = nullptr;
  observability::Counter* m_gc_removed_ = nullptr;
  std::vector<observability::HistogramMetric*> m_cycle_us_;  ///< per shard
  std::vector<observability::Counter*> m_wakeups_;           ///< per shard

  /// Adaptive metrics (non-null iff metrics set and adaptive enabled).
  observability::Counter* m_adaptive_switches_ = nullptr;
  std::vector<observability::Gauge*> m_adaptive_relaxed_;  ///< per shard
  std::vector<observability::Gauge*> m_adaptive_load_;     ///< per shard

  /// Cached gauges (non-null iff metrics set and durability enabled).
  observability::Gauge* m_snapshot_lsn_ = nullptr;
  observability::Gauge* m_recovery_replayed_ = nullptr;

  /// Notified whenever a worker parks; WaitIdle waits on it.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  std::atomic<bool> stop_{false};
  /// Serializes Start/Stop/Checkpoint (the checkpoint thread parks and
  /// restarts workers through it). The checkpoint thread itself is joined
  /// by Stop() *before* taking this mutex — it calls Checkpoint(), which
  /// takes it.
  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool initialized_ = false;

  /// Background checkpoint thread (durability with interval > 0 only).
  std::thread ckpt_thread_;
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  bool ckpt_stop_ = false;
  /// appended_bytes() at the last checkpoint (size-trigger baseline).
  std::atomic<int64_t> ckpt_bytes_mark_{0};
};

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_SHARDED_SCHEDULER_H_
