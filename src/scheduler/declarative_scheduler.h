// DeclarativeScheduler: the middleware of Figure 1.
//
// Clients submit requests into the incoming queue; when the trigger fires
// the scheduler (1) drains the queue into the pending-request relation,
// (2) runs the active protocol — a SQL query, Datalog program, or stage
// pipeline — over pending ∪ history, (3) moves the qualified requests into
// history and garbage-collects finished transactions, (4) resolves
// declaratively detected deadlocks, and (5) dispatches the qualified batch
// to the server. The scheduler is the single writer of the request store
// and narrates every mutation to the active protocol through its delta
// hooks (OnAdmitted/OnScheduled/OnFinished), so incremental backends pay
// O(delta) per cycle instead of re-deriving state from what is resident.
// Every phase of every cycle is timed with a real (wall) clock, since the
// scheduler's own cost is exactly what Section 4.3 measures.
//
// Thread ownership: one thread at a time — the cycle thread — owns
// RunCycle, SwitchProtocol, ApplyEscrowedFinisher, store() mutation, and
// every accessor not documented otherwise; ownership may pass between
// threads only through a lock handoff. Admission (Submit/SubmitRouted) is
// the one concurrent entry point: it touches only the thread-safe incoming
// queue (plus, for Submit, the id counter — so preassign ids via
// SubmitRouted when submitting from multiple threads). This is the
// contract the sharded scheduler builds on (one DeclarativeScheduler per
// shard, run by whichever worker holds the shard's claim); see
// docs/ARCHITECTURE.md. Epoch
// invariant: every store mutation RunCycle makes bumps the store's
// pending/history epoch exactly once and is narrated through exactly one
// protocol hook immediately after — the handshake incremental backends
// (LockTableState, the Datalog EDB cache) key their O(delta) fast path on.

#ifndef DECLSCHED_SCHEDULER_DECLARATIVE_SCHEDULER_H_
#define DECLSCHED_SCHEDULER_DECLARATIVE_SCHEDULER_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "scheduler/deadlock_resolver.h"
#include "scheduler/incoming_queue.h"
#include "scheduler/protocol.h"
#include "scheduler/protocol_library.h"
#include "scheduler/request_store.h"
#include "scheduler/tenant_accountant.h"
#include "scheduler/trigger_policy.h"
#include "server/database_server.h"

namespace declsched::scheduler {

/// Timings (microseconds of real wall time) and counts of one cycle.
struct CycleStats {
  int64_t drained = 0;
  int64_t pending_before = 0;
  int64_t history_before = 0;
  int64_t qualified = 0;
  int64_t dispatched = 0;
  int64_t gc_removed = 0;
  int64_t victims = 0;

  int64_t insert_us = 0;   // queue drain + pending insert
  int64_t query_us = 0;    // protocol evaluation
  int64_t move_us = 0;     // delete from pending + insert into history + GC
  int64_t total_us = 0;    // full cycle wall time
  SimTime server_busy;     // simulated server time of the dispatched batch
};

/// Monotone aggregates over all cycles.
struct SchedulerTotals {
  int64_t cycles = 0;
  int64_t admitted = 0;
  int64_t dispatched = 0;
  int64_t victims = 0;
  int64_t total_query_us = 0;
  int64_t total_cycle_us = 0;
  Histogram cycle_us;
  Histogram qualified_per_cycle;
};

class DeclarativeScheduler {
 public:
  struct Options {
    ProtocolSpec protocol;  // default set in the constructor: ss2pl-sql
    TriggerConfig trigger = TriggerConfig::Eager();
    /// Retire history rows of finished transactions every cycle.
    bool history_gc = true;
    /// Run the Datalog deadlock resolver when a cycle stalls.
    bool deadlock_detection = true;
    /// Cap on dispatched requests per cycle (server admission control);
    /// <= 0 means unlimited. With an ordered protocol the cap keeps the
    /// highest-ranked requests (SLA admission).
    int64_t max_dispatch_per_cycle = 0;
    /// Factory that resolves protocol backends; null means the process-wide
    /// ProtocolFactory::Global(). Supply one to drive the scheduler with
    /// backends that are not registered globally.
    const ProtocolFactory* factory = nullptr;
    /// Identity reported to protocols via ScheduleContext (which shard this
    /// instance runs as). The defaults describe an unsharded scheduler.
    int shard = 0;
    int num_shards = 1;
    /// Base for internally assigned ids (Submit, deadlock-victim abort
    /// markers). The sharded scheduler gives each shard a disjoint high
    /// range so internal ids never collide with its global request ids.
    int64_t first_request_id = 1;
    /// Run a TenantAccountant alongside the protocol: per-tenant QoS
    /// counters (pending/in-flight/service, wfq virtual time, drr rounds,
    /// token buckets) maintained O(delta) from the same narration and
    /// flushed into the store's `tenants` relation every cycle — what the
    /// fairness protocols read. Off = zero accounting cost (and the
    /// tenants relation stays whatever it was).
    bool tenant_accounting = true;
    TenantQosConfig tenant_qos;
    /// When the store has a WAL attached: block each cycle until the WAL
    /// records of its dispatch mutations are durable before executing the
    /// batch against the server. Off by default — the sharded front door
    /// instead acks asynchronously via Wal::WhenDurable, which keeps fsync
    /// off every cycle's critical path (the group-commit design). Turn on
    /// for strict execute-after-durable ordering in single-shard embeds.
    bool sync_dispatch_wal = false;

    Options() : protocol(Ss2plSql()) {}
  };

  /// `server` may be null: the scheduler then plans but does not execute
  /// (used by benches that time pure scheduling).
  DeclarativeScheduler(Options options, server::DatabaseServer* server);

  /// Compiles the protocol and the deadlock program. Must be called once
  /// before use.
  Status Init();

  /// Admits a request: assigns id and arrival, appends to the queue.
  /// Returns the assigned id. Call from one submitting thread at a time
  /// (the id counter is unsynchronized); concurrent submitters should
  /// preassign ids and use SubmitRouted.
  int64_t Submit(Request request, SimTime now);

  /// Admits a request that already carries its (globally unique) id —
  /// sharded mode, where the ShardedScheduler numbers requests. Touches
  /// only the thread-safe incoming queue: safe from any thread, any number
  /// concurrently.
  void SubmitRouted(Request request);

  /// Applies a finisher (commit/abort) marker published by another shard's
  /// dispatch: drops the transaction's pending requests if it aborted, then
  /// inserts the marker into history and narrates OnScheduled — exactly the
  /// store/protocol transition a locally dispatched finisher makes, so
  /// incremental backends absorb the cross-shard delta at O(delta). Cycle
  /// thread only.
  Status ApplyEscrowedFinisher(const Request& marker);

  /// Points the per-cycle ScheduleContext at an externally maintained
  /// escrow view (null = none). The pointee must outlive the scheduler or
  /// be reset; cycle thread only.
  void set_escrowed_locks(const EscrowedLocks* escrowed) { escrowed_ = escrowed; }

  /// Aborts `ta` without dispatching anything: injects an abort marker
  /// into history and drops the transaction's pending requests, exactly as
  /// deadlock resolution does. External drivers use it as a lock-wait
  /// timeout backstop (the scenario runner's stuck-transaction escape
  /// hatch). The transaction's requests must already have drained into
  /// pending — aborting while requests still sit in the incoming queue
  /// leaves them to dispatch after the transaction is gone. Cycle thread
  /// only.
  Status AbortTransaction(txn::TxnId ta, SimTime now);

  /// True if the trigger would fire now.
  bool ShouldFire(SimTime now) const;

  /// Earliest time a timer-based trigger could fire (now for others).
  SimTime NextEligible(SimTime now) const { return trigger_.NextEligible(now); }

  /// Runs one full scheduling cycle.
  Result<CycleStats> RunCycle(SimTime now);

  /// Swaps the active protocol at runtime (recompiles through the factory;
  /// pending requests are preserved). This is the paper's flexibility claim
  /// made concrete — and it works across backends: SQL to Datalog to a
  /// stage pipeline to a custom backend.
  Status SwitchProtocol(const ProtocolSpec& spec);

  const ProtocolSpec& protocol() const;
  /// The compiled protocol instance (null before Init()).
  const Protocol* active_protocol() const { return protocol_.get(); }
  /// Requests dispatched by the most recent cycle, in dispatch order.
  const RequestBatch& last_dispatched() const { return last_dispatched_; }
  /// Transactions aborted by the most recent cycle's deadlock resolution.
  const std::vector<txn::TxnId>& last_victims() const { return last_victims_; }

  RequestStore* store() { return &store_; }
  /// The per-tenant QoS accountant (null before Init(), or when
  /// Options::tenant_accounting is off). Cycle thread only, except the
  /// accountant's own PublishedSnapshot().
  TenantAccountant* tenant_accountant() { return accountant_.get(); }
  const SchedulerTotals& totals() const { return totals_; }
  /// Thread-safe (the queue carries its own lock).
  int64_t queue_size() const { return queue_.size(); }
  /// The incoming queue (e.g. to set its push-notify hook). The queue's own
  /// API is thread-safe; set_notify before producers start.
  IncomingQueue* queue() { return &queue_; }

 private:
  /// The factory protocols compile through (Options override or Global()).
  const ProtocolFactory& factory() const;

  /// Shared tail of AbortTransaction and ApplyEscrowedFinisher: drop
  /// pending on abort, append the marker to history, narrate OnScheduled.
  Status InjectFinisherMarker(const Request& marker);

  Options options_;
  server::DatabaseServer* server_;
  IncomingQueue queue_;
  RequestStore store_;
  TriggerPolicy trigger_;
  std::unique_ptr<Protocol> protocol_;
  std::unique_ptr<TenantAccountant> accountant_;
  std::optional<DeadlockResolver> resolver_;
  RequestBatch last_dispatched_;
  std::vector<txn::TxnId> last_victims_;
  SchedulerTotals totals_;
  const EscrowedLocks* escrowed_ = nullptr;
  int64_t next_request_id_ = 1;
};

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_DECLARATIVE_SCHEDULER_H_
