// FrontDoor: the network face of the declarative scheduling middleware.
//
// Wires the HTTP server — and, when Options::binary is set, the binary
// wire server (net/wire/), the same connection layer (net/server.h) with
// the other codec — to one ShardedScheduler + DatabaseServer stack. Both
// transports feed the same submission core (SubmitWork): same admission
// order, same tenant buckets, same in-flight cap, same response counters,
// so a batch admits and dispatches identically whether it arrived as JSON
// or as a wire SUBMIT frame. The HTTP side speaks a small JSON API:
//
//   POST /v1/submit          submit a batch of transactions; the response
//                            is deferred until every transaction commits
//   GET  /v1/stats           scheduler totals, shard count, server counters
//   GET  /v1/tenants         merged per-tenant accounting snapshot
//   GET  /v1/protocols       names the protocol registry knows
//   GET  /metrics            Prometheus text exposition of the registry
//   GET  /healthz            liveness (200 "ok", 503 when draining)
//   POST /v1/admin/protocol  switch the active protocol on every shard
//   POST /v1/admin/drain     start refusing new submissions (503)
//   GET  /v1/admin/explain   compiled plan of a named protocol
//
// Submission protocol: the front door drives each transaction closed-loop
// against the scheduler's contract — operation k+1 is submitted only after
// operation k has been observed dispatched, and the commit only after the
// last operation. That drive happens inside the scheduler's on_dispatch
// callback (shard worker threads), so no extra threads exist per request;
// the HTTP response is completed from the same callback through the
// server's thread-safe Responder when the batch's last transaction
// commits. Operations are required to arrive in ascending object order
// (enforced at admission, 400 otherwise): with one operation in flight per
// transaction that makes lock acquisition follow a canonical resource
// order, so the workload is deadlock-free by construction and per-shard
// deadlock detection stays off.
//
// Admission control, checked in order, before anything is submitted:
//   1. draining          -> 503 (Unavailable)
//   2. malformed body    -> 400 (InvalidArgument/ParseError)
//   3. validation        -> 400 (row range, tenant, batch size — the
//                           DatabaseServer's validate-first checks)
//   4. global cap        -> 429 + Retry-After (in-flight statements)
//   5. tenant bucket     -> 429 + Retry-After (wall-clock token bucket
//                           from the tenant's TenantQosSpec rate/burst)
// An admitted batch is never lost and never double-answered: every
// statement dispatches exactly once and the response fires exactly once.

#ifndef DECLSCHED_NET_FRONT_DOOR_H_
#define DECLSCHED_NET_FRONT_DOOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/wire/binary_server.h"
#include "observability/metrics.h"
#include "scheduler/protocol_library.h"
#include "scheduler/sharded_scheduler.h"
#include "server/database_server.h"

namespace declsched::net {

class FrontDoor {
 public:
  struct Options {
    HttpServer::Options http;
    /// Optional binary wire front door (see net/wire/): when set, a
    /// BinaryServer starts next to the HTTP server, sharing the same
    /// scheduler, admission caps, and tenant buckets — the two transports
    /// are interchangeable faces of one submission pipeline.
    std::optional<wire::BinaryServer::Options> binary;
    int num_shards = 2;
    /// Per-shard scheduler template (protocol, trigger, tenant QoS).
    /// deadlock_detection is forced off — see the submission-order
    /// contract above.
    scheduler::DeclarativeScheduler::Options shard;
    /// Per-shard adaptive consistency, passed through to the sharded
    /// scheduler: each shard gets its own controller switching between
    /// the strict/relaxed pair on live load signals. /v1/stats reports
    /// the per-shard state under "adaptive".
    std::optional<scheduler::AdaptiveConsistencyController::Options> adaptive;
    server::DatabaseServer::Config server;
    /// Global admission cap: statements admitted but not yet finished.
    /// <= 0 means unlimited.
    int64_t max_inflight_statements = 4096;
    /// Advisory Retry-After for 429/503 responses.
    int retry_after_seconds = 1;
    /// Per-tenant admission buckets are taken from
    /// shard.tenant_qos.tenants: `rate` = statements per wall-clock
    /// second, `burst` = bucket capacity (0 = unlimited). This reuses the
    /// declarative QoS spec at the network edge, ahead of the scheduler's
    /// own simulated-time enforcement.
    /// Maximum statements in one submit body, enforced at parse time on
    /// both transports. Deliberately NOT forwarded to the server's
    /// max_batch_statements: that limit applies to a dispatch cycle's
    /// batch, which aggregates many requests and legitimately grows past
    /// any single body's size under load.
    int64_t max_statements_per_request = 1024;
    /// Keep the scheduler's dispatch log (TakeDispatched) — integration
    /// tests compare the dispatched set against an in-process run.
    bool keep_dispatch_log = false;
    /// WAL + snapshot durability, passed through to the sharded scheduler.
    /// When enabled the front door starts serving *before* recovery runs:
    /// /healthz answers 503 "recovering" (and submits 503 Unavailable)
    /// until replay finishes, then flips to ready. A 200 submit response
    /// is only sent once the batch's WAL records are durable
    /// (storage::Wal::WhenDurable), and Shutdown writes a clean-shutdown
    /// checkpoint so the next start replays nothing.
    scheduler::ShardedScheduler::DurabilityOptions durability;
    /// Test hook: runs as soon as the listeners are up, before recovery —
    /// the window where /healthz and submits must report "recovering".
    std::function<void()> recovery_barrier_for_test;
  };

  explicit FrontDoor(Options options);
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// Builds the stack (server, sharded scheduler, HTTP server) and starts
  /// serving.
  Status Start();
  /// Graceful stop: drain, stop HTTP, stop shards. Idempotent.
  void Shutdown();

  uint16_t port() const { return http_ ? http_->port() : 0; }
  /// Bound binary wire port (0 when Options::binary is unset).
  uint16_t binary_port() const { return binary_ ? binary_->port() : 0; }
  wire::BinaryServer* binary_server() { return binary_.get(); }
  observability::MetricsRegistry& metrics() { return metrics_; }
  scheduler::ShardedScheduler* sched() { return sched_.get(); }
  server::DatabaseServer* server() { return server_.get(); }

  /// Statements admitted and not yet finished (the global-cap gauge).
  int64_t inflight_statements() const {
    return inflight_statements_.load(std::memory_order_relaxed);
  }

  /// Transport-agnostic submit acknowledgement: the counters both the HTTP
  /// 200 body and the wire SUBMIT_OK frame report.
  struct SubmitOutcome {
    int64_t txns = 0;
    int64_t statements = 0;
    int64_t dispatched = 0;
    int64_t latency_us = 0;
  };
  /// Called exactly once when an admitted batch finishes (after its WAL
  /// records are durable, when a WAL is configured). Runs on a shard
  /// worker or the WAL group-commit thread — must not block.
  using SubmitDoneFn = std::function<void(const Status&, const SubmitOutcome&)>;

 private:
  /// One transaction's closed-loop drive state.
  struct TxnState {
    uint64_t job_id = 0;
    int tenant = 0;
    std::vector<txn::ObjectId> objects;  ///< ascending
    std::vector<txn::OpType> ops;        ///< parallel to objects
    size_t next = 0;       ///< next op index; == ops.size() -> commit next
    bool commit_sent = false;
    int64_t last_submit_us = 0;  ///< wall clock of the in-flight op
  };

  /// One submitted batch (POST /v1/submit or wire SUBMIT) being answered.
  struct Job {
    uint64_t id = 0;
    SubmitDoneFn done;
    int64_t txns_total = 0;
    int64_t txns_done = 0;
    int64_t statements = 0;  ///< client statements (excluding commits)
    int64_t requests_dispatched = 0;
    int tenant = 0;
    int64_t start_us = 0;  ///< wall clock at admission
    /// Highest WAL lsn the job's acknowledgement must wait for (0 = no
    /// WAL). Read from Wal::head_lsn() at each commit dispatch, which also
    /// covers the escrow fan-out records the scheduler appends outside the
    /// store (they precede the on_dispatch callback).
    uint64_t durable_lsn = 0;
  };

  struct TenantBucket {
    double tokens = 0;
    double rate = 0;   ///< statements per second
    double burst = 0;  ///< capacity
    int64_t last_refill_us = 0;
  };

  void HandleRequest(HttpRequest request, HttpServer::Responder responder);
  void HandleSubmit(const HttpRequest& request,
                    HttpServer::Responder responder);
  HttpResponse HandleStats();
  HttpResponse HandleTenants();
  HttpResponse HandleProtocols();
  HttpResponse HandleMetricsScrape();
  HttpResponse HandleProtocolSwitch(const HttpRequest& request);
  HttpResponse HandleExplain(const HttpRequest& request);

  /// Binary wire front door: op-dispatches one request frame (runs on a
  /// BinaryServer reactor thread).
  void HandleWireFrame(wire::WireFrame frame,
                       wire::BinaryServer::Responder responder);
  void HandleWireSubmit(const wire::WireFrame& frame,
                        wire::BinaryServer::Responder responder);

  /// Parses + validates a submit body into txn states (no side effects).
  /// On success fills `txns` with ops/objects; tenant written through.
  Status ParseSubmitBody(const std::string& body, int* tenant,
                         std::vector<TxnState>* txns, int64_t* statements);
  /// Same validation for a decoded wire SUBMIT (shared ascending-object /
  /// server-validate / budget rules — the two transports admit identically).
  Status WireSubmitToTxns(const wire::WireSubmit& submit, int* tenant,
                          std::vector<TxnState>* txns, int64_t* statements);
  /// Validates one op against the submission contract and appends it.
  Status AppendOp(TxnState* txn, txn::OpType op, int64_t object);

  /// The transport-agnostic submission core: admission (draining, global
  /// cap, tenant bucket) and scheduler hand-off. On a non-OK return
  /// nothing was admitted and `done` will never be called; on OK, `done`
  /// fires exactly once when the batch's last transaction commits (and is
  /// durable). Counts throttle metrics; response-class counting stays with
  /// the transport that renders the response.
  Status SubmitWork(int tenant, std::vector<TxnState> txns,
                    int64_t statements, SubmitDoneFn done);

  /// Wall-clock token-bucket check for `tenant`; consumes on success.
  Status AdmitTenant(int tenant, int64_t statements);

  /// The scheduler's dispatch callback (shard worker threads): advances
  /// txn cursors, submits next ops/commits, completes finished jobs.
  void OnDispatch(const scheduler::RequestBatch& batch);
  void SubmitOp(TxnState& txn, txn::TxnId ta);

  /// The /v1/stats document (also the wire STATS_OK body).
  std::string StatsJson();
  /// The explain document for a named protocol (also the wire EXPLAIN_OK
  /// body).
  Result<std::string> ExplainPlanJson(const std::string& name);

  HttpResponse StatusToResponse(const Status& status) const;
  wire::WireError StatusToWireError(const Status& status) const;
  /// Bumps frontdoor_responses_total{class} — every response on either
  /// transport goes through here exactly once.
  void CountResponse(int status);

  Options options_;
  observability::MetricsRegistry metrics_;
  std::unique_ptr<server::DatabaseServer> server_;
  std::unique_ptr<scheduler::ShardedScheduler> sched_;
  std::unique_ptr<HttpServer> http_;
  std::unique_ptr<wire::BinaryServer> binary_;
  scheduler::ProtocolRegistry registry_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  /// False until recovery has finished and the shards run (and again
  /// after Shutdown): every request on either transport except HTTP
  /// /metrics answers 503 "recovering".
  std::atomic<bool> ready_{false};
  std::atomic<int64_t> inflight_statements_{0};
  std::atomic<int64_t> next_ta_{1};
  std::atomic<uint64_t> next_job_id_{1};

  /// Guards jobs_, txns_, buckets_ — touched at admission (reactor
  /// thread) and from on_dispatch (shard threads). Hot-path cost is one
  /// uncontended lock per dispatched request.
  std::mutex mu_;
  std::unordered_map<uint64_t, Job> jobs_;
  std::unordered_map<txn::TxnId, TxnState> txns_;
  std::map<int, TenantBucket> buckets_;
  /// Serializes admin protocol switches against each other.
  std::mutex admin_mu_;

  // --- cached metric pointers ---
  observability::Counter* requests_total_ = nullptr;
  observability::Counter* responses_2xx_ = nullptr;
  observability::Counter* responses_4xx_ = nullptr;
  observability::Counter* responses_5xx_ = nullptr;
  observability::Counter* throttled_tenant_ = nullptr;
  observability::Counter* throttled_global_ = nullptr;
  observability::Counter* statements_admitted_ = nullptr;
  observability::Counter* txns_committed_ = nullptr;
  observability::Gauge* inflight_gauge_ = nullptr;
  observability::HistogramMetric* submit_latency_us_ = nullptr;
  observability::HistogramMetric* dispatch_latency_us_ = nullptr;
};

}  // namespace declsched::net

#endif  // DECLSCHED_NET_FRONT_DOOR_H_
