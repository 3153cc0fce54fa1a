#include "net/front_door.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "scheduler/ir/explain.h"
#include "storage/wal.h"

namespace declsched::net {

using scheduler::Request;
using scheduler::RequestBatch;

namespace {

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* StatusClass(int status) {
  if (status < 300) return "2xx";
  if (status < 500) return "4xx";
  return "5xx";
}

}  // namespace

FrontDoor::FrontDoor(Options options)
    : options_(std::move(options)),
      registry_(scheduler::ProtocolRegistry::BuiltIns()) {
  requests_total_ = metrics_.GetCounter("frontdoor_requests_total",
                                        "HTTP requests received");
  responses_2xx_ = metrics_.GetCounter(
      "frontdoor_responses_total", "HTTP responses by class", {{"class", "2xx"}});
  responses_4xx_ = metrics_.GetCounter(
      "frontdoor_responses_total", "HTTP responses by class", {{"class", "4xx"}});
  responses_5xx_ = metrics_.GetCounter(
      "frontdoor_responses_total", "HTTP responses by class", {{"class", "5xx"}});
  throttled_tenant_ =
      metrics_.GetCounter("frontdoor_throttled_total",
                          "Submissions refused by admission control",
                          {{"reason", "tenant"}});
  throttled_global_ =
      metrics_.GetCounter("frontdoor_throttled_total",
                          "Submissions refused by admission control",
                          {{"reason", "global"}});
  statements_admitted_ = metrics_.GetCounter(
      "frontdoor_statements_admitted_total", "Client statements admitted");
  txns_committed_ = metrics_.GetCounter("frontdoor_txns_committed_total",
                                        "Transactions committed");
  inflight_gauge_ = metrics_.GetGauge("frontdoor_inflight_statements",
                                      "Admitted, unfinished statements");
  submit_latency_us_ = metrics_.GetHistogram(
      "frontdoor_submit_latency_us",
      "Submit admission to last commit, wall micros");
  dispatch_latency_us_ = metrics_.GetHistogram(
      "frontdoor_dispatch_latency_us",
      "Per-operation submit to dispatch, wall micros");
}

FrontDoor::~FrontDoor() { Shutdown(); }

Status FrontDoor::Start() {
  DS_CHECK(!started_.load());

  // Note: max_statements_per_request is a parse-time body limit, not a
  // dispatch limit — a cycle's batch aggregates many admitted requests, so
  // forwarding it to server.max_batch_statements would make a busy cycle
  // fail validation and kill that shard's worker.
  server_ = std::make_unique<server::DatabaseServer>(options_.server);

  scheduler::ShardedScheduler::Options sched_options;
  sched_options.num_shards = options_.num_shards;
  sched_options.shard = options_.shard;
  // The front door's submission order (one op in flight per transaction,
  // objects ascending) is deadlock-free by construction; victim-abort
  // markers would not flow through on_dispatch, so detection stays off.
  sched_options.shard.deadlock_detection = false;
  sched_options.shard.tenant_qos.publish_snapshots = true;
  sched_options.keep_dispatch_log = options_.keep_dispatch_log;
  sched_options.adaptive = options_.adaptive;
  sched_options.metrics = &metrics_;
  sched_options.on_dispatch = [this](int, const RequestBatch& batch) {
    OnDispatch(batch);
  };
  sched_options.durability = options_.durability;
  sched_ = std::make_unique<scheduler::ShardedScheduler>(
      std::move(sched_options), server_.get());

  // Serve before recovering: until Init() (snapshot load + WAL replay)
  // finishes and the shards start, ready_ stays false and both transports
  // answer 503 "recovering" (HTTP /metrics excepted).
  HttpServer::Options http_options = options_.http;
  http_options.metrics = &metrics_;
  http_ = std::make_unique<HttpServer>(http_options);
  DS_RETURN_NOT_OK(http_->Start(
      [this](HttpRequest request, HttpServer::Responder responder) {
        HandleRequest(std::move(request), std::move(responder));
      }));
  if (options_.binary.has_value()) {
    wire::BinaryServer::Options binary_options = *options_.binary;
    binary_options.metrics = &metrics_;
    binary_ = std::make_unique<wire::BinaryServer>(binary_options);
    DS_RETURN_NOT_OK(binary_->Start(
        [this](wire::WireFrame frame, wire::BinaryServer::Responder responder) {
          HandleWireFrame(std::move(frame), std::move(responder));
        }));
  }
  if (options_.recovery_barrier_for_test) options_.recovery_barrier_for_test();
  started_.store(true);

  DS_RETURN_NOT_OK(sched_->Init());
  // Resume transaction ids above anything recovery restored; reusing a
  // live ta would merge a new client transaction with a restored one.
  next_ta_.store(sched_->recovered_max_ta() + 1);
  DS_RETURN_NOT_OK(sched_->Start());
  ready_.store(true, std::memory_order_release);
  return Status::OK();
}

void FrontDoor::Shutdown() {
  if (!started_.exchange(false)) {
    if (http_) http_->Shutdown();
    if (binary_) binary_->Shutdown();
    if (sched_) sched_->Stop();
    return;
  }
  draining_.store(true);
  // Servers first: their drain windows let in-flight submit responses
  // complete (the scheduler keeps dispatching while they wait).
  http_->Shutdown();
  if (binary_) binary_->Shutdown();
  sched_->Stop();
  ready_.store(false, std::memory_order_release);
  if (sched_->wal() != nullptr) {
    // Clean-shutdown checkpoint: snapshot at the current head and truncate
    // the log, so the next start replays nothing.
    const Status st = sched_->Checkpoint();
    if (st.ok()) {
      DS_LOG(Info) << "clean shutdown: checkpoint at lsn "
                   << sched_->wal()->head_lsn();
    } else {
      DS_LOG(Error) << "clean-shutdown checkpoint failed: " << st.ToString();
    }
  }
}

namespace {

int StatusToHttpCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kUnavailable:
      return 503;
    default:
      return 500;
  }
}

}  // namespace

HttpResponse FrontDoor::StatusToResponse(const Status& status) const {
  const int http_status = StatusToHttpCode(status);
  HttpResponse resp = HttpResponse::Error(
      http_status, StatusCodeToString(status.code()), status.message());
  if (http_status == 429 || http_status == 503) {
    resp.headers.emplace_back("Retry-After",
                              std::to_string(options_.retry_after_seconds));
  }
  return resp;
}

wire::WireError FrontDoor::StatusToWireError(const Status& status) const {
  wire::WireError error;
  error.code = static_cast<uint16_t>(StatusToHttpCode(status));
  if (error.code == 429 || error.code == 503) {
    error.retry_after_seconds =
        static_cast<uint16_t>(options_.retry_after_seconds);
  }
  error.message = status.message();
  return error;
}

void FrontDoor::CountResponse(int status) {
  const char* cls = StatusClass(status);
  if (cls[0] == '2') {
    responses_2xx_->Increment();
  } else if (cls[0] == '4') {
    responses_4xx_->Increment();
  } else {
    responses_5xx_->Increment();
  }
}

void FrontDoor::HandleRequest(HttpRequest request,
                              HttpServer::Responder responder) {
  requests_total_->Increment();
  const std::string path = request.Path();

  if (!ready_.load(std::memory_order_acquire)) {
    // Recovery (snapshot load + WAL replay) is still running. Metrics stay
    // scrapeable; everything else — including submits — answers 503 with
    // Retry-After so clients back off instead of racing the replay.
    HttpResponse resp;
    if (request.method == "GET" && path == "/metrics") {
      resp = HandleMetricsScrape();
    } else if (request.method == "GET" && path == "/healthz") {
      resp = HttpResponse::Json(503, "{\"status\":\"recovering\"}");
      resp.headers.emplace_back("Retry-After",
                                std::to_string(options_.retry_after_seconds));
    } else {
      resp = StatusToResponse(Status::Unavailable("recovering"));
    }
    CountResponse(resp.status);
    responder.Send(std::move(resp));
    return;
  }

  // Deferred route: the submit response fires from OnDispatch.
  if (request.method == "POST" && path == "/v1/submit") {
    HandleSubmit(request, std::move(responder));
    return;
  }

  HttpResponse resp;
  if (request.method == "GET" && path == "/v1/stats") {
    resp = HandleStats();
  } else if (request.method == "GET" && path == "/v1/tenants") {
    resp = HandleTenants();
  } else if (request.method == "GET" && path == "/v1/protocols") {
    resp = HandleProtocols();
  } else if (request.method == "GET" && path == "/metrics") {
    resp = HandleMetricsScrape();
  } else if (request.method == "GET" && path == "/healthz") {
    resp = draining_.load()
               ? HttpResponse::Error(503, "Unavailable", "draining")
               : HttpResponse::Json(200, "{\"status\":\"ok\"}");
  } else if (request.method == "POST" && path == "/v1/admin/protocol") {
    resp = HandleProtocolSwitch(request);
  } else if (request.method == "POST" && path == "/v1/admin/drain") {
    draining_.store(true);
    resp = HttpResponse::Json(200, "{\"draining\":true}");
  } else if (request.method == "GET" && path == "/v1/admin/explain") {
    resp = HandleExplain(request);
  } else {
    resp = HttpResponse::Error(404, "NotFound", "no route " + path);
  }

  CountResponse(resp.status);
  responder.Send(std::move(resp));
}

Status FrontDoor::ParseSubmitBody(const std::string& body, int* tenant,
                                  std::vector<TxnState>* txns,
                                  int64_t* statements) {
  DS_ASSIGN_OR_RETURN(const JsonValue doc, JsonValue::Parse(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("submit body must be a JSON object");
  }
  *tenant = 0;
  if (const JsonValue* t = doc.Get("tenant")) {
    if (!t->is_number()) return Status::InvalidArgument("tenant must be a number");
    *tenant = static_cast<int>(t->AsInt64());
    if (*tenant < 0) return Status::InvalidArgument("tenant must be >= 0");
  }
  const JsonValue* txn_list = doc.Get("txns");
  if (txn_list == nullptr || !txn_list->is_array() || txn_list->size() == 0) {
    return Status::InvalidArgument("submit body needs a non-empty txns array");
  }
  *statements = 0;
  for (const JsonValue& txn_value : txn_list->items()) {
    if (!txn_value.is_object()) {
      return Status::InvalidArgument("each txn must be an object");
    }
    const JsonValue* op_list = txn_value.Get("ops");
    if (op_list == nullptr || !op_list->is_array() || op_list->size() == 0) {
      return Status::InvalidArgument("each txn needs a non-empty ops array");
    }
    TxnState txn;
    txn.tenant = *tenant;
    for (const JsonValue& op_value : op_list->items()) {
      if (!op_value.is_object()) {
        return Status::InvalidArgument("each op must be an object");
      }
      const JsonValue* kind = op_value.Get("op");
      const JsonValue* object = op_value.Get("object");
      if (kind == nullptr || !kind->is_string() || object == nullptr ||
          !object->is_number()) {
        return Status::InvalidArgument(
            "each op needs {\"op\": \"read\"|\"write\", \"object\": n}");
      }
      txn::OpType op;
      if (kind->AsString() == "read") {
        op = txn::OpType::kRead;
      } else if (kind->AsString() == "write") {
        op = txn::OpType::kWrite;
      } else {
        return Status::InvalidArgument("op must be \"read\" or \"write\"");
      }
      DS_RETURN_NOT_OK(AppendOp(&txn, op, object->AsInt64()));
    }
    *statements += static_cast<int64_t>(txn.ops.size());
    txns->push_back(std::move(txn));
  }
  if (*statements > options_.max_statements_per_request) {
    return Status::InvalidArgument(
        StrFormat("request carries %lld statements, limit %lld",
                  static_cast<long long>(*statements),
                  static_cast<long long>(options_.max_statements_per_request)));
  }
  return Status::OK();
}

Status FrontDoor::AppendOp(TxnState* txn, txn::OpType op, int64_t object) {
  if (!txn->objects.empty() && object <= txn->objects.back()) {
    return Status::InvalidArgument(
        "ops must name strictly ascending objects (the deadlock-free "
        "submission order)");
  }
  server::Statement stmt;
  stmt.op = op;
  stmt.object = object;
  stmt.tenant = txn->tenant;
  DS_RETURN_NOT_OK(server_->ValidateStatement(stmt));
  txn->objects.push_back(object);
  txn->ops.push_back(op);
  return Status::OK();
}

Status FrontDoor::WireSubmitToTxns(const wire::WireSubmit& submit, int* tenant,
                                   std::vector<TxnState>* txns,
                                   int64_t* statements) {
  if (submit.tenant < 0 ||
      submit.tenant > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("tenant must be >= 0");
  }
  *tenant = static_cast<int>(submit.tenant);
  if (submit.txns.empty()) {
    return Status::InvalidArgument("SUBMIT needs a non-empty txns list");
  }
  *statements = 0;
  for (const wire::WireTxn& wire_txn : submit.txns) {
    if (wire_txn.ops.empty()) {
      return Status::InvalidArgument("each txn needs a non-empty ops list");
    }
    TxnState txn;
    txn.tenant = *tenant;
    for (const wire::WireOpEntry& op : wire_txn.ops) {
      DS_RETURN_NOT_OK(AppendOp(
          &txn, op.write ? txn::OpType::kWrite : txn::OpType::kRead,
          op.object));
    }
    *statements += static_cast<int64_t>(txn.ops.size());
    txns->push_back(std::move(txn));
  }
  if (*statements > options_.max_statements_per_request) {
    return Status::InvalidArgument(
        StrFormat("request carries %lld statements, limit %lld",
                  static_cast<long long>(*statements),
                  static_cast<long long>(options_.max_statements_per_request)));
  }
  return Status::OK();
}

Status FrontDoor::AdmitTenant(int tenant, int64_t statements) {
  // Callers hold mu_.
  const scheduler::TenantQosSpec* spec = nullptr;
  auto spec_it = options_.shard.tenant_qos.tenants.find(tenant);
  if (spec_it != options_.shard.tenant_qos.tenants.end()) {
    spec = &spec_it->second;
  }
  if (spec == nullptr || spec->rate <= 0) return Status::OK();

  auto [it, created] = buckets_.try_emplace(tenant);
  TenantBucket& bucket = it->second;
  const int64_t now_us = WallMicros();
  if (created) {
    bucket.rate = static_cast<double>(spec->rate);
    bucket.burst = static_cast<double>(
        spec->burst > 0 ? spec->burst : std::max<int64_t>(spec->rate, 1));
    bucket.tokens = bucket.burst;
    bucket.last_refill_us = now_us;
  }
  bucket.tokens = std::min(
      bucket.burst,
      bucket.tokens + bucket.rate *
                          static_cast<double>(now_us - bucket.last_refill_us) /
                          1e6);
  bucket.last_refill_us = now_us;
  if (bucket.tokens < static_cast<double>(statements)) {
    return Status::ResourceExhausted(
        StrFormat("tenant %d over its admission rate", tenant));
  }
  bucket.tokens -= static_cast<double>(statements);
  return Status::OK();
}

void FrontDoor::HandleSubmit(const HttpRequest& request,
                             HttpServer::Responder responder) {
  auto reply = [this, &responder](HttpResponse resp) {
    CountResponse(resp.status);
    responder.Send(std::move(resp));
  };

  if (draining_.load()) {
    reply(StatusToResponse(Status::Unavailable("draining")));
    return;
  }
  int tenant = 0;
  std::vector<TxnState> txns;
  int64_t statements = 0;
  const Status parsed =
      ParseSubmitBody(request.body, &tenant, &txns, &statements);
  if (!parsed.ok()) {
    reply(StatusToResponse(parsed));
    return;
  }

  const Status admitted = SubmitWork(
      tenant, std::move(txns), statements,
      [this, responder](const Status& status, const SubmitOutcome& outcome) {
        if (!status.ok()) {
          HttpResponse resp = StatusToResponse(status);
          CountResponse(resp.status);
          responder.Send(std::move(resp));
          return;
        }
        std::string body = StrFormat(
            "{\"txns\":%lld,\"statements\":%lld,\"dispatched\":%lld,"
            "\"latency_us\":%lld}",
            static_cast<long long>(outcome.txns),
            static_cast<long long>(outcome.statements),
            static_cast<long long>(outcome.dispatched),
            static_cast<long long>(outcome.latency_us));
        CountResponse(200);
        responder.Send(HttpResponse::Json(200, std::move(body)));
      });
  if (!admitted.ok()) reply(StatusToResponse(admitted));
}

Status FrontDoor::SubmitWork(int tenant, std::vector<TxnState> txns,
                             int64_t statements, SubmitDoneFn done) {
  if (draining_.load()) return Status::Unavailable("draining");
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_inflight_statements > 0 &&
      inflight_statements_.load(std::memory_order_relaxed) + statements >
          options_.max_inflight_statements) {
    throttled_global_->Increment();
    return Status::ResourceExhausted(
        "global in-flight statement cap reached");
  }
  const Status admitted = AdmitTenant(tenant, statements);
  if (!admitted.ok()) {
    throttled_tenant_->Increment();
    return admitted;
  }

  const uint64_t job_id = next_job_id_.fetch_add(1);
  Job job;
  job.id = job_id;
  job.done = std::move(done);
  job.txns_total = static_cast<int64_t>(txns.size());
  job.statements = statements;
  job.tenant = tenant;
  job.start_us = WallMicros();
  jobs_[job_id] = std::move(job);

  inflight_statements_.fetch_add(statements, std::memory_order_relaxed);
  inflight_gauge_->Set(inflight_statements_.load(std::memory_order_relaxed));
  statements_admitted_->Increment(statements);

  for (TxnState& txn : txns) {
    const txn::TxnId ta = next_ta_.fetch_add(1);
    txn.job_id = job_id;
    auto [it, inserted] = txns_.emplace(ta, std::move(txn));
    DS_CHECK(inserted);
    SubmitOp(it->second, ta);
  }
  return Status::OK();
}

void FrontDoor::HandleWireFrame(wire::WireFrame frame,
                                wire::BinaryServer::Responder responder) {
  requests_total_->Increment();

  if (!ready_.load(std::memory_order_acquire)) {
    // Recovery is still running: same 503 + Retry-After the HTTP side
    // answers, without closing the connection — clients back off and retry
    // on the same pipe.
    CountResponse(503);
    responder.SendError(StatusToWireError(Status::Unavailable("recovering")));
    return;
  }

  switch (frame.op) {
    case wire::WireOp::kSubmit:
      HandleWireSubmit(frame, std::move(responder));
      return;
    case wire::WireOp::kStats: {
      CountResponse(200);
      responder.Send(wire::WireOp::kStatsOk, StatsJson());
      return;
    }
    case wire::WireOp::kExplain: {
      std::string name;
      const Status decoded = wire::DecodeNameBody(frame.body, &name);
      if (!decoded.ok()) {
        const wire::WireError error = StatusToWireError(decoded);
        CountResponse(error.code);
        responder.SendError(error);
        return;
      }
      Result<std::string> plan = ExplainPlanJson(name);
      if (!plan.ok()) {
        const wire::WireError error = StatusToWireError(plan.status());
        CountResponse(error.code);
        responder.SendError(error);
        return;
      }
      CountResponse(200);
      responder.Send(wire::WireOp::kExplainOk, plan.MoveValue());
      return;
    }
    default: {
      // The server only forwards application ops, so this is unreachable
      // in practice; answer rather than assert.
      const wire::WireError error = StatusToWireError(Status::InvalidArgument(
          StrFormat("unhandled op %s", wire::WireOpName(frame.op))));
      CountResponse(error.code);
      responder.SendError(error);
      return;
    }
  }
}

void FrontDoor::HandleWireSubmit(const wire::WireFrame& frame,
                                 wire::BinaryServer::Responder responder) {
  auto fail = [this, &responder](const Status& status) {
    const wire::WireError error = StatusToWireError(status);
    CountResponse(error.code);
    responder.SendError(error);
  };

  if (draining_.load()) {
    fail(Status::Unavailable("draining"));
    return;
  }
  wire::WireSubmit submit;
  const Status decoded = wire::DecodeSubmitBody(frame.body, &submit);
  if (!decoded.ok()) {
    fail(decoded);
    return;
  }
  int tenant = 0;
  std::vector<TxnState> txns;
  int64_t statements = 0;
  const Status converted =
      WireSubmitToTxns(submit, &tenant, &txns, &statements);
  if (!converted.ok()) {
    fail(converted);
    return;
  }

  const Status admitted = SubmitWork(
      tenant, std::move(txns), statements,
      [this, responder](const Status& status, const SubmitOutcome& outcome) {
        if (!status.ok()) {
          const wire::WireError error = StatusToWireError(status);
          CountResponse(error.code);
          responder.SendError(error);
          return;
        }
        wire::WireSubmitResult result;
        result.txns = outcome.txns;
        result.statements = outcome.statements;
        result.dispatched = outcome.dispatched;
        result.latency_us = outcome.latency_us;
        CountResponse(200);
        responder.Send(wire::WireOp::kSubmitOk, EncodeSubmitOkBody(result));
      });
  if (!admitted.ok()) fail(admitted);
}

void FrontDoor::SubmitOp(TxnState& txn, txn::TxnId ta) {
  // Callers hold mu_.
  Request r;
  r.ta = ta;
  r.tenant = txn.tenant;
  if (txn.next < txn.ops.size()) {
    const size_t i = txn.next++;
    r.intrata = static_cast<int64_t>(i) + 1;
    r.op = txn.ops[i];
    r.object = txn.objects[i];
  } else {
    DS_CHECK(!txn.commit_sent);
    txn.commit_sent = true;
    r.intrata = static_cast<int64_t>(txn.ops.size()) + 1;
    r.op = txn::OpType::kCommit;
    r.object = Request::kNoObject;
  }
  txn.last_submit_us = WallMicros();
  sched_->Submit(std::move(r), SimTime());
}

void FrontDoor::OnDispatch(const RequestBatch& batch) {
  const int64_t now_us = WallMicros();
  struct Completion {
    SubmitDoneFn done;
    SubmitOutcome outcome;
    uint64_t durable_lsn = 0;
  };
  std::vector<Completion> completions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Request& r : batch) {
      auto it = txns_.find(r.ta);
      if (it == txns_.end()) continue;  // not a front-door transaction
      TxnState& txn = it->second;
      dispatch_latency_us_->Record(now_us - txn.last_submit_us);
      auto job_it = jobs_.find(txn.job_id);
      DS_CHECK(job_it != jobs_.end());
      Job& job = job_it->second;
      ++job.requests_dispatched;
      if (r.op != txn::OpType::kCommit) {
        SubmitOp(txn, r.ta);
        continue;
      }
      txns_.erase(it);
      txns_committed_->Increment();
      if (sched_->wal() != nullptr) {
        // head_lsn() here covers every record this commit's dispatch
        // appended (store mutations and escrow fan-outs both precede the
        // on_dispatch callback) and, monotonically, all earlier commits of
        // the job on other shards.
        job.durable_lsn = std::max(job.durable_lsn, sched_->wal()->head_lsn());
      }
      if (++job.txns_done < job.txns_total) continue;

      // Last transaction of the batch committed: finish the job.
      inflight_statements_.fetch_sub(job.statements,
                                     std::memory_order_relaxed);
      inflight_gauge_->Set(
          inflight_statements_.load(std::memory_order_relaxed));
      const int64_t latency_us = now_us - job.start_us;
      submit_latency_us_->Record(latency_us);
      SubmitOutcome outcome;
      outcome.txns = job.txns_total;
      outcome.statements = job.statements;
      outcome.dispatched = job.requests_dispatched;
      outcome.latency_us = latency_us;
      completions.push_back(
          Completion{std::move(job.done), outcome, job.durable_lsn});
      jobs_.erase(job_it);
    }
  }
  // Respond outside the lock: the done callback posts to a reactor
  // (cheap), but keep the dispatch path's critical section minimal anyway.
  // With a WAL the acknowledgement is deferred until the job's records are
  // durable — the cycle threads never wait on fsync, only the
  // acknowledgement edge does (group commit batches the waits).
  storage::Wal* wal = sched_->wal();
  for (Completion& c : completions) {
    if (wal != nullptr && c.durable_lsn > 0) {
      wal->WhenDurable(c.durable_lsn,
                       [done = std::move(c.done), outcome = c.outcome]() {
                         done(Status::OK(), outcome);
                       });
    } else {
      c.done(Status::OK(), c.outcome);
    }
  }
}

HttpResponse FrontDoor::HandleStats() {
  return HttpResponse::Json(200, StatsJson());
}

std::string FrontDoor::StatsJson() {
  const scheduler::ShardedScheduler::Totals totals = sched_->totals();
  JsonValue doc = JsonValue::Object();
  doc.Set("shards", JsonValue::Int(sched_->num_shards()));
  doc.Set("draining", JsonValue::Bool(draining_.load()));
  JsonValue t = JsonValue::Object();
  t.Set("submitted", JsonValue::Int(totals.submitted));
  t.Set("dispatched", JsonValue::Int(totals.dispatched));
  t.Set("cycles", JsonValue::Int(totals.cycles));
  t.Set("escrows", JsonValue::Int(totals.escrows));
  t.Set("mirrors_applied", JsonValue::Int(totals.mirrors_applied));
  t.Set("victims", JsonValue::Int(totals.victims));
  t.Set("adaptive_switches", JsonValue::Int(totals.adaptive_switches));
  doc.Set("totals", std::move(t));
  {
    JsonValue adaptive = JsonValue::Object();
    adaptive.Set("enabled", JsonValue::Bool(options_.adaptive.has_value()));
    if (options_.adaptive.has_value()) {
      JsonValue shards = JsonValue::Array();
      for (int i = 0; i < sched_->num_shards(); ++i) {
        const scheduler::AdaptiveConsistencyController* controller =
            sched_->adaptive_controller(i);
        JsonValue s = JsonValue::Object();
        s.Set("relaxed", JsonValue::Bool(controller->relaxed_active()));
        s.Set("active_protocol", JsonValue::Str(controller->active_protocol()));
        s.Set("switches", JsonValue::Int(controller->switches()));
        s.Set("load", JsonValue::Int(controller->last_load()));
        shards.Append(std::move(s));
      }
      adaptive.Set("shards", std::move(shards));
      adaptive.Set("strict",
                   JsonValue::Str(sched_->adaptive_controller(0)->options().strict.name));
      adaptive.Set("relaxed",
                   JsonValue::Str(sched_->adaptive_controller(0)->options().relaxed.name));
    }
    doc.Set("adaptive", std::move(adaptive));
  }
  {
    // Per-shard incoming-queue depth (mutex-safe to sample live). A depth
    // that stays nonzero while `cycles` stops advancing means that shard's
    // worker is gone or wedged — the signature that caught the dispatch-
    // batch-limit worker death.
    JsonValue depths = JsonValue::Array();
    for (int i = 0; i < sched_->num_shards(); ++i) {
      depths.Append(JsonValue::Int(sched_->shard(i)->queue()->size()));
    }
    doc.Set("shard_queue_depths", std::move(depths));
  }
  doc.Set("inflight_statements",
          JsonValue::Int(inflight_statements_.load(std::memory_order_relaxed)));
  JsonValue srv = JsonValue::Object();
  srv.Set("statements", JsonValue::Int(server_->total_statements()));
  srv.Set("busy_us", JsonValue::Int(server_->total_busy().micros()));
  doc.Set("server", std::move(srv));
  {
    std::lock_guard<std::mutex> lock(mu_);
    doc.Set("jobs_inflight", JsonValue::Int(static_cast<int64_t>(jobs_.size())));
  }
  return doc.Dump();
}

HttpResponse FrontDoor::HandleTenants() {
  const scheduler::ShardedScheduler::GlobalTenantSnapshot snap =
      sched_->TenantSnapshot();
  JsonValue doc = JsonValue::Object();
  JsonValue shards = JsonValue::Array();
  for (const auto& stamp : snap.shards) {
    JsonValue s = JsonValue::Object();
    s.Set("version", JsonValue::Int(static_cast<int64_t>(stamp.version)));
    s.Set("pending_epoch",
          JsonValue::Int(static_cast<int64_t>(stamp.pending_epoch)));
    s.Set("history_epoch",
          JsonValue::Int(static_cast<int64_t>(stamp.history_epoch)));
    shards.Append(std::move(s));
  }
  doc.Set("shards", std::move(shards));
  JsonValue tenants = JsonValue::Array();
  for (const auto& row : snap.tenants) {
    JsonValue t = JsonValue::Object();
    t.Set("tenant", JsonValue::Int(row.tenant));
    t.Set("weight", JsonValue::Int(row.weight));
    t.Set("pending", JsonValue::Int(row.pending));
    t.Set("inflight", JsonValue::Int(row.inflight));
    t.Set("admitted", JsonValue::Int(row.admitted));
    t.Set("dispatched", JsonValue::Int(row.dispatched));
    t.Set("finished_rows", JsonValue::Int(row.finished_rows));
    t.Set("service_us", JsonValue::Int(row.service_us));
    tenants.Append(std::move(t));
  }
  doc.Set("tenants", std::move(tenants));
  return HttpResponse::Json(200, doc.Dump());
}

HttpResponse FrontDoor::HandleProtocols() {
  JsonValue doc = JsonValue::Object();
  JsonValue names = JsonValue::Array();
  for (const std::string& name : registry_.Names()) {
    names.Append(JsonValue::Str(name));
  }
  doc.Set("protocols", std::move(names));
  doc.Set("active", JsonValue::Str(options_.shard.protocol.name));
  return HttpResponse::Json(200, doc.Dump());
}

HttpResponse FrontDoor::HandleMetricsScrape() {
  HttpResponse resp;
  resp.status = 200;
  resp.body = metrics_.RenderPrometheus();
  resp.headers.emplace_back("Content-Type",
                            "text/plain; version=0.0.4; charset=utf-8");
  return resp;
}

HttpResponse FrontDoor::HandleProtocolSwitch(const HttpRequest& request) {
  Result<JsonValue> doc = JsonValue::Parse(request.body);
  if (!doc.ok()) return StatusToResponse(doc.status());
  const JsonValue* name = doc.ValueOrDie().Get("protocol");
  if (name == nullptr || !name->is_string()) {
    return StatusToResponse(
        Status::InvalidArgument("body needs {\"protocol\": \"name\"}"));
  }
  Result<scheduler::ProtocolSpec> spec = registry_.Get(name->AsString());
  if (!spec.ok()) return StatusToResponse(spec.status());

  std::lock_guard<std::mutex> admin_lock(admin_mu_);
  // Park the workers, switch every shard (pending work is preserved),
  // resume. In-flight transactions continue under the new protocol.
  sched_->Stop();
  Status switched = Status::OK();
  for (int s = 0; s < sched_->num_shards(); ++s) {
    switched = sched_->shard(s)->SwitchProtocol(spec.ValueOrDie());
    if (!switched.ok()) break;
  }
  const Status restarted = sched_->Start();
  if (!switched.ok()) return StatusToResponse(switched);
  if (!restarted.ok()) return StatusToResponse(restarted);
  options_.shard.protocol = spec.ValueOrDie();
  return HttpResponse::Json(
      200, "{\"protocol\":" + JsonQuote(name->AsString()) + "}");
}

HttpResponse FrontDoor::HandleExplain(const HttpRequest& request) {
  const std::string name = request.Query("protocol");
  if (name.empty()) {
    return StatusToResponse(
        Status::InvalidArgument("missing ?protocol=<name>"));
  }
  Result<std::string> doc = ExplainPlanJson(name);
  if (!doc.ok()) return StatusToResponse(doc.status());
  return HttpResponse::Json(200, doc.MoveValue());
}

Result<std::string> FrontDoor::ExplainPlanJson(const std::string& name) {
  DS_ASSIGN_OR_RETURN(const scheduler::ProtocolSpec spec, registry_.Get(name));
  // A scratch store supplies the catalog; the live shards' stores are
  // cycle-thread-only.
  scheduler::RequestStore store;
  DS_ASSIGN_OR_RETURN(const std::string plan,
                      scheduler::ir::ExplainProtocol(spec, &store));
  JsonValue doc = JsonValue::Object();
  doc.Set("protocol", JsonValue::Str(name));
  doc.Set("plan", JsonValue::Str(plan));
  return doc.Dump();
}

}  // namespace declsched::net
