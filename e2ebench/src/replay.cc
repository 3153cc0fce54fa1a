#include "replay.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "net/http.h"
#include "net/json.h"
#include "net/wire/wire_codec.h"
#include "observability/metrics.h"
#include "scheduler/protocol_library.h"
#include "scheduler/sharded_scheduler.h"
#include "server/database_server.h"
#include "step_stats.h"

namespace e2ebench {

namespace wire = declsched::net::wire;
namespace sched = declsched::scheduler;
namespace txn = declsched::txn;
using declsched::net::JsonValue;

namespace {

// net_server's configuration: two shards, a checkpoint every 2 s.
constexpr int kShards = 2;
constexpr int64_t kCheckpointIntervalNs = 2000000000;

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SleepUntil(int64_t at_ns) {
  timespec ts;
  ts.tv_sec = at_ns / 1000000000;
  ts.tv_nsec = at_ns % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Spans of one kind, in nanoseconds, appended from any thread.
class SpanLog {
 public:
  void Add(int64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(ns / 1000 > 0 ? ns / 1000 : 0);
    sum_ns_ += ns;
  }
  /// {count, p50, p99, max, mean} in microseconds.
  JsonValue Summary() {
    std::lock_guard<std::mutex> lock(mu_);
    std::sort(samples_.begin(), samples_.end());
    JsonValue j = JsonValue::Object();
    j.Set("count", JsonValue::Int(static_cast<int64_t>(samples_.size())));
    j.Set("p50_us", JsonValue::Int(PercentileSorted(samples_, 0.50)));
    j.Set("p99_us", JsonValue::Int(PercentileSorted(samples_, 0.99)));
    j.Set("max_us", JsonValue::Int(samples_.empty() ? 0 : samples_.back()));
    j.Set("mean_us",
          JsonValue::Double(samples_.empty()
                                ? 0.0
                                : static_cast<double>(sum_ns_) / 1000.0 /
                                      static_cast<double>(samples_.size())));
    return j;
  }

 private:
  std::mutex mu_;
  std::vector<int64_t> samples_;  ///< microseconds
  int64_t sum_ns_ = 0;
};

struct TxnDrive {
  uint64_t job = 0;
  std::vector<wire::WireOpEntry> ops;
  size_t next = 0;
  int64_t submitted_ns = 0;  ///< when the in-flight op was submitted
};

struct Job {
  int64_t due_ns = 0;
  int64_t txns_left = 0;
};

/// The replay's stand-in for the front door's closed-loop drive.
class Replayer {
 public:
  explicit Replayer(const ReplayOptions& o) : o_(o) {}
  bool Run(std::string* json);

 private:
  /// Times the codec parse of one request's bytes; returns the decoded
  /// submit (identical to what the generator produced).
  wire::WireSubmit ParseTimed(const wire::WireSubmit& generated,
                              uint64_t id);
  void SubmitNext(txn::TxnId ta, TxnDrive& drive);
  void OnDispatch(int shard, const sched::RequestBatch& batch);

  const ReplayOptions& o_;
  std::unique_ptr<sched::ShardedScheduler> sched_;
  std::mutex mu_;  ///< guards txns_, jobs_
  std::unordered_map<txn::TxnId, TxnDrive> txns_;
  std::unordered_map<uint64_t, Job> jobs_;
  std::atomic<int64_t> jobs_open_{0};
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  SpanLog parse_, submit_, wait_, durable_, checkpoint_, ack_;
  std::atomic<int64_t> qualified_{0};
  std::atomic<int64_t> blocked_after_{0};
  std::atomic<int64_t> dispatching_cycles_{0};
};

wire::WireSubmit Replayer::ParseTimed(const wire::WireSubmit& generated,
                                      uint64_t id) {
  std::string bytes;
  wire::WireSubmit out;
  if (o_.shape.transport == Transport::kBinary) {
    AppendWireSubmit(&bytes, generated, id);
    const int64_t t0 = NowNs();
    wire::FrameParser parser;
    parser.Feed(bytes);
    wire::WireFrame frame;
    parser.Next(&frame);
    const bool ok = wire::DecodeSubmitBody(frame.body, &out).ok();
    parse_.Add(NowNs() - t0);
    if (!ok) out = generated;
    return out;
  }
  AppendHttpSubmit(&bytes, generated);
  const int64_t t0 = NowNs();
  declsched::net::HttpRequestParser parser;
  parser.Feed(bytes);
  declsched::net::HttpRequest request;
  parser.Next(&request);
  auto doc = JsonValue::Parse(request.body);
  // Walk the document the way the front door does.
  if (doc.ok()) {
    const JsonValue& d = doc.ValueOrDie();
    if (const JsonValue* t = d.Get("tenant")) out.tenant = t->AsInt64();
    if (const JsonValue* list = d.Get("txns")) {
      for (const JsonValue& t : list->items()) {
        wire::WireTxn wt;
        if (const JsonValue* ops = t.Get("ops")) {
          for (const JsonValue& op : ops->items()) {
            wire::WireOpEntry e;
            const JsonValue* kind = op.Get("op");
            const JsonValue* object = op.Get("object");
            e.write = kind != nullptr && kind->AsString() == "write";
            e.object = object != nullptr ? object->AsInt64() : 0;
            wt.ops.push_back(e);
          }
        }
        out.txns.push_back(std::move(wt));
      }
    }
  }
  parse_.Add(NowNs() - t0);
  return out;
}

void Replayer::SubmitNext(txn::TxnId ta, TxnDrive& drive) {
  // Callers hold mu_, as the front door's SubmitOp does.
  sched::Request r;
  r.ta = ta;
  r.tenant = kTenant;
  if (drive.next < drive.ops.size()) {
    const size_t i = drive.next++;
    r.intrata = static_cast<int64_t>(i) + 1;
    r.op = drive.ops[i].write ? txn::OpType::kWrite : txn::OpType::kRead;
    r.object = drive.ops[i].object;
  } else {
    drive.next = drive.ops.size() + 1;
    r.intrata = static_cast<int64_t>(drive.ops.size()) + 1;
    r.op = txn::OpType::kCommit;
    r.object = sched::Request::kNoObject;
  }
  const int64_t t0 = NowNs();
  drive.submitted_ns = t0;
  sched_->Submit(std::move(r), declsched::SimTime());
  submit_.Add(NowNs() - t0);
}

void Replayer::OnDispatch(int shard, const sched::RequestBatch& batch) {
  const int64_t now = NowNs();
  // On the shard's cycle thread: its store is safe to read here. What stays
  // pending after a dispatching cycle is what the protocol left blocked.
  blocked_after_.fetch_add(sched_->shard(shard)->store()->pending_count(),
                           std::memory_order_relaxed);
  qualified_.fetch_add(static_cast<int64_t>(batch.size()),
                       std::memory_order_relaxed);
  dispatching_cycles_.fetch_add(1, std::memory_order_relaxed);
  std::vector<int64_t> finished_due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const sched::Request& r : batch) {
      auto it = txns_.find(r.ta);
      if (it == txns_.end()) continue;
      TxnDrive& drive = it->second;
      wait_.Add(now - drive.submitted_ns);
      if (r.op != txn::OpType::kCommit) {
        SubmitNext(r.ta, drive);
        continue;
      }
      const uint64_t job_id = drive.job;
      txns_.erase(it);
      Job& job = jobs_[job_id];
      if (--job.txns_left > 0) continue;
      finished_due.push_back(job.due_ns);
      jobs_.erase(job_id);
    }
  }
  declsched::storage::Wal* wal = sched_->wal();
  for (int64_t due : finished_due) {
    const uint64_t lsn = wal->head_lsn();
    wal->WhenDurable(lsn, [this, due, now]() {
      const int64_t durable = NowNs();
      durable_.Add(durable - now);
      ack_.Add(durable - due);
      if (jobs_open_.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(done_mu_);
        done_cv_.notify_all();
      }
    });
  }
}

bool Replayer::Run(std::string* json) {
  declsched::server::DatabaseServer::Config server_config;
  server_config.num_rows = kTableRows;
  declsched::server::DatabaseServer server(server_config);
  declsched::observability::MetricsRegistry metrics;

  sched::ProtocolRegistry registry = sched::ProtocolRegistry::BuiltIns();
  sched::ShardedScheduler::Options options;
  options.num_shards = kShards;
  options.shard.protocol = registry.Get("ss2pl-sql").MoveValue();
  options.shard.deadlock_detection = false;
  options.shard.tenant_qos.publish_snapshots = true;
  options.keep_dispatch_log = false;
  options.metrics = &metrics;
  options.on_dispatch = [this](int shard, const sched::RequestBatch& batch) {
    OnDispatch(shard, batch);
  };
  options.durability.enabled = true;
  options.durability.dir = o_.data_dir;
  options.durability.checkpoint_interval_ms = 0;  // issued below, timed
  sched_ = std::make_unique<sched::ShardedScheduler>(std::move(options),
                                                     &server);
  if (!sched_->Init().ok() || !sched_->Start().ok()) {
    *json = "{\"error\":\"scheduler failed to start\"}";
    return false;
  }

  std::atomic<bool> feeding{true};
  std::thread checkpointer([&] {
    int64_t next = NowNs() + kCheckpointIntervalNs;
    while (feeding.load()) {
      if (NowNs() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      const int64_t t0 = NowNs();
      sched_->Checkpoint();
      checkpoint_.Add(NowNs() - t0);
      next += kCheckpointIntervalNs;
    }
  });

  RequestGenerator gen(o_.seed);
  ArrivalSchedule arrivals(o_.seed, 0, o_.rate_rps);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(o_.seconds * 1e9);
  int64_t due = start + arrivals.NextGapNs();
  txn::TxnId next_ta = 1;
  uint64_t next_job = 1;
  int64_t requests = 0;
  int64_t ops_total = 0;
  while (due < end) {
    SleepUntil(due);
    const wire::WireSubmit submit =
        ParseTimed(gen.Next(), static_cast<uint64_t>(requests) + 1);
    ++requests;
    jobs_open_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t job_id = next_job++;
    jobs_[job_id] = Job{due, static_cast<int64_t>(submit.txns.size())};
    for (const wire::WireTxn& t : submit.txns) {
      const txn::TxnId ta = next_ta++;
      TxnDrive& drive = txns_[ta];
      drive.job = job_id;
      drive.ops = t.ops;
      ops_total += static_cast<int64_t>(t.ops.size()) + 1;
      SubmitNext(ta, drive);
    }
    due += arrivals.NextGapNs();
  }
  bool drained = false;
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    drained = done_cv_.wait_for(lock, std::chrono::seconds(30),
                                [&] { return jobs_open_.load() == 0; });
  }
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  feeding.store(false);
  checkpointer.join();
  sched_->Stop();

  int64_t cycles = 0, query_us = 0, cycle_us = 0, dispatched = 0, busy_us = 0;
  declsched::Histogram cycle_hist;  // ~10% buckets, merged over shards
  for (int s = 0; s < sched_->num_shards(); ++s) {
    const sched::SchedulerTotals& t = sched_->shard(s)->totals();
    cycle_hist.Merge(t.cycle_us);
    cycles += t.cycles;
    query_us += t.total_query_us;
    cycle_us += t.total_cycle_us;
    dispatched += t.dispatched;
    busy_us += sched_->shard_busy_us(s);
  }
  const sched::ShardedScheduler::Totals totals = sched_->totals();

  JsonValue doc = JsonValue::Object();
  doc.Set("workload", JsonValue::Str(o_.shape.name));
  doc.Set("rate_rps", JsonValue::Double(o_.rate_rps));
  doc.Set("seconds", JsonValue::Double(o_.seconds));
  doc.Set("wall_s", JsonValue::Double(wall_s));
  doc.Set("requests", JsonValue::Int(requests));
  doc.Set("scheduler_requests", JsonValue::Int(ops_total));
  // Ops of one transaction run one after another (plus the commit); the
  // transactions of a request run side by side.
  doc.Set("chain_ops", JsonValue::Int(kOpsPerTxn + 1));
  doc.Set("drained", JsonValue::Bool(drained));
  doc.Set("parse", parse_.Summary());
  doc.Set("submit", submit_.Summary());
  doc.Set("wait", wait_.Summary());
  doc.Set("durable_wait", durable_.Summary());
  doc.Set("checkpoint", checkpoint_.Summary());
  doc.Set("ack", ack_.Summary());
  JsonValue shards = JsonValue::Object();
  shards.Set("cycles", JsonValue::Int(cycles));
  shards.Set("total_query_us", JsonValue::Int(query_us));
  shards.Set("total_cycle_us", JsonValue::Int(cycle_us));
  shards.Set("cycle_p50_us", JsonValue::Int(cycle_hist.Percentile(50)));
  shards.Set("cycle_p99_us", JsonValue::Int(cycle_hist.Percentile(99)));
  shards.Set("dispatched", JsonValue::Int(dispatched));
  shards.Set("busy_us", JsonValue::Int(busy_us));
  shards.Set("escrows", JsonValue::Int(totals.escrows));
  shards.Set("qualified", JsonValue::Int(qualified_.load()));
  shards.Set("blocked_after_dispatching_cycles",
             JsonValue::Int(blocked_after_.load()));
  shards.Set("dispatching_cycles", JsonValue::Int(dispatching_cycles_.load()));
  doc.Set("shards", std::move(shards));
  *json = doc.Dump();
  // The scheduler points at `server`; tear it down (joining its WAL
  // flusher, which runs the durable callbacks) while both are alive.
  sched_.reset();
  return drained;
}

}  // namespace

bool RunReplay(const ReplayOptions& options, std::string* json) {
  Replayer replayer(options);
  return replayer.Run(json);
}

}  // namespace e2ebench
