#include "scheduler/sharded_scheduler.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/crashpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "scheduler/durability.h"

namespace declsched::scheduler {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// For busy accounting: CPU consumed by the calling thread. Unlike wall
// time, this does not charge a shard for the WAL flusher (or a neighboring
// shard, on a machine with fewer cores than threads) preempting it
// mid-cycle — those cycles belong to the preempting thread. Keeps the
// speedup/cost projections meaningful on small CI machines. A syscall, so
// read once per claim, not per pass; back-to-back claims share a reading.
int64_t ThreadCpuMicros() {
  timespec ts;
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return ts.tv_sec * 1000000 + ts.tv_nsec / 1000;
}

bool IsFinisher(txn::OpType op) {
  return op == txn::OpType::kCommit || op == txn::OpType::kAbort;
}

// Passes one claim may run before it lets go: bounds how long a shard's own
// worker (or a driven shard's owner) waits behind a claim holder.
constexpr int kClaimPasses = 8;

// The shard worker running on this thread, if any: the scheduler it belongs
// to (tests run several in one process) and the shards its claims made
// runnable, one bit per shard, which it drives once its claim is released.
struct WorkerThread {
  const ShardedScheduler* sched = nullptr;
  uint32_t to_drive = 0;
};
thread_local WorkerThread tls_worker;

}  // namespace

ShardedScheduler::ShardedScheduler(Options options,
                                   server::DatabaseServer* server)
    : options_(std::move(options)),
      server_(server),
      router_(options_.num_shards) {
  DS_CHECK(options_.num_shards >= 1 &&
           options_.num_shards <= ShardRouter::kMaxShards);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.metrics != nullptr) {
    auto* m = options_.metrics;
    m_submitted_ =
        m->GetCounter("sched_submitted_total", "Requests admitted (routed)");
    m_dispatched_ =
        m->GetCounter("sched_dispatched_total", "Requests dispatched");
    m_cycles_ = m->GetCounter("sched_cycles_total", "Scheduler cycles run");
    m_escrows_ = m->GetCounter("sched_escrows_total",
                               "Cross-shard finishers through escrow");
    m_mirrors_ = m->GetCounter("sched_mirrors_applied_total",
                               "Escrow mirror markers applied");
    m_victims_ =
        m->GetCounter("sched_victims_total", "Deadlock victims aborted");
    m_gc_removed_ = m->GetCounter("sched_gc_removed_total",
                                  "History rows retired by GC");
    m_cycle_us_.reserve(static_cast<size_t>(options_.num_shards));
    for (int i = 0; i < options_.num_shards; ++i) {
      m_cycle_us_.push_back(
          m->GetHistogram("sched_cycle_us", "Cycle wall time per shard",
                          {{"shard", std::to_string(i)}}));
      m_wakeups_.push_back(
          m->GetCounter("sched_worker_wakeups_total",
                        "Times the shard's parked worker was woken",
                        {{"shard", std::to_string(i)}}));
    }
    if (options_.durability.enabled) {
      m_snapshot_lsn_ = m->GetGauge("snapshot_last_lsn",
                                    "LSN covered by the last snapshot");
      m_recovery_replayed_ =
          m->GetGauge("recovery_replayed_records",
                      "WAL records replayed by the last recovery");
    }
    if (options_.adaptive.has_value()) {
      m_adaptive_switches_ = m->GetCounter(
          "adaptive_switches_total",
          "Protocol switches made by per-shard adaptive controllers");
      m_adaptive_relaxed_.reserve(static_cast<size_t>(options_.num_shards));
      m_adaptive_load_.reserve(static_cast<size_t>(options_.num_shards));
      for (int i = 0; i < options_.num_shards; ++i) {
        m_adaptive_relaxed_.push_back(
            m->GetGauge("adaptive_relaxed",
                        "1 while the shard runs its relaxed protocol",
                        {{"shard", std::to_string(i)}}));
        m_adaptive_load_.push_back(
            m->GetGauge("adaptive_load_score",
                        "Last adaptive load score observed by the shard",
                        {{"shard", std::to_string(i)}}));
      }
    }
  }
}

ShardedScheduler::~ShardedScheduler() { Stop(); }

Status ShardedScheduler::Init() {
  DS_CHECK(!initialized_);
  for (int i = 0; i < options_.num_shards; ++i) {
    DeclarativeScheduler::Options opt = options_.shard;
    opt.shard = i;
    opt.num_shards = options_.num_shards;
    // Shard accountants publish cycle-boundary snapshots so
    // TenantSnapshot() can merge them from any thread.
    opt.tenant_qos.publish_snapshots = true;
    // A disjoint high range per shard: internally assigned ids (deadlock
    // abort markers) can never collide with this class's global ids.
    opt.first_request_id =
        (int64_t{1} << 40) + (static_cast<int64_t>(i) << 32);
    shards_[i]->sched =
        std::make_unique<DeclarativeScheduler>(std::move(opt), server_);
    DS_RETURN_NOT_OK(shards_[i]->sched->Init());
    shards_[i]->sched->queue()->set_notify([this, i] { MarkDirty(i); });
    if (options_.adaptive.has_value()) {
      shards_[i]->adaptive = std::make_unique<AdaptiveConsistencyController>(
          *options_.adaptive, shards_[i]->sched.get());
      DS_RETURN_NOT_OK(shards_[i]->adaptive->Validate());
      // The controller assumes it knows which protocol is active; pin the
      // shard to the strict spec so state and reality start aligned.
      DS_RETURN_NOT_OK(shards_[i]->sched->SwitchProtocol(
          shards_[i]->adaptive->options().strict));
    }
  }
  if (options_.durability.enabled) DS_RETURN_NOT_OK(RecoverAndAttach());
  initialized_ = true;
  return Status::OK();
}

Status ShardedScheduler::RecoverAndAttach() {
  const DurabilityOptions& d = options_.durability;
  if (d.dir.empty()) return Status::InvalidArgument("durability.dir must be set");
  if (::mkdir(d.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(
        StrFormat("mkdir %s: %s", d.dir.c_str(), std::strerror(errno)));
  }
  std::vector<EscrowFanout> fanouts;
  DS_ASSIGN_OR_RETURN(
      recovery_result_,
      storage::RunRecovery(
          d.dir, options_.num_shards,
          [this](int s, const std::vector<storage::TableSnapshot>& tables) {
            return RestoreShardStore(shards_[s]->sched->store(), tables);
          },
          [this, &fanouts](const storage::WalRecord& rec) -> Status {
            if (static_cast<WalRecordType>(rec.type) ==
                WalRecordType::kEscrowFanout) {
              DS_ASSIGN_OR_RETURN(EscrowFanout fanout,
                                  DecodeEscrowFanout(rec.payload));
              fanouts.push_back(std::move(fanout));
              return Status::OK();
            }
            return ApplyWalRecord(shards_[rec.shard]->sched->store(), rec);
          }));
  DS_RETURN_NOT_OK(ReestablishCrossShardState(fanouts));

  storage::Wal::Options wal_opt;
  wal_opt.path = storage::WalPath(d.dir);
  wal_opt.fsync = d.fsync;
  wal_opt.metrics = options_.metrics;
  DS_ASSIGN_OR_RETURN(wal_,
                      storage::Wal::Open(wal_opt, recovery_result_.next_lsn));
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_[s]->sched->store()->AttachWal(wal_.get(),
                                          static_cast<uint16_t>(s));
  }
  ckpt_bytes_mark_.store(wal_->appended_bytes(), std::memory_order_relaxed);

  if (recovery_result_.records_replayed > 0 || recovery_result_.tail_truncated) {
    // Fold the replayed tail (and any republished mirrors) into a fresh
    // snapshot: the next recovery starts from it, and a truncated torn
    // tail can never resurface.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    DS_RETURN_NOT_OK(WriteCheckpointNow());
  } else if (m_snapshot_lsn_ != nullptr) {
    m_snapshot_lsn_->Set(static_cast<int64_t>(recovery_result_.snapshot_lsn));
  }
  if (m_recovery_replayed_ != nullptr) {
    m_recovery_replayed_->Set(recovery_result_.records_replayed);
  }
  DS_LOG(Info) << "recovery: replayed " << recovery_result_.records_replayed
               << " wal records (" << recovery_result_.records_skipped
               << " pre-snapshot skipped) on top of snapshot lsn "
               << recovery_result_.snapshot_lsn
               << (recovery_result_.tail_truncated
                       ? " — torn tail truncated (" +
                             recovery_result_.tail_reason + ")"
                       : "")
               << " in " << recovery_result_.duration_us << " us";
  return Status::OK();
}

Status ShardedScheduler::ReestablishCrossShardState(
    const std::vector<EscrowFanout>& fanouts) {
  struct TxnState {
    uint32_t rows_mask = 0;    ///< shards with non-marker rows of the txn
    uint32_t marker_mask = 0;  ///< shards with a termination marker in history
    int pending_finisher_shard = -1;
    Request pending_finisher;
    bool finished = false;  ///< a finisher dispatched: marker or fanout seen
    Request marker;         ///< that finisher, the mirror owed to stragglers
  };
  std::unordered_map<txn::TxnId, TxnState> txns;
  // Id counters died with the process; the restored rows carry the high
  // water marks. Ids at or above 1<<40 are the shards' internal ranges
  // (victim markers) and must not drag the global counter into them.
  int64_t max_id = 0;
  txn::TxnId max_ta = 0;
  const auto observe_ids = [&](const Request& r) {
    if (r.id < (int64_t{1} << 40)) max_id = std::max(max_id, r.id);
    max_ta = std::max(max_ta, r.ta);
  };
  for (int s = 0; s < options_.num_shards; ++s) {
    RequestStore* store = shards_[s]->sched->store();
    for (const auto& [id, r] : store->pending_by_id()) {
      observe_ids(r);
      TxnState& t = txns[r.ta];
      if (IsFinisher(r.op)) {
        t.pending_finisher_shard = s;
        t.pending_finisher = r;
      } else {
        t.rows_mask |= 1u << s;
      }
    }
    store->catalog()
        ->GetTable("history")
        ->ForEach([&](storage::RowId, const storage::Row& row) {
          const Request r = RequestStore::RowToRequestFull(row);
          observe_ids(r);
          TxnState& t = txns[r.ta];
          if (IsFinisher(r.op)) {
            t.marker_mask |= 1u << s;
            t.finished = true;
            t.marker = r;
          } else {
            t.rows_mask |= 1u << s;
          }
        });
  }
  next_id_.store(max_id + 1, std::memory_order_relaxed);
  recovered_max_ta_ = max_ta;

  for (auto& [ta, t] : txns) {
    if (t.marker_mask != 0) continue;  // finished; mirrors below handle stragglers
    // Unfinished: the router's footprint died with the process, but the
    // restored rows say exactly which shards hold this transaction's
    // locks — without this, a resubmitted finisher would hash-fall-back
    // to one arbitrary shard and leak locks everywhere else.
    uint32_t mask = t.rows_mask;
    for (int s = 0; mask != 0; ++s, mask >>= 1) {
      if (mask & 1u) router_.RecordFootprint(ta, s);
    }
    if (t.pending_finisher_shard < 0) continue;
    // A restored-but-undispatched finisher: if its transaction spans
    // shards, re-register the escrow entries its original Submit created,
    // or its dispatch would never fan the lock releases out.
    const int home = t.pending_finisher_shard;
    const uint32_t full = t.rows_mask | (1u << home);
    std::vector<int> involved;
    for (int s = 0; s < options_.num_shards; ++s) {
      if (full >> s & 1u) involved.push_back(s);
    }
    if (involved.size() <= 1) continue;
    for (int s : involved) {
      Shard& sh = *shards_[s];
      EscrowEntry entry;
      entry.marker = t.pending_finisher;
      entry.mirror_mask = s == home ? full : 0;
      std::lock_guard<std::mutex> lock(sh.escrow_mu);
      if (sh.escrow_entries.emplace(ta, std::move(entry)).second) {
        sh.escrow_count.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // Re-publish mirrors whose application never reached the receiving
  // shard's log. A finisher dispatched if any shard holds its marker, or,
  // once the home shard's GC erased that marker, if its fanout record
  // survived. Either proof alone suffices: the home shard logs its
  // dispatch before the fanout record, so a crash between the two leaves
  // only the marker. A shard still holding non-marker rows with no marker
  // of its own never applied (or never re-logged) the release.
  for (const EscrowFanout& fanout : fanouts) {
    auto it = txns.find(fanout.marker.ta);
    if (it == txns.end() || it->second.finished) continue;
    it->second.finished = true;
    it->second.marker = fanout.marker;
  }
  for (const auto& [ta, t] : txns) {
    if (!t.finished) continue;
    uint32_t owed = t.rows_mask & ~t.marker_mask;
    for (int s = 0; owed != 0; ++s, owed >>= 1) {
      if (owed & 1u) PublishMirror(s, t.marker);
    }
  }
  return Status::OK();
}

void ShardedScheduler::MarkDirty(int s) {
  Shard& sh = *shards_[s];
  {
    std::lock_guard<std::mutex> lock(sh.wake_mu);
    sh.dirty = true;
    // The claim holder re-checks `dirty` before it lets go.
    if (sh.running) return;
    if (tls_worker.sched == this) {
      // Follow the work instead of waking another worker: this thread
      // claims the shard itself once its current claim is released. Never
      // here — callers of Submit may hold locks (FrontDoor::OnDispatch).
      tls_worker.to_drive |= 1u << s;
      return;
    }
    if (!sh.parked) return;  // the worker re-checks before it parks
    UnparkLocked(s);
  }
  sh.wake_cv.notify_one();
}

void ShardedScheduler::UnparkLocked(int s) {
  shards_[s]->parked = false;
  if (!m_wakeups_.empty()) m_wakeups_[static_cast<size_t>(s)]->Increment();
}

bool ShardedScheduler::TryClaim(int s) {
  Shard& sh = *shards_[s];
  std::lock_guard<std::mutex> lock(sh.wake_mu);
  if (!sh.dirty || sh.running || stop_.load(std::memory_order_acquire)) {
    return false;
  }
  sh.running = true;
  claims_.fetch_add(1);
  return true;
}

void ShardedScheduler::RunClaimed(int s, int64_t* cpu_us) {
  Shard& sh = *shards_[s];
  for (int pass = 0; pass < kClaimPasses; ++pass) {
    {
      std::lock_guard<std::mutex> lock(sh.wake_mu);
      if (!sh.dirty || stop_.load(std::memory_order_acquire)) break;
      sh.dirty = false;
    }
    const Result<bool> ran = RunShardOnce(s, /*dirty=*/true, Now());
    // Fatal: a shard that stops cycling keeps admitting requests that
    // never dispatch. The WAL makes a crash recoverable; a wedge is not.
    if (!ran.ok()) {
      std::fprintf(stderr, "shard %d cycle failed: %s\n", s,
                   ran.status().ToString().c_str());
      DS_CHECK(ran.ok());
    }
  }
  const int64_t now_cpu_us = ThreadCpuMicros();
  sh.busy_us.fetch_add(now_cpu_us - *cpu_us, std::memory_order_relaxed);
  *cpu_us = now_cpu_us;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(sh.wake_mu);
    sh.running = false;
    // Still runnable (budget spent, or a MarkDirty landed during the
    // claim): hand it back to its worker. An unparked owner re-checks.
    if (sh.dirty && sh.parked) {
      UnparkLocked(s);
      wake = true;
    }
  }
  if (wake) sh.wake_cv.notify_one();
}

void ShardedScheduler::DriveRecorded(int own, int64_t* cpu_us) {
  while (tls_worker.to_drive != 0) {
    // The own shard rides along each round, so work a reactor admitted
    // there meanwhile does not wait for the whole chain to end.
    uint32_t mask = std::exchange(tls_worker.to_drive, 0) | 1u << own;
    for (int t = 0; mask != 0; ++t, mask >>= 1) {
      if ((mask & 1u) && TryClaim(t)) RunClaimed(t, cpu_us);
    }
  }
}

int64_t ShardedScheduler::Submit(Request request, SimTime now) {
  DS_CHECK(initialized_);
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.arrival = now;
  // Advance the shared cycle clock (max, monotone).
  int64_t observed = now_us_.load(std::memory_order_relaxed);
  while (now.micros() > observed &&
         !now_us_.compare_exchange_weak(observed, now.micros(),
                                        std::memory_order_relaxed)) {
  }

  const ShardRouter::Route route = router_.RouteRequest(request);
  if (route.involved.size() <= 1) {
    shards_[route.shard]->sched->SubmitRouted(request);
  } else {
    // Escrow path: tickets in canonical (ascending) shard order.
    for (int s : route.involved) shards_[s]->ticket_mu.lock();
    uint32_t mask = 0;
    for (int s : route.involved) mask |= 1u << s;
    const int home = route.involved.front();
    for (int s : route.involved) {
      Shard& sh = *shards_[s];
      EscrowEntry entry;
      entry.marker = request;
      entry.mirror_mask = s == home ? mask : 0;
      std::lock_guard<std::mutex> lock(sh.escrow_mu);
      if (sh.escrow_entries.emplace(request.ta, std::move(entry)).second) {
        sh.escrow_count.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Every involved shard has granted (ticket held, escrow registered):
    // publish the finisher for dispatch by the home shard's protocol.
    shards_[home]->sched->SubmitRouted(request);
    for (auto it = route.involved.rbegin(); it != route.involved.rend(); ++it) {
      shards_[*it]->ticket_mu.unlock();
    }
    escrows_.fetch_add(1, std::memory_order_relaxed);
    if (m_escrows_ != nullptr) m_escrows_->Increment();
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (m_submitted_ != nullptr) m_submitted_->Increment();
  return request.id;
}

Status ShardedScheduler::AbortTransaction(txn::TxnId ta, SimTime now) {
  DS_CHECK(initialized_);
  const std::vector<int> footprint = router_.Footprint(ta);
  if (footprint.empty()) {
    return Status::NotFound(
        StrFormat("no footprint recorded for transaction %lld",
                  static_cast<long long>(ta)));
  }
  router_.Forget(ta);
  for (int s : footprint) {
    Request marker;
    marker.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    marker.ta = ta;
    marker.intrata = 1 << 30;
    marker.op = txn::OpType::kAbort;
    marker.object = Request::kNoObject;
    marker.arrival = now;
    marker.client = -1;
    PublishMirror(s, marker);
  }
  external_aborts_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void ShardedScheduler::PublishMirror(int to_shard, const Request& marker) {
  Shard& sh = *shards_[to_shard];
  {
    std::lock_guard<std::mutex> lock(sh.mirror_mu);
    sh.mirror_inbox.push_back(marker);
  }
  MarkDirty(to_shard);
}

int ShardedScheduler::ApplyMirrors(int s) {
  Shard& sh = *shards_[s];
  std::vector<Request> inbox;
  {
    std::lock_guard<std::mutex> lock(sh.mirror_mu);
    inbox.swap(sh.mirror_inbox);
  }
  for (const Request& marker : inbox) {
    DS_CHECK_OK(sh.sched->ApplyEscrowedFinisher(marker));
    {
      std::lock_guard<std::mutex> lock(sh.escrow_mu);
      if (sh.escrow_entries.erase(marker.ta) > 0) {
        sh.escrow_count.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    mirrors_applied_.fetch_add(1, std::memory_order_relaxed);
    if (m_mirrors_ != nullptr) m_mirrors_->Increment();
  }
  return static_cast<int>(inbox.size());
}

Status ShardedScheduler::ProcessDispatched(int s, const RequestBatch& batch) {
  if (batch.empty()) return Status::OK();
  Shard& sh = *shards_[s];
  // Escrow fan-out: a dispatched cross-shard finisher publishes its mirror
  // markers to the other involved shards — locks release there only now,
  // never before the dispatch.
  for (const Request& r : batch) {
    if (!IsFinisher(r.op)) continue;
    uint32_t mask = 0;
    {
      std::lock_guard<std::mutex> lock(sh.escrow_mu);
      auto it = sh.escrow_entries.find(r.ta);
      if (it != sh.escrow_entries.end()) {
        mask = it->second.mirror_mask;
        sh.escrow_entries.erase(it);
        sh.escrow_count.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    // Make the fan-out durable before publishing: the inboxes are memory,
    // and the home shard's own GC retires the marker in this same cycle —
    // without this record a crash here would leak the other shards' locks
    // forever (recovery re-publishes from it; see
    // ReestablishCrossShardState).
    if (mask != 0 && wal_ != nullptr) {
      wal_->Append(static_cast<uint8_t>(WalRecordType::kEscrowFanout),
                   static_cast<uint16_t>(s), EncodeEscrowFanout(mask, r));
    }
    for (int t = 0; mask != 0; ++t, mask >>= 1) {
      if ((mask & 1u) && t != s) PublishMirror(t, r);
    }
  }
  dispatched_.fetch_add(static_cast<int64_t>(batch.size()),
                        std::memory_order_relaxed);
  if (m_dispatched_ != nullptr) {
    m_dispatched_->Increment(static_cast<int64_t>(batch.size()));
  }
  if (options_.keep_dispatch_log) {
    std::lock_guard<std::mutex> lock(dispatch_log_mu_);
    dispatch_log_.insert(dispatch_log_.end(), batch.begin(), batch.end());
  }
  if (options_.on_dispatch) options_.on_dispatch(s, batch);
  return Status::OK();
}

Result<bool> ShardedScheduler::RunShardOnce(int s, bool dirty, SimTime now) {
  Shard& sh = *shards_[s];

  // Order matters: the caller consumed the wake flag BEFORE this drains the
  // mirror inbox. A mirror published after the consume leaves the flag set
  // for the next pass; a mirror published before it is drained below and
  // forces a cycle via `applied`. Draining first would allow a mirror to
  // slip in between drain and consume — the cycle would then run without
  // the marker in the store, dispatch nothing, and eat the only wakeup (a
  // permanent stall).
  const int applied = ApplyMirrors(s);
  const bool runnable = dirty || applied > 0;

  // Refresh the advisory escrow view for this shard's protocol. In the
  // common zero-escrow case skip the lock entirely; the view is advisory,
  // so a registration racing this relaxed read is simply visible one
  // cycle later.
  if (sh.escrow_count.load(std::memory_order_relaxed) == 0) {
    sh.escrow_view.txns.clear();
    sh.sched->set_escrowed_locks(nullptr);
  } else {
    std::lock_guard<std::mutex> lock(sh.escrow_mu);
    sh.escrow_view.txns.clear();
    for (const auto& [ta, entry] : sh.escrow_entries) {
      sh.escrow_view.txns.push_back(ta);
    }
    sh.sched->set_escrowed_locks(sh.escrow_view.txns.empty() ? nullptr
                                                             : &sh.escrow_view);
  }

  if (!runnable ||
      (sh.sched->queue_size() == 0 && sh.sched->store()->pending_count() == 0)) {
    return false;
  }

  DS_ASSIGN_OR_RETURN(const CycleStats stats, sh.sched->RunCycle(now));
  cycles_.fetch_add(1, std::memory_order_relaxed);
  if (m_cycles_ != nullptr) {
    m_cycles_->Increment();
    m_cycle_us_[static_cast<size_t>(s)]->Record(stats.total_us);
    if (stats.gc_removed > 0) m_gc_removed_->Increment(stats.gc_removed);
  }
  DS_RETURN_NOT_OK(ProcessDispatched(s, sh.sched->last_dispatched()));

  // Cross-shard victim mirroring: the resolver aborted these transactions
  // here; release their locks (and drop their pending) on every other shard
  // in their footprint.
  for (txn::TxnId victim : sh.sched->last_victims()) {
    victims_.fetch_add(1, std::memory_order_relaxed);
    if (m_victims_ != nullptr) m_victims_->Increment();
    const std::vector<int> footprint = router_.Footprint(victim);
    router_.Forget(victim);
    for (int t : footprint) {
      if (t == s) continue;
      Request marker;
      marker.id = next_id_.fetch_add(1, std::memory_order_relaxed);
      marker.ta = victim;
      marker.intrata = 1 << 30;
      marker.op = txn::OpType::kAbort;
      marker.object = Request::kNoObject;
      marker.arrival = now;
      marker.client = -1;
      PublishMirror(t, marker);
    }
  }

  // Per-shard adaptive consistency: fold this cycle's live signals into
  // the controller. Sampled after dispatch/victim processing so queue and
  // pending depths describe what the *next* cycle will face.
  if (sh.adaptive != nullptr) {
    // Starvation window for the accountant scan: a tenant whose oldest
    // pending request has waited this long (simulated) counts as starved —
    // load the hysteresis cannot ignore.
    constexpr int64_t kStarvationWaitUs = 100000;
    AdaptiveSignals sig;
    sig.queue_depth = sh.sched->queue_size();
    sig.wait_depth = sh.sched->store()->pending_count();
    sig.conflict_depth =
        stats.pending_before + stats.drained - stats.qualified;
    if (TenantAccountant* acct = sh.sched->tenant_accountant()) {
      for (const TenantAccountant::TenantTotals& t : acct->Totals()) {
        sig.inflight += t.inflight;
      }
      sig.starved_tenants = static_cast<int64_t>(
          acct->StarvedTenants(now, kStarvationWaitUs).size());
    }
    DS_ASSIGN_OR_RETURN(const bool switched, sh.adaptive->OnCycle(sig));
    if (switched) {
      adaptive_switches_.fetch_add(1, std::memory_order_relaxed);
      if (m_adaptive_switches_ != nullptr) m_adaptive_switches_->Increment();
    }
    if (m_adaptive_switches_ != nullptr) {
      m_adaptive_relaxed_[static_cast<size_t>(s)]->Set(
          sh.adaptive->relaxed_active() ? 1 : 0);
      m_adaptive_load_[static_cast<size_t>(s)]->Set(sig.LoadScore());
    }
  }

  // Dispatches and aborts change lock state — pending requests that were
  // blocked may now qualify, so look again while any are left. A cycle that
  // moved nothing, or left nothing pending, leaves the shard quiescent until
  // new input arrives.
  if ((stats.dispatched > 0 || stats.victims > 0) &&
      sh.sched->store()->pending_count() > 0) {
    MarkDirty(s);
  }
  return true;
}

void ShardedScheduler::WorkerLoop(int s) {
  Shard& sh = *shards_[s];
  tls_worker = WorkerThread{this, 0};
  while (true) {
    {
      std::unique_lock<std::mutex> lock(sh.wake_mu);
      while (!stop_.load(std::memory_order_acquire) &&
             !(sh.dirty && !sh.running)) {
        sh.parked = true;
        idle_cv_.notify_all();
        sh.wake_cv.wait(lock);
      }
      sh.parked = false;
      if (stop_.load(std::memory_order_acquire)) break;
      sh.running = true;
      claims_.fetch_add(1);
    }
    int64_t cpu_us = ThreadCpuMicros();
    RunClaimed(s, &cpu_us);
    DriveRecorded(s, &cpu_us);
  }
  tls_worker = WorkerThread{};
  {
    std::lock_guard<std::mutex> lock(sh.wake_mu);
    sh.parked = true;
  }
  idle_cv_.notify_all();
}

Status ShardedScheduler::StartLocked() {
  DS_CHECK(initialized_);
  if (started_) return Status::OK();
  stop_.store(false, std::memory_order_release);
  // Reset every shard before spawning any worker: a running worker may
  // already claim or wake another shard.
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->wake_mu);
    DS_CHECK(!sh->running);
    sh->parked = false;
  }
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
  started_ = true;
  return Status::OK();
}

void ShardedScheduler::StopLocked() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->wake_mu);
    sh->wake_cv.notify_all();
  }
  // Only workers claim shards, and a worker lets go of every claim before
  // it exits: joining them waits for every claim to be released.
  for (auto& sh : shards_) {
    if (sh->worker.joinable()) sh->worker.join();
  }
  for (auto& sh : shards_) DS_CHECK(!sh->running);
  started_ = false;
}

Status ShardedScheduler::Start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    DS_RETURN_NOT_OK(StartLocked());
  }
  if (wal_ != nullptr && options_.durability.checkpoint_interval_ms > 0 &&
      !ckpt_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(ckpt_mu_);
      ckpt_stop_ = false;
    }
    ckpt_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  return Status::OK();
}

void ShardedScheduler::Stop() {
  // Join the checkpoint thread before taking lifecycle_mu_: it calls
  // Checkpoint(), which takes that mutex.
  StopCheckpointThread();
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  StopLocked();
}

Status ShardedScheduler::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("checkpoint without durability enabled");
  }
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  const bool was_started = started_;
  if (was_started) StopLocked();
  const Status st = WriteCheckpointNow();
  if (was_started) DS_RETURN_NOT_OK(StartLocked());
  return st;
}

Status ShardedScheduler::WriteCheckpointNow() {
  // Workers are parked/joined; drain every mirror inbox before snapshotting.
  // Rotate() below truncates the kEscrowFanout records, so any fan-out still
  // sitting in memory must land in the snapshotted relations first.
  for (int s = 0; s < options_.num_shards; ++s) {
    (void)ApplyMirrors(s);
  }
  DS_RETURN_NOT_OK(wal_->Flush());
  storage::SnapshotData data;
  data.last_lsn = wal_->head_lsn();
  data.shards.reserve(shards_.size());
  for (auto& sh : shards_) {
    data.shards.push_back(SnapshotShardStore(*sh->sched->store()));
  }
  DS_RETURN_NOT_OK(storage::WriteSnapshot(options_.durability.dir, data));
  CrashPoint("snapshot:post-rename-pre-truncate");
  DS_RETURN_NOT_OK(wal_->Rotate());
  ckpt_bytes_mark_.store(wal_->appended_bytes(), std::memory_order_relaxed);
  if (m_snapshot_lsn_ != nullptr) {
    m_snapshot_lsn_->Set(static_cast<int64_t>(data.last_lsn));
  }
  return Status::OK();
}

void ShardedScheduler::CheckpointLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.durability.checkpoint_interval_ms);
  std::unique_lock<std::mutex> lock(ckpt_mu_);
  while (!ckpt_stop_) {
    ckpt_cv_.wait_for(lock, interval, [this] { return ckpt_stop_; });
    if (ckpt_stop_) return;
    lock.unlock();
    const int64_t every = options_.durability.checkpoint_every_bytes;
    const bool due =
        every <= 0 ||
        wal_->appended_bytes() -
                ckpt_bytes_mark_.load(std::memory_order_relaxed) >=
            every;
    if (due) {
      const Status st = Checkpoint();
      if (!st.ok()) {
        DS_LOG(Error) << "periodic checkpoint failed: " << st.ToString();
      }
    }
    lock.lock();
  }
}

void ShardedScheduler::StopCheckpointThread() {
  if (!ckpt_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ckpt_stop_ = true;
  }
  ckpt_cv_.notify_all();
  ckpt_thread_.join();
}

bool ShardedScheduler::WaitIdle(int64_t timeout_us) {
  const int64_t deadline = NowMicros() + timeout_us;
  std::unique_lock<std::mutex> idle_lock(idle_mu_);
  while (true) {
    // A claim taken mid-scan may have moved work onto a shard already
    // scanned; such a scan proves nothing.
    const uint64_t claims = claims_.load();
    bool idle = true;
    for (auto& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh->wake_mu);
      if (!sh->parked || sh->dirty || sh->running) {
        idle = false;
        break;
      }
    }
    if (idle) {
      for (auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mirror_mu);
        if (!sh->mirror_inbox.empty()) idle = false;
      }
      for (auto& sh : shards_) {
        if (sh->sched->queue_size() != 0) idle = false;
      }
    }
    if (idle && claims_.load() == claims) return true;
    if (NowMicros() >= deadline) return false;
    idle_cv_.wait_for(idle_lock, std::chrono::milliseconds(1));
  }
}

Result<int> ShardedScheduler::StepOnce(SimTime now) {
  DS_CHECK(initialized_ && !started_);
  int ran = 0;
  for (int s = 0; s < options_.num_shards; ++s) {
    Shard& sh = *shards_[s];
    const int64_t t0 = ThreadCpuMicros();
    bool dirty;
    {
      std::lock_guard<std::mutex> lock(sh.wake_mu);
      dirty = sh.dirty;
      sh.dirty = false;
    }
    DS_ASSIGN_OR_RETURN(const bool cycled, RunShardOnce(s, dirty, now));
    sh.busy_us.fetch_add(ThreadCpuMicros() - t0, std::memory_order_relaxed);
    ran += cycled ? 1 : 0;
  }
  return ran;
}

Status ShardedScheduler::RunUntilIdle(SimTime now, int max_steps) {
  for (int step = 0; step < max_steps; ++step) {
    const int64_t mirrors_before =
        mirrors_applied_.load(std::memory_order_relaxed);
    DS_ASSIGN_OR_RETURN(const int ran, StepOnce(now));
    if (ran == 0 &&
        mirrors_applied_.load(std::memory_order_relaxed) == mirrors_before) {
      return Status::OK();
    }
  }
  return Status::Internal("sharded scheduler not quiescent after max_steps");
}

ShardedScheduler::Totals ShardedScheduler::totals() const {
  Totals t;
  t.submitted = submitted_.load(std::memory_order_relaxed);
  t.dispatched = dispatched_.load(std::memory_order_relaxed);
  t.cycles = cycles_.load(std::memory_order_relaxed);
  t.escrows = escrows_.load(std::memory_order_relaxed);
  t.mirrors_applied = mirrors_applied_.load(std::memory_order_relaxed);
  t.victims = victims_.load(std::memory_order_relaxed);
  t.adaptive_switches = adaptive_switches_.load(std::memory_order_relaxed);
  t.external_aborts = external_aborts_.load(std::memory_order_relaxed);
  return t;
}

ShardedScheduler::GlobalTenantSnapshot ShardedScheduler::TenantSnapshot() const {
  GlobalTenantSnapshot global;
  global.shards.reserve(shards_.size());
  std::map<int64_t, TenantAccountant::TenantTotals> merged;
  for (const auto& sh : shards_) {
    TenantAccountant* acct = sh->sched->tenant_accountant();
    GlobalTenantSnapshot::ShardStamp stamp;
    if (acct != nullptr) {
      const TenantAccountant::Snapshot snap = acct->PublishedSnapshot();
      stamp.version = snap.version;
      stamp.pending_epoch = snap.pending_epoch;
      stamp.history_epoch = snap.history_epoch;
      for (const TenantAccountant::TenantTotals& t : snap.tenants) {
        TenantAccountant::TenantTotals& m = merged[t.tenant];
        m.tenant = t.tenant;
        m.weight = t.weight;
        m.pending += t.pending;
        m.inflight += t.inflight;
        m.admitted += t.admitted;
        m.dispatched += t.dispatched;
        m.finished_rows += t.finished_rows;
        m.service_us += t.service_us;
        // vtime/round/tokens are per-shard-relative; left 0 in the merge.
      }
    }
    global.shards.push_back(stamp);
  }
  global.tenants.reserve(merged.size());
  for (auto& [tenant, totals] : merged) global.tenants.push_back(totals);
  return global;
}

RequestBatch ShardedScheduler::TakeDispatched() {
  std::lock_guard<std::mutex> lock(dispatch_log_mu_);
  RequestBatch out;
  out.swap(dispatch_log_);
  return out;
}

int64_t ShardedScheduler::shard_busy_us(int i) const {
  return shards_[i]->busy_us.load(std::memory_order_relaxed);
}

}  // namespace declsched::scheduler
