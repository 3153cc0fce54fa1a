// Multi-tenant fairness & QoS: the ISSUE 4 tentpole claims, measured.
//
// Part 1 — fairness. 16 tenants share one scheduler with per-cycle
// admission capacity 8; tenant 0 is an aggressor running 10 closed-loop
// clients while every other tenant runs 1. Each client submits a
// single-read transaction, commits it when the read dispatches, and
// starts the next one when the commit dispatches. Under fcfs dispatch is
// submission order, so throughput is proportional to submission rate and
// the aggressor takes ~10x every light tenant's share (Jain fairness
// index ~0.34 over per-tenant read throughput). Under wfq the tenants
// relation's virtual time equalizes service per tenant (Jain -> 1).
//   Gates: Jain(wfq) >= 0.9, and Jain(fcfs) <= 0.75 so the baseline stays
//   visibly unfair (a regression that made fcfs "fair" would mean the
//   workload no longer exercises the skew).
//
// Part 2 — accounting overhead. The TenantAccountant rides along every
// cycle (delta hooks + one tenants-relation flush); its cost must be
// invisible next to the scheduler's own work. Measured at the
// bench_cycle_scale 10k-resident-row point (ss2pl-native, drains 64 and
// 256): best-of-K interleaved cycle cost with accounting on vs off.
//   Gate: on-cost <= off-cost * 1.05 + a small absolute noise floor
//   (5us full, 10us smoke) per drain size.
//
// Flags: --smoke       smaller sweep + relaxed gates (CI-friendly)
//        --json PATH   also write the JSON rows to PATH

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "scheduler/declarative_scheduler.h"
#include "scheduler/protocol_library.h"
#include "scheduler/tenant_accountant.h"

namespace {

using namespace declsched;             // NOLINT
using namespace declsched::bench;      // NOLINT
using namespace declsched::scheduler;  // NOLINT

constexpr int kTenants = 16;
constexpr int kAggressorClients = 10;
constexpr int64_t kDispatchCap = 8;

// --- part 1: fairness ------------------------------------------------------

struct FairnessResult {
  double jain = 0;
  std::vector<int64_t> reads_per_tenant;
};

double JainIndex(const std::vector<int64_t>& xs) {
  double sum = 0, sum_sq = 0;
  for (int64_t x : xs) {
    sum += static_cast<double>(x);
    sum_sq += static_cast<double>(x) * static_cast<double>(x);
  }
  if (sum_sq == 0) return 0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

/// Drives the closed-loop skewed workload for `cycles` cycles and counts
/// per-tenant dispatched reads after a warm-up window.
FairnessResult RunFairness(const ProtocolSpec& spec, int cycles, int warmup) {
  DeclarativeScheduler::Options options;
  options.protocol = spec;
  options.deadlock_detection = false;
  options.max_dispatch_per_cycle = kDispatchCap;
  DeclarativeScheduler sched(std::move(options), nullptr);
  Check(sched.Init(), "init");

  int64_t next_ta = 1;
  int64_t next_object = 0;
  std::vector<int64_t> tenant_of_ta_capacity;  // ta -> tenant (dense)
  auto tenant_of = [&tenant_of_ta_capacity](int64_t ta) {
    return tenant_of_ta_capacity[static_cast<size_t>(ta)];
  };
  auto submit_read = [&](int tenant, SimTime now) {
    Request r;
    r.ta = next_ta++;
    tenant_of_ta_capacity.push_back(tenant);
    r.intrata = 1;
    r.op = txn::OpType::kRead;
    r.object = next_object++ % 100000;
    r.tenant = tenant;
    sched.Submit(r, now);
  };
  tenant_of_ta_capacity.push_back(-1);  // ta 0 unused

  FairnessResult result;
  result.reads_per_tenant.assign(kTenants, 0);
  for (int tenant = 0; tenant < kTenants; ++tenant) {
    const int clients = tenant == 0 ? kAggressorClients : 1;
    for (int c = 0; c < clients; ++c) submit_read(tenant, SimTime());
  }
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const SimTime now = SimTime::FromMicros(cycle + 1);
    const CycleStats stats = Unwrap(sched.RunCycle(now), "fairness cycle");
    (void)stats;
    for (const Request& r : sched.last_dispatched()) {
      if (r.op == txn::OpType::kRead) {
        if (cycle >= warmup) ++result.reads_per_tenant[r.tenant];
        Request commit;
        commit.ta = r.ta;
        commit.intrata = 2;
        commit.op = txn::OpType::kCommit;
        commit.object = Request::kNoObject;
        commit.tenant = r.tenant;
        sched.Submit(commit, now);
      } else if (r.op == txn::OpType::kCommit) {
        submit_read(static_cast<int>(tenant_of(r.ta)), now);
      }
    }
  }
  result.jain = JainIndex(result.reads_per_tenant);
  return result;
}

// --- part 2: accounting overhead -------------------------------------------

/// One fresh scheduler at the cycle-scale resident-history point; returns
/// the best measured cycle cost (total_us) over `measure_cycles` cycles.
int64_t MeasureCycleCost(bool accounting, int64_t history_rows, int drain,
                         int measure_cycles, uint64_t seed) {
  DeclarativeScheduler::Options options;
  options.protocol = Ss2plNative();
  options.deadlock_detection = false;
  options.tenant_accounting = accounting;
  DeclarativeScheduler sched(std::move(options), nullptr);
  Check(sched.Init(), "init");
  Rng rng(seed);

  // Resident history: active 10-op transactions, none finished (the
  // bench_cycle_scale shape, seeded behind the scheduler's back — the
  // warm-up cycle absorbs the one-off resync).
  {
    RequestBatch batch;
    batch.reserve(static_cast<size_t>(history_rows));
    int64_t id = 10000000;
    txn::TxnId ta = 1000000;
    for (int64_t produced = 0; produced < history_rows;) {
      ++ta;
      for (int k = 0; k < 10 && produced < history_rows; ++k, ++produced) {
        Request r;
        r.id = ++id;
        r.ta = ta;
        r.intrata = k + 1;
        r.op = k % 2 == 0 ? txn::OpType::kRead : txn::OpType::kWrite;
        r.object = rng.UniformInt(0, 999999);
        batch.push_back(r);
      }
    }
    Check(sched.store()->InsertPending(batch), "insert resident history");
    Check(sched.store()->MarkScheduled(batch), "move resident history");
  }

  txn::TxnId next_ta = 2000000;
  auto submit_drain = [&] {
    for (int i = 0; i < drain; ++i) {
      Request r;
      r.ta = ++next_ta;
      r.intrata = 1;
      r.op = rng.Bernoulli(0.5) ? txn::OpType::kRead : txn::OpType::kWrite;
      r.object = rng.UniformInt(0, 999999);
      sched.Submit(r, SimTime());
    }
  };
  submit_drain();
  Unwrap(sched.RunCycle(SimTime()), "warm-up cycle");
  int64_t best = INT64_MAX;
  for (int cycle = 0; cycle < measure_cycles; ++cycle) {
    submit_drain();
    const CycleStats stats = Unwrap(sched.RunCycle(SimTime()), "measured cycle");
    best = std::min(best, stats.total_us);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  std::string json;
  bool ok = true;

  // --- part 1: fairness under skew ---
  const int cycles = smoke ? 400 : 1500;
  const int warmup = smoke ? 100 : 300;
  std::printf(
      "== Tenant fairness: %d tenants, 1 aggressor x%d clients, "
      "capacity %lld/cycle ==\n",
      kTenants, kAggressorClients, static_cast<long long>(kDispatchCap));
  struct {
    const char* label;
    ProtocolSpec spec;
    FairnessResult result;
  } runs[] = {{"fcfs", FcfsNative(), {}}, {"wfq", WfqNative(), {}}};
  for (auto& run : runs) {
    run.result = RunFairness(run.spec, cycles, warmup);
    int64_t aggressor = run.result.reads_per_tenant[0];
    int64_t light_min = INT64_MAX, light_max = 0;
    for (int t = 1; t < kTenants; ++t) {
      light_min = std::min(light_min, run.result.reads_per_tenant[t]);
      light_max = std::max(light_max, run.result.reads_per_tenant[t]);
    }
    std::printf(
        "%-5s Jain %.3f   reads/tenant: aggressor %lld, lightest %lld, "
        "heaviest light %lld\n",
        run.label, run.result.jain, static_cast<long long>(aggressor),
        static_cast<long long>(light_min), static_cast<long long>(light_max));
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"tenant_fairness\",\"mode\":\"fairness\","
                  "\"policy\":\"%s\",\"tenants\":%d,\"aggressor_clients\":%d,"
                  "\"capacity\":%lld,\"cycles\":%d,\"jain\":%.4f,"
                  "\"aggressor_reads\":%lld,\"light_min_reads\":%lld}\n",
                  run.label, kTenants, kAggressorClients,
                  static_cast<long long>(kDispatchCap), cycles, run.result.jain,
                  static_cast<long long>(aggressor),
                  static_cast<long long>(light_min));
    json += line;
  }
  const double wfq_gate = smoke ? 0.88 : 0.90;
  const bool fair = runs[1].result.jain >= wfq_gate;
  const bool unfair_baseline = runs[0].result.jain <= 0.75;
  std::printf("\nwfq Jain %.3f (need >= %.2f) -> %s\n", runs[1].result.jain,
              wfq_gate, fair ? "ok" : "NOT FAIR");
  std::printf("fcfs Jain %.3f (need <= 0.75, the unfair baseline) -> %s\n",
              runs[0].result.jain, unfair_baseline ? "ok" : "NOT SKEWED");
  ok = ok && fair && unfair_baseline;

  // --- part 2: accounting overhead at the cycle-scale 10k-row point ---
  const int64_t history_rows = smoke ? 2000 : 10000;
  const int measure_cycles = smoke ? 3 : 5;
  const int reps = smoke ? 3 : 7;
  const double ratio_gate = 1.05;
  const int64_t floor_us = smoke ? 10 : 5;
  std::printf(
      "\n== Accounting overhead: ss2pl-native, %lld resident rows ==\n",
      static_cast<long long>(history_rows));
  for (int drain : {64, 256}) {
    int64_t best_on = INT64_MAX, best_off = INT64_MAX;
    // Interleave on/off reps so machine noise hits both alike.
    for (int rep = 0; rep < reps; ++rep) {
      best_off = std::min(best_off, MeasureCycleCost(false, history_rows, drain,
                                                     measure_cycles, 7 + rep));
      best_on = std::min(best_on, MeasureCycleCost(true, history_rows, drain,
                                                   measure_cycles, 7 + rep));
    }
    const int64_t budget =
        static_cast<int64_t>(static_cast<double>(best_off) * ratio_gate) +
        floor_us;
    const bool cheap = best_on <= budget;
    std::printf(
        "drain=%3d: cycle %5lldus with accounting vs %5lldus without "
        "(budget %lldus) -> %s\n",
        drain, static_cast<long long>(best_on),
        static_cast<long long>(best_off), static_cast<long long>(budget),
        cheap ? "ok" : "TOO EXPENSIVE");
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"tenant_fairness\",\"mode\":\"overhead\","
                  "\"history_rows\":%lld,\"drain\":%d,\"cycle_on_us\":%lld,"
                  "\"cycle_off_us\":%lld}\n",
                  static_cast<long long>(history_rows), drain,
                  static_cast<long long>(best_on),
                  static_cast<long long>(best_off));
    json += line;
    ok = ok && cheap;
  }

  std::printf("\n%s", json.c_str());
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  return ok ? 0 : 1;
}
