// Reproduces paper Figure 2 ("Comparison of execution times of single-user
// and multi-user mode") and the Section 4.2.2 calibration numbers.
//
// Method (paper Section 4.2.1): for each client count, run the multi-user
// native-scheduler simulation for a 240 s window under serializable
// isolation, count committed statements, then replay the same statement
// sequence single-user. The reported curve is MU elapsed / SU elapsed in
// percent (SU == 100%).

// In addition, the per-backend section sweeps every SS2PL formulation —
// the `ss2pl-native` stage pipeline and the SQL/Datalog texts (all three
// lowered to one protocol IR plan), their interpreted oracles ("interp:"
// variants) — through the *same* unified Protocol API on the Section 4.3.2
// steady state, and emits one JSON row per formulation with its
// scheduling-cost trajectory. The compiled rows are gated to beat every
// interpreted row everywhere (>= 10x at 500 clients) and to stay within 3x
// of each other.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "scheduler/declarative_scheduler.h"
#include "scheduler/protocol_library.h"
#include "server/native_scheduler_sim.h"
#include "server/single_user_replayer.h"

namespace {

using declsched::SimTime;
using declsched::scheduler::CycleStats;
using declsched::scheduler::ProtocolSpec;
using declsched::server::CostModel;
using declsched::server::NativeSimConfig;
using declsched::server::NativeSimResult;
using declsched::server::ReplaySingleUser;
using declsched::server::RunNativeSimulation;

struct Point {
  int clients;
  int64_t mu_statements;
  double su_seconds;
  double ratio_percent;
  int64_t deadlocks;
  int64_t timeouts;
  int64_t wasted;
};

Point RunPoint(int clients, uint64_t seed) {
  NativeSimConfig config;
  config.num_clients = clients;
  config.seed = seed;
  auto result = RunNativeSimulation(config);
  if (!result.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  auto su = ReplaySingleUser(result->committed_statements, config.cost);
  Point p;
  p.clients = clients;
  p.mu_statements = result->committed_statements;
  p.su_seconds = su.elapsed.ToSecondsF();
  p.ratio_percent = p.su_seconds > 0
                        ? result->elapsed.ToSecondsF() / p.su_seconds * 100.0
                        : 0.0;
  p.deadlocks = result->deadlock_aborts;
  p.timeouts = result->timeout_aborts;
  p.wasted = result->wasted_statements;
  return p;
}

/// One measured point of a backend's overhead trajectory: the real wall
/// cost of one scheduling cycle on the Section 4.3.2 steady state.
struct BackendPoint {
  int clients;
  int64_t query_us;
  int64_t cycle_us;
  int64_t qualified;
};

BackendPoint MeasureOneCycle(const ProtocolSpec& spec, int clients) {
  const CycleStats stats = declsched::bench::MeasureSteadyStateCycle(spec, clients);
  return BackendPoint{clients, stats.query_us, stats.total_us, stats.qualified};
}

bool SweepBackends(bool smoke, const char* json_path) {
  // Index map: 0 the ss2pl-native stage pipeline, 1/2 compiled SQL/Datalog
  // (all three lowered to the same protocol IR plan), 3/4 the interpreted
  // oracles. The compiled-vs-interpreted pairs carry identical protocol
  // text.
  const std::vector<ProtocolSpec> backends = {
      declsched::scheduler::Ss2plNative(),
      declsched::scheduler::Ss2plSql(),
      declsched::scheduler::Ss2plDatalog(),
      declsched::scheduler::InterpretedVariant(declsched::scheduler::Ss2plSql()),
      declsched::scheduler::InterpretedVariant(
          declsched::scheduler::Ss2plDatalog()),
  };
  const std::vector<size_t> kCompiled = {0, 1, 2};
  const std::vector<size_t> kInterpreted = {3, 4};
  const std::vector<int> client_counts = {100, 300, 500};

  std::printf(
      "\n== Per-backend scheduling cost through the unified Protocol API ==\n"
      "steady state: N active 20-op transactions + N pending requests;\n"
      "one measured cycle per point (real wall time).\n\n");
  std::printf("%-24s %-10s %8s %12s %12s %10s\n", "protocol", "backend",
              "clients", "query (us)", "cycle (us)", "qualified");

  // backend index -> trajectory, for the JSON rows and the cheapest check.
  // Repetitions are interleaved across backends (best of seven fresh cycles
  // each; RunCycle consumes pending work) so clock drift on a busy machine
  // hits every backend alike instead of whichever was measured last.
  std::vector<std::vector<BackendPoint>> trajectories(
      backends.size(),
      std::vector<BackendPoint>(client_counts.size(),
                                BackendPoint{0, INT64_MAX, INT64_MAX, 0}));
  const int reps = smoke ? 3 : 7;
  for (size_t point = 0; point < client_counts.size(); ++point) {
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t b = 0; b < backends.size(); ++b) {
        const BackendPoint p = MeasureOneCycle(backends[b], client_counts[point]);
        BackendPoint& best = trajectories[b][point];
        best.clients = p.clients;
        best.query_us = std::min(best.query_us, p.query_us);
        best.cycle_us = std::min(best.cycle_us, p.cycle_us);
        best.qualified = p.qualified;
      }
    }
  }
  for (size_t b = 0; b < backends.size(); ++b) {
    for (const BackendPoint& p : trajectories[b]) {
      std::printf("%-24s %-10s %8d %12lld %12lld %10lld\n",
                  backends[b].name.c_str(), backends[b].backend.c_str(),
                  p.clients, static_cast<long long>(p.query_us),
                  static_cast<long long>(p.cycle_us),
                  static_cast<long long>(p.qualified));
    }
  }

  // One JSON row per backend (machine-readable overhead trajectory),
  // echoed to stdout and written to --json PATH when asked.
  std::string json;
  for (size_t b = 0; b < backends.size(); ++b) {
    std::string clients_json, query_json, cycle_json, qualified_json;
    for (const BackendPoint& p : trajectories[b]) {
      const char* sep = clients_json.empty() ? "" : ",";
      clients_json += sep + std::to_string(p.clients);
      query_json += sep + std::to_string(p.query_us);
      cycle_json += sep + std::to_string(p.cycle_us);
      qualified_json += sep + std::to_string(p.qualified);
    }
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"fig2_backend_overhead\",\"protocol\":\"%s\","
        "\"backend\":\"%s\",\"clients\":[%s],\"query_us\":[%s],"
        "\"cycle_us\":[%s],\"qualified\":[%s]}\n",
        backends[b].name.c_str(), backends[b].backend.c_str(),
        clients_json.c_str(), query_json.c_str(), cycle_json.c_str(),
        qualified_json.c_str());
    json += line;
  }
  std::printf("\n%s", json.c_str());
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return false;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }

  // Gate (a): every compiled row (pipeline, SQL, Datalog) must be strictly
  // cheaper in protocol evaluation (the query phase) than every interpreted
  // row at every point — compiling is what makes the declarative protocol
  // middleware-fast. Whole-cycle time is not gated — with incremental
  // protocols the query phase is down to microseconds and cycle totals are
  // dominated by shared insert/move storage work.
  bool ok = true;
  bool compiled_cheaper = true;
  for (size_t point = 0; point < client_counts.size(); ++point) {
    for (size_t c : kCompiled) {
      for (size_t i : kInterpreted) {
        if (trajectories[c][point].query_us >=
            trajectories[i][point].query_us) {
          compiled_cheaper = false;
        }
      }
    }
  }
  std::printf("\nevery compiled row strictly cheaper than every interpreted "
              "row: %s\n",
              compiled_cheaper ? "yes" : "NO (unexpected)");
  ok = ok && compiled_cheaper;

  // Gate (b): compiling the declarative texts must pay off — the ISSUE 5
  // acceptance bar is >= 10x per-cycle speedup over the interpreted engine
  // at the 500-client point, for both languages.
  constexpr double kCompiledSpeedupGate = 10.0;
  const size_t last = client_counts.size() - 1;
  for (const auto& [compiled_idx, interp_idx] :
       {std::pair<size_t, size_t>{1, 3}, std::pair<size_t, size_t>{2, 4}}) {
    const int64_t compiled_us = trajectories[compiled_idx][last].query_us;
    const int64_t interp_us = trajectories[interp_idx][last].query_us;
    const double speedup =
        compiled_us > 0 ? static_cast<double>(interp_us) /
                              static_cast<double>(compiled_us)
                        : static_cast<double>(interp_us);
    const bool fast = speedup >= kCompiledSpeedupGate;
    std::printf("%s vs %s @%d clients: %lldus vs %lldus (%.1fx, need %.0fx) "
                "-> %s\n",
                backends[compiled_idx].name.c_str(),
                backends[interp_idx].name.c_str(), client_counts[last],
                static_cast<long long>(compiled_us),
                static_cast<long long>(interp_us), speedup,
                kCompiledSpeedupGate, fast ? "ok" : "TOO SLOW");
    ok = ok && fast;
  }

  // Gate (c): the three front-ends (indexes 0-2) lower to one plan, so at
  // every point each stays within a small constant factor of the cheapest
  // of them.
  constexpr double kFrontEndFactor = 3.0;
  constexpr int64_t kNoiseFloorUs = 200;
  for (size_t point = 0; point < client_counts.size(); ++point) {
    int64_t cheapest = INT64_MAX;
    for (size_t b = 0; b <= 2; ++b) {
      cheapest = std::min(cheapest, trajectories[b][point].query_us);
    }
    const int64_t budget = std::max(
        static_cast<int64_t>(kFrontEndFactor * static_cast<double>(cheapest)),
        kNoiseFloorUs);
    for (size_t b = 0; b <= 2; ++b) {
      const int64_t us = trajectories[b][point].query_us;
      if (us > budget) {
        std::printf("%s @%d clients: %lldus exceeds %.0fx the cheapest "
                    "front-end (%lldus)\n",
                    backends[b].name.c_str(), client_counts[point],
                    static_cast<long long>(us), kFrontEndFactor,
                    static_cast<long long>(cheapest));
        ok = false;
      }
    }
  }

  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke skips the (minutes-long) Figure 2 simulation sweep and runs
  // only the gated per-backend section with fewer repetitions — the
  // CI-friendly mode; --json PATH writes the backend JSON rows to a file.
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
    } else if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  if (smoke) return SweepBackends(smoke, json_path) ? 0 : 1;

  std::printf(
      "== Figure 2: execution time multi-user / single-user (SU = 100%%) ==\n"
      "workload: 20 SELECT + 20 UPDATE per txn, 100000 rows, uniform;\n"
      "240 s simulated window per point; isolation serializable (SS2PL).\n\n");
  std::printf("%8s %14s %10s %12s %9s %9s %10s\n", "clients", "MU stmts",
              "SU (s)", "MU/SU (%)", "deadlocks", "timeouts", "wasted");

  for (int clients : {1, 25, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500,
                      550, 600}) {
    const Point p = RunPoint(clients, /*seed=*/42);
    std::printf("%8d %14lld %10.1f %12.1f %9lld %9lld %10lld\n", p.clients,
                static_cast<long long>(p.mu_statements), p.su_seconds,
                p.ratio_percent, static_cast<long long>(p.deadlocks),
                static_cast<long long>(p.timeouts),
                static_cast<long long>(p.wasted));
  }

  std::printf(
      "\n== Section 4.2.2 calibration points (paper vs. this reproduction) ==\n");
  std::printf("%-34s %14s %14s\n", "", "paper", "measured");
  const Point p300 = RunPoint(300, 42);
  const Point p500 = RunPoint(500, 42);
  std::printf("%-34s %14s %14lld\n", "statements in 240s @300 clients", "550055",
              static_cast<long long>(p300.mu_statements));
  std::printf("%-34s %14s %14.0f\n", "single-user replay @300 (s)", "194",
              p300.su_seconds);
  std::printf("%-34s %14s %14.0f\n", "native overhead @300 (s)", "46",
              240.0 - p300.su_seconds);
  std::printf("%-34s %14s %14lld\n", "statements in 240s @500 clients", "48267",
              static_cast<long long>(p500.mu_statements));
  std::printf("%-34s %14s %14.0f\n", "single-user replay @500 (s)", "15",
              p500.su_seconds);
  std::printf("%-34s %14s %14.0f\n", "native overhead @500 (s)", "225",
              240.0 - p500.su_seconds);

  // Nonzero exit when the acceptance check regresses, so CI and scripts
  // see it rather than just a line in the log.
  return SweepBackends(smoke, json_path) ? 0 : 1;
}
