// Cycle-cost scaling: per-cycle scheduler cost as resident history grows.
//
// Sweeps resident history size x drain size across the SS2PL formulations.
// Resident history is rows of *active* (uncommitted) transactions — exactly
// the state GC may not retire — so the from-scratch interpreted engines
// pay for it every cycle while the compiled protocols (SQL, Datalog and the
// `ss2pl-native` stage pipeline, all lowered to the protocol IR) pay only
// for the delta. Each point runs fresh-drain cycles on a warmed scheduler
// and reports the best observed per-cycle protocol (query) cost.
//
// Emits one JSON row per (backend, history, drain) point, and exits
// nonzero unless
//   (a) the compiled protocols' per-cycle query cost stays roughly flat as
//       resident history grows;
//   (b) at the largest swept history compiled SQL beats its interpreted
//       oracle ("interp:ss2pl-sql") by the expected margin;
//   (c) the three compiled front-ends of the same plan stay within a small
//       factor of the cheapest of them;
//   (d) the SQL and Datalog texts match the pipeline front-end at the
//       largest history.
//
// Flags: --smoke       small sweep + relaxed gates (CI-friendly)
//        --json PATH   also write the JSON rows to PATH

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "scheduler/declarative_scheduler.h"
#include "scheduler/protocol_library.h"

namespace {

using namespace declsched;             // NOLINT
using namespace declsched::bench;      // NOLINT
using namespace declsched::scheduler;  // NOLINT

constexpr int64_t kObjectSpace = 1000000;
constexpr int kOpsPerResidentTxn = 10;

/// Seeds `rows` resident history rows: rows/10 active transactions with 10
/// ops each, none finished, objects uniform over a large space.
void FillResidentHistory(RequestStore* store, int64_t rows, Rng* rng) {
  if (rows <= 0) return;
  RequestBatch batch;
  batch.reserve(static_cast<size_t>(rows));
  int64_t id = 10000000;
  txn::TxnId ta = 1000000;
  for (int64_t produced = 0; produced < rows;) {
    ++ta;
    for (int k = 0; k < kOpsPerResidentTxn && produced < rows; ++k, ++produced) {
      Request r;
      r.id = ++id;
      r.ta = ta;
      r.intrata = k + 1;
      r.op = k % 2 == 0 ? txn::OpType::kRead : txn::OpType::kWrite;
      r.object = rng->UniformInt(0, kObjectSpace - 1);
      batch.push_back(r);
    }
  }
  Check(store->InsertPending(batch), "insert resident history");
  Check(store->MarkScheduled(batch), "move resident history");
}

struct PointResult {
  int64_t history_rows = 0;
  int drain = 0;
  int64_t query_us = INT64_MAX;  // best of all measured cycles
  int64_t cycle_us = INT64_MAX;
  int64_t qualified = 0;
};

/// One fresh scheduler: seed resident history, one warm-up cycle (absorbs
/// any incremental-state resync), then `measure_cycles` cycles of `drain`
/// fresh single-op transactions each; keeps the cheapest cycle.
PointResult MeasurePoint(const ProtocolSpec& spec, int64_t history_rows,
                         int drain, int measure_cycles, uint64_t seed) {
  DeclarativeScheduler::Options options;
  options.protocol = spec;
  options.deadlock_detection = false;
  DeclarativeScheduler sched(std::move(options), nullptr);
  Check(sched.Init(), "init");
  Rng rng(seed);
  FillResidentHistory(sched.store(), history_rows, &rng);

  PointResult point;
  point.history_rows = history_rows;
  point.drain = drain;
  txn::TxnId next_ta = 2000000;
  auto submit_drain = [&] {
    for (int i = 0; i < drain; ++i) {
      Request r;
      r.ta = ++next_ta;
      r.intrata = 1;
      r.op = rng.Bernoulli(0.5) ? txn::OpType::kRead : txn::OpType::kWrite;
      r.object = rng.UniformInt(0, kObjectSpace - 1);
      sched.Submit(r, SimTime());
    }
  };

  submit_drain();
  Unwrap(sched.RunCycle(SimTime()), "warm-up cycle");
  for (int cycle = 0; cycle < measure_cycles; ++cycle) {
    submit_drain();
    const CycleStats stats = Unwrap(sched.RunCycle(SimTime()), "measured cycle");
    point.query_us = std::min(point.query_us, stats.query_us);
    point.cycle_us = std::min(point.cycle_us, stats.total_us);
    point.qualified = stats.qualified;
  }
  return point;
}

struct Sweep {
  std::string label;
  ProtocolSpec spec;
  /// Declarative backends re-derive everything per cycle; cap how much
  /// resident history they are asked to chew so the sweep stays minutes,
  /// not hours.
  int64_t max_history = INT64_MAX;
  std::vector<PointResult> points;
};

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

  const std::vector<int64_t> history_sizes =
      smoke ? std::vector<int64_t>{0, 2000}
            : std::vector<int64_t>{0, 1000, 2500, 5000, 10000};
  const std::vector<int> drain_sizes =
      smoke ? std::vector<int>{64} : std::vector<int>{32, 256};
  const int measure_cycles = smoke ? 3 : 5;

  // "pipeline" is the `ss2pl-native` spec (filter:ss2pl | rank:fcfs),
  // "sql"/"datalog" the declarative texts: all three compile to the same
  // protocol IR plan. The re-parse-and-interpret engines are the capped
  // "*-interp" rows ("interp:" spec prefix).
  std::vector<Sweep> sweeps;
  sweeps.push_back({"pipeline", Ss2plNative(), INT64_MAX, {}});
  sweeps.push_back({"sql", Ss2plSql(), INT64_MAX, {}});
  sweeps.push_back({"datalog", Ss2plDatalog(), INT64_MAX, {}});
  sweeps.push_back({"sql-interp", InterpretedVariant(Ss2plSql()), 10000, {}});
  sweeps.push_back(
      {"datalog-interp", InterpretedVariant(Ss2plDatalog()), 2500, {}});

  std::printf(
      "== Cycle-cost scaling: resident history x drain, per backend ==\n"
      "resident history: active 10-op transactions (not GC-able);\n"
      "query cost: best of %d cycles, %s sweep.\n\n",
      measure_cycles, smoke ? "smoke" : "full");
  std::printf("%-16s %14s %8s %12s %12s %10s\n", "backend", "history rows",
              "drain", "query (us)", "cycle (us)", "qualified");

  // Interleave repetitions across backends so clock drift on a busy machine
  // hits every backend alike.
  const int reps = smoke ? 2 : 3;
  for (Sweep& sweep : sweeps) {
    for (int64_t h : history_sizes) {
      if (h > sweep.max_history) continue;
      for (int d : drain_sizes) {
        PointResult best;
        best.history_rows = h;
        best.drain = d;
        for (int rep = 0; rep < reps; ++rep) {
          const PointResult p =
              MeasurePoint(sweep.spec, h, d, measure_cycles, /*seed=*/7 + rep);
          best.query_us = std::min(best.query_us, p.query_us);
          best.cycle_us = std::min(best.cycle_us, p.cycle_us);
          best.qualified = p.qualified;
        }
        sweep.points.push_back(best);
        std::printf("%-16s %14lld %8d %12lld %12lld %10lld\n",
                    sweep.label.c_str(), static_cast<long long>(h), d,
                    static_cast<long long>(best.query_us),
                    static_cast<long long>(best.cycle_us),
                    static_cast<long long>(best.qualified));
      }
    }
  }

  // JSON rows (stdout, and --json file if asked).
  std::string json;
  for (const Sweep& sweep : sweeps) {
    for (const PointResult& p : sweep.points) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"cycle_scale\",\"backend\":\"%s\","
                    "\"history_rows\":%lld,\"drain\":%d,\"query_us\":%lld,"
                    "\"cycle_us\":%lld,\"qualified\":%lld}\n",
                    sweep.label.c_str(),
                    static_cast<long long>(p.history_rows), p.drain,
                    static_cast<long long>(p.query_us),
                    static_cast<long long>(p.cycle_us),
                    static_cast<long long>(p.qualified));
      json += line;
    }
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

  // Looks up one sweep point's query cost (-1 when the sweep skipped it).
  auto query_us = [&](const char* label, int64_t history, int drain) {
    for (const Sweep& s : sweeps) {
      if (s.label != label) continue;
      for (const PointResult& p : s.points) {
        if (p.history_rows == history && p.drain == drain) return p.query_us;
      }
    }
    return int64_t{-1};
  };
  const int64_t h_min = history_sizes.front();
  const int64_t h_max = history_sizes.back();

  // Gate (a): per-cycle query cost roughly flat in resident history for
  // every compiled front-end (lowering makes all three scale with the
  // delta, not the history). Compared per drain size: largest-history cost
  // within a small factor of the smallest-history cost (noise floor keeps
  // tiny absolute times from tripping the ratio).
  const double kFlatFactor = smoke ? 4.0 : 3.0;
  const int64_t kNoiseFloorUs = 300;
  bool ok = true;
  const char* const kCompiled[] = {"pipeline", "sql", "datalog"};
  for (const char* label : kCompiled) {
    for (int d : drain_sizes) {
      const int64_t at_min = query_us(label, h_min, d);
      const int64_t at_max = query_us(label, h_max, d);
      const int64_t budget = std::max(
          static_cast<int64_t>(kFlatFactor * static_cast<double>(at_min)),
          kNoiseFloorUs);
      const bool flat = at_max >= 0 && at_min >= 0 && at_max <= budget;
      std::printf("\n%s flatness @drain=%d: %lldus (history=%lld) vs "
                  "%lldus (history=%lld) -> %s\n",
                  label, d, static_cast<long long>(at_min),
                  static_cast<long long>(h_min),
                  static_cast<long long>(at_max),
                  static_cast<long long>(h_max), flat ? "flat" : "NOT FLAT");
      ok = ok && flat;
    }
  }

  // Gate (b): the compiled, incremental SQL protocol beats its stateless
  // interpreted oracle at the largest history. Full sweep demands 5x at
  // 10k rows; smoke just demands it is not slower.
  const double kSpeedupGate = smoke ? 1.0 : 5.0;
  for (int d : drain_sizes) {
    const int64_t compiled_us = query_us("sql", h_max, d);
    const int64_t interp_us = query_us("sql-interp", h_max, d);
    const double speedup = compiled_us > 0
                               ? static_cast<double>(interp_us) /
                                     static_cast<double>(compiled_us)
                               : 0.0;
    const bool fast =
        compiled_us >= 0 && interp_us >= 0 &&
        (speedup >= kSpeedupGate ||
         // Sub-noise absolute costs can't meaningfully miss the gate.
         (interp_us <= kNoiseFloorUs && compiled_us <= interp_us));
    std::printf("sql vs sql-interp @drain=%d, history=%lld: %lldus vs "
                "%lldus (%.1fx, need %.1fx) -> %s\n",
                d, static_cast<long long>(h_max),
                static_cast<long long>(compiled_us),
                static_cast<long long>(interp_us), speedup, kSpeedupGate,
                fast ? "ok" : "TOO SLOW");
    ok = ok && fast;
  }

  // Gate (c): the three front-ends lower to one plan, so at the largest
  // swept history each stays within a small factor of the cheapest of them
  // (vs ~150x for the interpreted engines).
  const double kFrontEndFactor = 5.0;
  for (int d : drain_sizes) {
    int64_t cheapest = INT64_MAX;
    for (const char* label : kCompiled) {
      const int64_t us = query_us(label, h_max, d);
      if (us >= 0) cheapest = std::min(cheapest, us);
    }
    for (const char* label : kCompiled) {
      const int64_t us = query_us(label, h_max, d);
      const int64_t budget = std::max(
          static_cast<int64_t>(kFrontEndFactor * static_cast<double>(cheapest)),
          kNoiseFloorUs);
      const bool close = us >= 0 && us <= budget;
      std::printf("%s vs cheapest front-end @drain=%d, history=%lld: %lldus "
                  "vs %lldus (budget %.0fx) -> %s\n",
                  label, d, static_cast<long long>(h_max),
                  static_cast<long long>(us),
                  static_cast<long long>(cheapest), kFrontEndFactor,
                  close ? "ok" : "TOO SLOW");
      ok = ok && close;
    }
  }

  // Gate (d): at the largest swept history the SQL and Datalog texts
  // match the pipeline front-end. Sub-noise absolute costs pass.
  const int64_t pipeline_us = query_us("pipeline", h_max, drain_sizes.back());
  const int64_t pipeline_budget = std::max(pipeline_us, kNoiseFloorUs);
  for (const char* label : {"sql", "datalog"}) {
    const int64_t us = query_us(label, h_max, drain_sizes.back());
    const bool matches = us >= 0 && pipeline_us >= 0 && us <= pipeline_budget;
    std::printf("%s vs pipeline @history=%lld drain=%d: %lldus vs %lldus "
                "-> %s\n",
                label, static_cast<long long>(h_max), drain_sizes.back(),
                static_cast<long long>(us),
                static_cast<long long>(pipeline_us),
                matches ? "ok" : "SLOWER THAN PIPELINE");
    ok = ok && matches;
  }

  return ok ? 0 : 1;
}
