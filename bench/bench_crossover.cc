// Reproduces the paper's Section 4.4 discussion: the crossover between the
// native lock-based scheduler and the declarative set-at-a-time scheduler.
//
// Native overhead (simulated): 240 s window minus the single-user replay
// time of the statements it managed to execute.
// Declarative overhead (measured + extrapolated, the paper's method):
// (statements / qualified-per-run) * measured cycle time.
//
// Paper result: at 300 clients the native scheduler wins (46 s vs 1314 s);
// at 500 clients the declarative scheduler wins (106 s vs 225 s).

#include <cstdio>

#include "bench_util.h"
#include "scheduler/declarative_scheduler.h"
#include "server/native_scheduler_sim.h"
#include "server/single_user_replayer.h"

namespace {

using namespace declsched;             // NOLINT
using namespace declsched::bench;      // NOLINT
using namespace declsched::scheduler;  // NOLINT
using declsched::server::NativeSimConfig;
using declsched::server::ReplaySingleUser;
using declsched::server::RunNativeSimulation;

struct Row {
  int clients;
  int64_t statements;
  double native_overhead_s;
  double declarative_overhead_s;  // ss2pl-sql, the paper's configuration
  double datalog_overhead_s;
  double native_backend_overhead_s;  // the ss2pl-native stage pipeline
};

/// The paper's extrapolation for one protocol backend: measure one cycle on
/// the steady state, scale to the statement count.
double DeclarativeOverheadSeconds(const ProtocolSpec& spec, int clients,
                                  int64_t statements) {
  CycleStats stats = MeasureSteadyStateCycle(spec, clients);
  const double qualified = stats.qualified > 0 ? stats.qualified : 1;
  const double runs = static_cast<double>(statements) / qualified;
  return runs * stats.total_us / 1e6;
}

Row RunPoint(int clients) {
  Row row{clients, 0, 0, 0, 0, 0};

  // Native side (simulated, Figure 2 method).
  NativeSimConfig native;
  native.num_clients = clients;
  native.seed = 42;
  auto result = Unwrap(RunNativeSimulation(native), "native sim");
  row.statements = result.committed_statements;
  const double su =
      ReplaySingleUser(result.committed_statements, native.cost).elapsed.ToSecondsF();
  row.native_overhead_s = 240.0 - su;

  // Declarative side, per backend, through the unified Protocol API.
  row.declarative_overhead_s =
      DeclarativeOverheadSeconds(Ss2plSql(), clients, row.statements);
  row.datalog_overhead_s =
      DeclarativeOverheadSeconds(Ss2plDatalog(), clients, row.statements);
  row.native_backend_overhead_s =
      DeclarativeOverheadSeconds(Ss2plNative(), clients, row.statements);
  return row;
}

}  // namespace

int main() {
  std::printf(
      "== Native vs declarative scheduling overhead (paper Section 4.4) ==\n"
      "declarative columns: same middleware, different protocol backend\n\n");
  std::printf("%8s %12s %16s %14s %14s %14s %10s\n", "clients", "stmts",
              "native ovh (s)", "sql (s)", "datalog (s)", "nat-be (s)",
              "winner");

  int crossover = -1;
  for (int clients : {100, 200, 300, 350, 400, 450, 500, 550, 600}) {
    const Row row = RunPoint(clients);
    const bool declarative_wins =
        row.declarative_overhead_s < row.native_overhead_s;
    if (declarative_wins && crossover < 0) crossover = clients;
    std::printf("%8d %12lld %16.1f %14.1f %14.1f %14.1f %10s\n", row.clients,
                static_cast<long long>(row.statements), row.native_overhead_s,
                row.declarative_overhead_s, row.datalog_overhead_s,
                row.native_backend_overhead_s,
                declarative_wins ? "declarative" : "native");
  }

  std::printf("\npaper:    native wins at 300 (46 s vs 1314 s); declarative wins "
              "at 500 (225 s vs 106 s)\n");
  if (crossover > 0) {
    std::printf("measured: crossover between %d and %d clients\n",
                crossover > 100 ? crossover - 50 : crossover, crossover);
  } else {
    std::printf("measured: no crossover in the swept range\n");
  }
  return 0;
}
