// Open-loop client for the end-to-end benchmark.
//
// One driver thread, a few pipelined connections, Poisson arrivals from the
// seeded generator. Every request is timed from its *due* time, not from
// when it was written, so a stall in the client or the server shows up as
// latency for every request it delays. Latencies are kept as exact samples.
// Each acknowledgement is checked against what was sent; any missing,
// duplicated or wrong answer is a violation that fails the run.

#ifndef E2EBENCH_OPEN_LOOP_CLIENT_H_
#define E2EBENCH_OPEN_LOOP_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "step_stats.h"
#include "workload_gen.h"

namespace e2ebench {

struct StepPlan {
  std::string name;
  double rate_rps = 0;
  double seconds = 0;
  bool ladder = false;
};

struct ClientOptions {
  WorkloadShape shape;
  uint64_t seed = 1;
  uint16_t http_port = 0;
  uint16_t binary_port = 0;
  int connections = 4;
  /// Binary reactors of the server: connections are re-dialled until each
  /// reactor owns an equal share (the kernel's SO_REUSEPORT hash alone
  /// gives a different split from run to run).
  int reactors = 2;
  pid_t server_pid = 0;
  std::vector<StepPlan> steps;
  /// Geometric ladder appended after `steps` (none when the start is 0):
  /// ladder_start_rps * kLadderRatio^k, see step_stats.h.
  double ladder_start_rps = 0;
  double ladder_step_seconds = 2;
  StepLimits limits;
  /// Client-side cap on statements in flight, equal to the server's default
  /// admission cap: a due request that would exceed it waits in the client
  /// (still timed from its due time), so the server never refuses one.
  int64_t max_inflight_statements = 4096;
  /// When set, scrape /metrics + /v1/stats at every step boundary and write
  /// the scrapes and the per-request spans to `trace_prefix`* at the end.
  std::string trace_prefix;
  double drain_timeout_s = 20;
};

struct StepResult {
  StepPlan plan;
  StepSummary summary;
  bool passed = false;
  std::string why;
  double wall_s = 0;  ///< step start to the last answer
  int64_t server_cpu_us = 0;
  int64_t client_cpu_us = 0;
  int64_t bytes_out = 0;
  int64_t bytes_in = 0;
  int64_t writes = 0;
  int64_t late_p99_ns = 0;
  int64_t server_latency_p50_us = 0;  ///< from the ack's latency_us field
  int64_t server_latency_p99_us = 0;
};

struct RunResult {
  std::vector<StepResult> steps;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<int> accept_split;  ///< connections per reactor
  int connect_attempts = 0;
  std::string final_stats_json;
  int max_rate_step = -1;  ///< index into steps of the highest passing
                           ///< ladder step
};

/// Runs the whole plan against a live server. Errors that stop the run
/// (cannot connect, every connection lost) are violations too.
RunResult RunOpenLoop(const ClientOptions& options);

/// Renders `result` as one JSON document.
std::string RunResultJson(const RunResult& result);

/// Checks a final /v1/stats document: submitted == dispatched and nothing
/// left in flight. Appends violations; true if none.
bool CheckFinalStats(const std::string& stats_json,
                     std::vector<std::string>* violations);

/// Checks one acknowledgement's counters against the expected ones.
bool AckMatches(const ExpectedAck& expected, int64_t txns, int64_t statements,
                int64_t dispatched, std::string* why);

}  // namespace e2ebench

#endif  // E2EBENCH_OPEN_LOOP_CLIENT_H_
