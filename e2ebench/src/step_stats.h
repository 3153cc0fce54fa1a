// Exact latency percentiles and the rate-step verdicts of the open-loop
// client. Pure functions over samples, so the self-test can pin them on
// synthetic inputs.

#ifndef E2EBENCH_STEP_STATS_H_
#define E2EBENCH_STEP_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least p*n samples at or below it. p in (0, 1]; 0 for an empty input.
int64_t PercentileSorted(const std::vector<int64_t>& sorted, double p);

/// Sorts a copy and takes PercentileSorted.
int64_t Percentile(std::vector<int64_t> samples, double p);

/// What one rate step measured (times in nanoseconds).
struct StepSummary {
  double offered_rps = 0;      ///< requests due in the step / step seconds
  int64_t due = 0;             ///< requests whose due time fell in the step
  int64_t acked = 0;           ///< 2xx acknowledgements with correct counters
  int64_t failed = 0;          ///< refused, non-2xx, wrong, unanswered
  bool backlog_capped = false; ///< held-back requests fell 1 s behind
  double achieved_rps = 0;     ///< acked / (last ack - step start)
  int64_t ack_p50_ns = 0;
  int64_t ack_p99_ns = 0;
  /// Generator lateness (send time - due time), over the first and the last
  /// quarter of the step's requests.
  int64_t late_p50_first_quarter_ns = 0;
  int64_t late_p50_last_quarter_ns = 0;
};

struct StepLimits {
  int64_t ack_p99_limit_ns = 0;
  /// achieved_rps must be at least this share of offered_rps.
  double min_achieved_share = 0.95;
  /// Lateness growth across the step that marks the generator as behind.
  int64_t max_late_growth_ns = 1000000;
};

/// True if the step meets the limit with no growing backlog and no failure;
/// otherwise false with the first reason in `why`.
bool StepPasses(const StepSummary& step, const StepLimits& limits,
                std::string* why);

/// The capacity ladder: kLadderSteps rate steps at start * kLadderRatio^k,
/// climbing until kLadderStopAfterFailures consecutive steps fail.
constexpr double kLadderRatio = 1.15;
constexpr int kLadderSteps = 13;
constexpr int kLadderStopAfterFailures = 2;

/// Whether the ladder should stop after the given verdicts so far.
bool LadderShouldStop(const std::vector<bool>& passed);

/// Index of the highest-rate passing ladder step, or -1 if none passed.
/// Steps whose `ladder` flag is false (the warm-up) never count.
int HighestPassingStep(const std::vector<double>& offered_rps,
                       const std::vector<bool>& passed,
                       const std::vector<bool>& ladder);

}  // namespace e2ebench

#endif  // E2EBENCH_STEP_STATS_H_
