#include "step_stats.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

int64_t PercentileSorted(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  // Smallest rank r with r >= p*n; the epsilon keeps p*n = 99.0000000001
  // (floating-point noise on an exact product) at rank 99.
  int64_t rank = static_cast<int64_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(sorted.size()));
  return sorted[static_cast<size_t>(rank - 1)];
}

int64_t Percentile(std::vector<int64_t> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, p);
}

bool StepPasses(const StepSummary& step, const StepLimits& limits,
                std::string* why) {
  if (step.failed > 0) {
    *why = "failed requests";
    return false;
  }
  if (step.backlog_capped) {
    *why = "backlog fell 1 s behind the schedule";
    return false;
  }
  if (step.acked == 0) {
    *why = "no acknowledgements";
    return false;
  }
  if (step.ack_p99_ns > limits.ack_p99_limit_ns) {
    *why = "ack p99 over the limit";
    return false;
  }
  if (step.achieved_rps < limits.min_achieved_share * step.offered_rps) {
    *why = "achieved rate trails offered rate";
    return false;
  }
  if (step.late_p50_last_quarter_ns - step.late_p50_first_quarter_ns >
      limits.max_late_growth_ns) {
    *why = "generator lateness keeps growing";
    return false;
  }
  why->clear();
  return true;
}

bool LadderShouldStop(const std::vector<bool>& passed) {
  int trailing_failures = 0;
  for (auto it = passed.rbegin(); it != passed.rend() && !*it; ++it) {
    ++trailing_failures;
  }
  return trailing_failures >= kLadderStopAfterFailures;
}

int HighestPassingStep(const std::vector<double>& offered_rps,
                       const std::vector<bool>& passed,
                       const std::vector<bool>& ladder) {
  int best = -1;
  for (size_t i = 0; i < passed.size() && i < offered_rps.size() &&
                     i < ladder.size();
       ++i) {
    if (ladder[i] && passed[i] &&
        (best < 0 || offered_rps[i] > offered_rps[best])) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace e2ebench
