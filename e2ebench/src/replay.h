// In-process replay for the traced run.
//
// Replays the benchmark's generated requests through the layers' public
// functions, with spans recorded here, around each call, rather than inside
// the program:
//   net        codec parse calls (FrameParser + DecodeSubmitBody, or
//              HttpRequestParser + JsonValue::Parse)
//   sched      ShardedScheduler::Submit, and submit -> on_dispatch
//   wal        last commit dispatch -> Wal::WhenDurable callback
//   snapshot   ShardedScheduler::Checkpoint
// The scheduler is configured as the front door and net_server configure
// it (2 shards, ss2pl-sql, WAL with fsync, checkpoints every 2 s — issued
// from here so they can be timed). Requests arrive open loop at a fixed
// rate; within a transaction, op k+1 is submitted once op k is dispatched,
// then the commit, exactly like the front door's closed-loop drive.

#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "workload_gen.h"

namespace e2ebench {

struct ReplayOptions {
  WorkloadShape shape;
  uint64_t seed = 1;
  double rate_rps = 1000;
  double seconds = 5;
  std::string data_dir;
};

/// Runs the replay and renders the span summaries as JSON. False if the
/// scheduler failed to start or requests were left unanswered.
bool RunReplay(const ReplayOptions& options, std::string* json);

}  // namespace e2ebench

#endif  // E2EBENCH_REPLAY_H_
