// e2e_client: the compiled half of the end-to-end benchmark (run.py drives
// it). Subcommands:
//
//   e2e_client run    --workload=W --seed=N --http-port=P --binary-port=P
//                     --server-pid=PID --step=NAME:RPS:SECONDS ...
//                     [--ladder=START:SECONDS]
//                     [--p99-limit-ms=MS] [--trace-prefix=PATH] --out=FILE
//       open-loop run against a live net_server; writes the per-step
//       results as JSON to FILE.
//   e2e_client replay --workload=W --seed=N --rate=RPS --seconds=S
//                     --data-dir=DIR --out=FILE
//       in-process replay of the same requests through the layers' public
//       functions, with spans around each call (the traced run's layer
//       numbers).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "open_loop_client.h"
#include "replay.h"
#include "workload_gen.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (;;) {
    const size_t pos = s.find(sep, start);
    parts.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) return parts;
    start = pos + 1;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_client run|replay --workload=W --seed=N "
               "...\n(see the header of e2ebench/src/main.cc)\n");
  return 2;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::string workload, out_path, value;
  uint64_t seed = 1;
  e2ebench::ClientOptions client;
  e2ebench::ReplayOptions replay;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (Flag(a, "--workload", &workload)) continue;
    if (Flag(a, "--out", &out_path)) continue;
    if (Flag(a, "--seed", &value)) {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(a, "--http-port", &value)) {
      client.http_port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (Flag(a, "--binary-port", &value)) {
      client.binary_port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (Flag(a, "--server-pid", &value)) {
      client.server_pid = static_cast<pid_t>(std::atoi(value.c_str()));
    } else if (Flag(a, "--connections", &value)) {
      client.connections = std::atoi(value.c_str());
    } else if (Flag(a, "--reactors", &value)) {
      client.reactors = std::atoi(value.c_str());
    } else if (Flag(a, "--step", &value)) {
      const std::vector<std::string> p = Split(value, ':');
      if (p.size() != 3) return Usage();
      e2ebench::StepPlan step;
      step.name = p[0];
      step.rate_rps = std::atof(p[1].c_str());
      step.seconds = std::atof(p[2].c_str());
      client.steps.push_back(step);
    } else if (Flag(a, "--ladder", &value)) {
      const std::vector<std::string> p = Split(value, ':');
      if (p.size() != 2) return Usage();
      client.ladder_start_rps = std::atof(p[0].c_str());
      client.ladder_step_seconds = std::atof(p[1].c_str());
    } else if (Flag(a, "--p99-limit-ms", &value)) {
      client.limits.ack_p99_limit_ns =
          static_cast<int64_t>(std::atof(value.c_str()) * 1e6);
    } else if (Flag(a, "--trace-prefix", &value)) {
      client.trace_prefix = value;
    } else if (Flag(a, "--rate", &value)) {
      replay.rate_rps = std::atof(value.c_str());
    } else if (Flag(a, "--seconds", &value)) {
      replay.seconds = std::atof(value.c_str());
    } else if (Flag(a, "--data-dir", &value)) {
      replay.data_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a);
      return Usage();
    }
  }
  e2ebench::WorkloadShape shape;
  if (!e2ebench::LookupWorkload(workload, &shape)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  if (out_path.empty()) return Usage();
  if (command == "run") {
    client.shape = shape;
    client.seed = seed;
    const e2ebench::RunResult result = e2ebench::RunOpenLoop(client);
    if (!WriteFile(out_path, e2ebench::RunResultJson(result))) return 1;
    return 0;
  }
  if (command == "replay") {
    replay.shape = shape;
    replay.seed = seed;
    std::string json;
    const bool ok = e2ebench::RunReplay(replay, &json);
    if (!WriteFile(out_path, json)) return 1;
    return ok ? 0 : 1;
  }
  return Usage();
}
