// Network front door: the full middleware stack behind an HTTP server —
// and, with --binary-port, the multi-reactor binary wire server beside it.
//
//   ./net_server --shards=4 --port=8080 --protocol=ss2pl-sql
//   ./net_server --port=8080 --binary-port=8081 --reactors=4
//
// Then, from another terminal:
//
//   curl -s localhost:8080/v1/stats
//   curl -s -X POST localhost:8080/v1/submit -d '{"tenant":1,"txns":[
//     {"ops":[{"op":"write","object":3},{"op":"write","object":9}]}]}'
//   curl -s localhost:8080/metrics | head
//   curl -s -X POST localhost:8080/v1/admin/protocol -d '{"protocol":"edf-sql"}'
//
// The submit response comes back only after every transaction in the body
// has committed through the scheduler — see src/net/front_door.h for the
// closed-loop submission contract and the admission-control order.
// Ctrl-C drains in-flight batches before exiting.
//
// With --data-dir=PATH the stack runs durable: submits are acknowledged
// only after their WAL records hit disk, restart replays the log (the
// /healthz endpoint reports "recovering" meanwhile), and the Ctrl-C drain
// also writes a clean-shutdown checkpoint so the next start replays
// nothing.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/crashpoint.h"
#include "net/front_door.h"
#include "scheduler/protocol_library.h"

using namespace declsched;  // NOLINT

namespace {

int64_t FlagValue(const char* arg, const char* name, int64_t fallback) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::atoll(arg + len + 1);
  }
  return fallback;
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  int shards = 2;
  int port = 8080;
  int binary_port = 0;
  int reactors = 1;
  int max_connections = 0;
  int64_t max_inflight = 0;
  std::string protocol = "ss2pl-sql";
  std::string data_dir;
  for (int i = 1; i < argc; ++i) {
    shards = static_cast<int>(FlagValue(argv[i], "--shards", shards));
    port = static_cast<int>(FlagValue(argv[i], "--port", port));
    binary_port =
        static_cast<int>(FlagValue(argv[i], "--binary-port", binary_port));
    reactors = static_cast<int>(FlagValue(argv[i], "--reactors", reactors));
    max_connections = static_cast<int>(
        FlagValue(argv[i], "--max-connections", max_connections));
    max_inflight = FlagValue(argv[i], "--max-inflight", max_inflight);
    if (std::strncmp(argv[i], "--protocol=", 11) == 0) protocol = argv[i] + 11;
    if (std::strncmp(argv[i], "--data-dir=", 11) == 0) data_dir = argv[i] + 11;
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--shards=N] [--port=P] [--protocol=NAME] "
          "[--data-dir=PATH]\n"
          "          [--binary-port=P (enables the wire server)] "
          "[--reactors=N]\n"
          "          [--max-connections=N] [--max-inflight=N]\n",
          argv[0]);
      return 0;
    }
  }
  InstallCrashPointFromEnv();  // DECLSCHED_CRASHPOINT=<name>[:<nth>]

  scheduler::ProtocolRegistry registry = scheduler::ProtocolRegistry::BuiltIns();
  Result<scheduler::ProtocolSpec> spec = registry.Get(protocol);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown protocol %s; known:", protocol.c_str());
    for (const std::string& name : registry.Names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  net::FrontDoor::Options options;
  options.http.port = static_cast<uint16_t>(port);
  if (max_connections > 0) options.http.max_connections = max_connections;
  if (binary_port > 0) {
    net::wire::BinaryServer::Options binary;
    binary.port = static_cast<uint16_t>(binary_port);
    binary.reactor_threads = reactors;
    if (max_connections > 0) binary.max_connections = max_connections;
    options.binary = binary;
  }
  if (max_inflight > 0) options.max_inflight_statements = max_inflight;
  options.num_shards = shards;
  options.shard.protocol = std::move(spec).MoveValue();
  options.server.num_rows = 100000;
  if (!data_dir.empty()) {
    options.durability.enabled = true;
    options.durability.dir = data_dir;
    options.durability.checkpoint_interval_ms = 2000;
  }
  net::FrontDoor door(std::move(options));
  const Status started = door.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!data_dir.empty()) {
    const storage::RecoveryResult& rec = door.sched()->recovery_result();
    std::printf(
        "recovery: %lld records replayed (snapshot lsn %llu%s), %lld us\n",
        static_cast<long long>(rec.records_replayed),
        static_cast<unsigned long long>(rec.snapshot_lsn),
        rec.tail_truncated ? ", torn tail truncated" : "",
        static_cast<long long>(rec.duration_us));
  }
  std::printf("front door listening on 127.0.0.1:%u (%d shards, %s)\n",
              door.port(), shards, protocol.c_str());
  if (binary_port > 0) {
    std::printf("binary wire server on 127.0.0.1:%u (%d reactors, %s)\n",
                door.binary_port(), reactors,
                door.binary_server()->reuseport_active()
                    ? "SO_REUSEPORT"
                    : "single listener");
  }
  std::printf("try: curl -s localhost:%u/v1/stats\n", door.port());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    struct timespec ts {0, 100000000};  // 100 ms
    nanosleep(&ts, nullptr);
  }
  std::printf("draining...\n");
  door.Shutdown();  // with --data-dir this also writes a clean checkpoint
  if (!data_dir.empty()) std::printf("clean shutdown: checkpoint written\n");
  return 0;
}
