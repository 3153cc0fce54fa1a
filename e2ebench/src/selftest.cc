// Self-test of the benchmark itself: the generator is byte-identical for a
// seed, the percentile and ladder logic is right on synthetic samples, and
// doctored server answers (a missing reply, a wrong `dispatched`, a second
// answer, bad final stats) fail the client's checks.
//
//   e2e_selftest        exits 0 when every check passes

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/json.h"
#include "net/wire/wire_codec.h"
#include "open_loop_client.h"
#include "step_stats.h"
#include "workload_gen.h"

namespace wire = declsched::net::wire;
using namespace e2ebench;  // NOLINT

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

// --- generator ------------------------------------------------------------

void TestGenerator() {
  for (const char* name : {"point-binary", "point-http"}) {
    WorkloadShape shape;
    Check(LookupWorkload(name, &shape), std::string("lookup ") + name);
    Check(GeneratorDigest(shape, 7, 2000) == GeneratorDigest(shape, 7, 2000),
          std::string(name) + ": same seed, same bytes");
    Check(GeneratorDigest(shape, 7, 2000) != GeneratorDigest(shape, 8, 2000),
          std::string(name) + ": another seed, other bytes");

    RequestGenerator gen(3);
    for (int i = 0; i < 500; ++i) {
      const wire::WireSubmit submit = gen.Next();
      bool valid = static_cast<int>(submit.txns.size()) == kTxnsPerRequest &&
                   submit.tenant == kTenant;
      for (const wire::WireTxn& txn : submit.txns) {
        valid = valid && static_cast<int>(txn.ops.size()) == kOpsPerTxn;
        for (size_t k = 0; k < txn.ops.size(); ++k) {
          valid = valid && txn.ops[k].write && txn.ops[k].object >= 0 &&
                  txn.ops[k].object < kTableRows &&
                  (k == 0 || txn.ops[k].object > txn.ops[k - 1].object);
        }
      }
      Check(valid, std::string(name) + ": request shape and ascending ops");

      // The encoded bytes decode back to the same request.
      std::string bytes;
      AppendWireSubmit(&bytes, submit, 42);
      wire::FrameParser parser;
      parser.Feed(bytes);
      wire::WireFrame frame;
      wire::WireSubmit decoded;
      Check(parser.Next(&frame) == wire::FrameParser::Outcome::kFrame &&
                frame.request_id == 42 &&
                wire::DecodeSubmitBody(frame.body, &decoded).ok() &&
                wire::EncodeSubmitBody(decoded) ==
                    wire::EncodeSubmitBody(submit),
            std::string(name) + ": wire round trip");
      std::string http;
      AppendHttpSubmit(&http, submit);
      declsched::net::HttpRequestParser hp;
      hp.Feed(http);
      declsched::net::HttpRequest request;
      Check(hp.Next(&request) ==
                    declsched::net::HttpRequestParser::Outcome::kRequest &&
                declsched::net::JsonValue::Parse(request.body).ok(),
            std::string(name) + ": HTTP request parses");
      if (g_failures > 0) return;
    }
  }
  // Arrival gaps: seeded, step-private, mean close to 1/rate.
  ArrivalSchedule a(5, 2, 1000), b(5, 2, 1000), c(5, 3, 1000);
  double sum = 0;
  bool same = true, differs = false;
  for (int i = 0; i < 20000; ++i) {
    const int64_t ga = a.NextGapNs();
    same = same && ga == b.NextGapNs();
    differs = differs || ga != c.NextGapNs();
    sum += static_cast<double>(ga);
  }
  Check(same, "arrival gaps repeat for a seed and step");
  Check(differs, "arrival gaps differ between steps");
  const double mean_ms = sum / 20000 / 1e6;
  Check(mean_ms > 0.97 && mean_ms < 1.03, "mean gap near 1 ms at 1000/s");
}

// --- percentiles and verdicts ------------------------------------------------

void TestPercentiles() {
  std::vector<int64_t> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Check(PercentileSorted(v, 0.50) == 50, "p50 of 1..100 is 50");
  Check(PercentileSorted(v, 0.99) == 99, "p99 of 1..100 is 99");
  Check(PercentileSorted(v, 1.0) == 100, "p100 of 1..100 is 100");
  Check(PercentileSorted({}, 0.5) == 0, "empty input gives 0");
  Check(PercentileSorted({7}, 0.99) == 7, "single sample");
  std::vector<int64_t> w;
  for (int i = 1000; i >= 1; --i) w.push_back(i * 10);
  Check(Percentile(w, 0.99) == 9900, "p99 of 1000 unsorted samples");
  Check(Percentile(w, 0.5) == 5000, "p50 of 1000 unsorted samples");
  // Exact samples, not buckets: a 1 ns shift moves the percentile by 1 ns.
  std::vector<int64_t> x = {9999001, 9999002, 9999003};
  Check(PercentileSorted(x, 0.99) == 9999003, "no bucket rounding");
}

void TestVerdicts() {
  StepLimits limits;
  limits.ack_p99_limit_ns = 10000000;
  StepSummary good;
  good.offered_rps = 1000;
  good.due = 1000;
  good.acked = 1000;
  good.achieved_rps = 990;
  good.ack_p50_ns = 1000000;
  good.ack_p99_ns = 9000000;
  good.late_p50_first_quarter_ns = 20000;
  good.late_p50_last_quarter_ns = 30000;
  std::string why;
  Check(StepPasses(good, limits, &why), "healthy step passes");

  StepSummary s = good;
  s.failed = 1;
  Check(!StepPasses(s, limits, &why), "a failed request fails the step");
  s = good;
  s.ack_p99_ns = 10000001;
  Check(!StepPasses(s, limits, &why), "p99 over the limit fails");
  s = good;
  s.achieved_rps = 940;
  Check(!StepPasses(s, limits, &why) &&
            why == "achieved rate trails offered rate",
        "achieved rate trailing offered fails");
  s = good;
  s.late_p50_last_quarter_ns = s.late_p50_first_quarter_ns + 1000001;
  Check(!StepPasses(s, limits, &why) &&
            why == "generator lateness keeps growing",
        "growing lateness fails");
  s = good;
  s.backlog_capped = true;
  Check(!StepPasses(s, limits, &why), "a backlog past the cap fails");

  Check(!LadderShouldStop({true, false}), "one failure does not stop");
  Check(LadderShouldStop({true, false, false}), "two failures stop");
  Check(!LadderShouldStop({false, true, false}), "failures must be adjacent");
  Check(HighestPassingStep({100, 200, 300, 400}, {true, true, false, true},
                           {true, true, true, true}) == 3,
        "highest passing step wins over an earlier failure");
  Check(HighestPassingStep({100, 200}, {false, false}, {true, true}) == -1,
        "no passing step");
  // A passing warm-up is not a ladder step: when every ladder step fails,
  // there is no capacity to report.
  Check(HighestPassingStep({4000, 14000, 16100}, {true, false, false},
                           {false, true, true}) == -1,
        "warm-up does not count when every ladder step fails");
  Check(HighestPassingStep({4000, 14000, 16100}, {true, true, false},
                           {false, true, true}) == 1,
        "warm-up is skipped, the passing ladder step counts");
}

// --- doctored servers ----------------------------------------------------------

enum class Doctor { kHonest, kMissing, kWrongDispatched, kTwice };

int ListenLoopback(uint16_t* port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  listen(fd, 16);
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  return fd;
}

std::string StatsBody(int64_t statements) {
  return "{\"totals\":{\"submitted\":" + std::to_string(statements) +
         ",\"dispatched\":" + std::to_string(statements) +
         "},\"inflight_statements\":0,\"jobs_inflight\":0}";
}

/// A stand-in for net_server: answers wire SUBMITs or HTTP submits with the
/// counters the request implies, except where the doctor says otherwise,
/// and GET /v1/stats with conserved totals.
class FakeServer {
 public:
  explicit FakeServer(Doctor doctor) : doctor_(doctor) {
    http_fd_ = ListenLoopback(&http_port_);
    wire_fd_ = ListenLoopback(&wire_port_);
    http_thread_ = std::thread([this] { AcceptLoop(http_fd_, true); });
    wire_thread_ = std::thread([this] { AcceptLoop(wire_fd_, false); });
  }
  ~FakeServer() {
    stop_ = true;
    shutdown(http_fd_, SHUT_RDWR);
    shutdown(wire_fd_, SHUT_RDWR);
    close(http_fd_);
    close(wire_fd_);
    http_thread_.join();
    wire_thread_.join();
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (std::thread& t : conn_threads_) t.join();
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  uint16_t http_port() const { return http_port_; }
  uint16_t wire_port() const { return wire_port_; }

 private:
  void AcceptLoop(int listen_fd, bool http) {
    while (!stop_) {
      const int fd = accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_threads_.emplace_back([this, fd, http] {
        if (http) {
          ServeHttp(fd);
        } else {
          ServeWire(fd);
        }
        close(fd);
      });
    }
  }

  /// Which of the doctored behaviours applies to the n-th submit.
  bool Skip(int64_t n) const { return doctor_ == Doctor::kMissing && n == 3; }
  int64_t DispatchedFor(int64_t n, const ExpectedAck& e) const {
    return doctor_ == Doctor::kWrongDispatched && n == 3 ? e.dispatched - 1
                                                         : e.dispatched;
  }
  bool Twice(int64_t n) const { return doctor_ == Doctor::kTwice && n == 3; }

  void ServeWire(int fd) {
    wire::FrameParser parser;
    char buf[65536];
    for (;;) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n <= 0) return;
      parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      wire::WireFrame frame;
      std::string out;
      while (parser.Next(&frame) == wire::FrameParser::Outcome::kFrame) {
        if (frame.op == wire::WireOp::kHello) {
          wire::AppendFrame(&out, wire::WireOp::kHelloOk, 0, 0,
                            wire::EncodeHelloOkBody());
          continue;
        }
        wire::WireSubmit submit;
        wire::DecodeSubmitBody(frame.body, &submit);
        const ExpectedAck e = ExpectedFor(submit);
        const int64_t k = ++submits_;
        statements_ += e.statements + e.txns;
        if (Skip(k)) continue;
        wire::WireSubmitResult r;
        r.txns = e.txns;
        r.statements = e.statements;
        r.dispatched = DispatchedFor(k, e);
        const std::string body = wire::EncodeSubmitOkBody(r);
        wire::AppendFrame(&out, wire::WireOp::kSubmitOk, 0, frame.request_id,
                          body);
        if (Twice(k)) {
          wire::AppendFrame(&out, wire::WireOp::kSubmitOk, 0,
                            frame.request_id, body);
        }
      }
      if (!out.empty() && write(fd, out.data(), out.size()) < 0) return;
    }
  }

  void ServeHttp(int fd) {
    declsched::net::HttpRequestParser parser;
    char buf[65536];
    for (;;) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n <= 0) return;
      parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      declsched::net::HttpRequest request;
      std::string out;
      bool close_after = false;
      while (parser.Next(&request) ==
             declsched::net::HttpRequestParser::Outcome::kRequest) {
        if (request.method == "GET") {
          out += declsched::net::HttpResponse::Json(
                     200, StatsBody(statements_.load()))
                     .Serialize(false);
          close_after = true;
          continue;
        }
        auto doc = declsched::net::JsonValue::Parse(request.body);
        ExpectedAck e;
        for (const auto& t : doc.ValueOrDie().Get("txns")->items()) {
          ++e.txns;
          e.statements += static_cast<int64_t>(t.Get("ops")->size());
        }
        e.dispatched = e.statements + e.txns;
        const int64_t k = ++submits_;
        statements_ += e.dispatched;
        if (Skip(k)) continue;
        const std::string body =
            "{\"txns\":" + std::to_string(e.txns) +
            ",\"statements\":" + std::to_string(e.statements) +
            ",\"dispatched\":" + std::to_string(DispatchedFor(k, e)) +
            ",\"latency_us\":5}";
        out += declsched::net::HttpResponse::Json(200, body).Serialize(true);
        if (Twice(k)) {
          out +=
              declsched::net::HttpResponse::Json(200, body).Serialize(true);
        }
      }
      if (!out.empty() && write(fd, out.data(), out.size()) < 0) return;
      if (close_after) return;
    }
  }

  Doctor doctor_;
  int http_fd_ = -1;
  int wire_fd_ = -1;
  uint16_t http_port_ = 0;
  uint16_t wire_port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> submits_{0};
  std::atomic<int64_t> statements_{0};
  std::thread http_thread_;
  std::thread wire_thread_;
  std::mutex conn_mu_;  ///< guards conn_threads_ (two accept threads)
  std::vector<std::thread> conn_threads_;
};

RunResult RunAgainst(Transport transport, Doctor doctor) {
  FakeServer server(doctor);
  ClientOptions o;
  LookupWorkload(transport == Transport::kHttp ? "point-http" : "point-binary",
                 &o.shape);
  o.seed = 9;
  o.http_port = server.http_port();
  o.binary_port = server.wire_port();
  o.connections = 2;
  o.reactors = 1;
  o.limits.ack_p99_limit_ns = 1000000000;
  o.drain_timeout_s = 1;
  o.steps.push_back(StepPlan{"only", 200, 0.5, false});
  return RunOpenLoop(o);
}

void TestDoctoredServers() {
  for (Transport t : {Transport::kBinary, Transport::kHttp}) {
    const std::string tn = t == Transport::kHttp ? "http" : "binary";
    RunResult honest = RunAgainst(t, Doctor::kHonest);
    Check(honest.violations.empty() && honest.failed == 0 &&
              honest.attempted > 50 &&
              honest.steps.at(0).summary.acked == honest.attempted,
          tn + ": honest server passes every check");
    for (const std::string& v : honest.violations) {
      std::printf("  unexpected violation: %s\n", v.c_str());
    }

    RunResult missing = RunAgainst(t, Doctor::kMissing);
    Check(!missing.violations.empty() && missing.failed >= 1,
          tn + ": a missing reply is a violation and a failure");

    RunResult wrong = RunAgainst(t, Doctor::kWrongDispatched);
    Check(!wrong.violations.empty() && wrong.failed >= 1,
          tn + ": a wrong dispatched count is a violation and a failure");

    if (t == Transport::kBinary) {
      // Over HTTP a second answer would shift every later reply onto the
      // wrong request; the wire protocol names the request, so it is caught
      // as such.
      RunResult twice = RunAgainst(t, Doctor::kTwice);
      bool named = false;
      for (const std::string& v : twice.violations) {
        named = named || v.find("second answer") != std::string::npos;
      }
      Check(named, tn + ": a second answer for one id is a violation");
    }
  }

  std::vector<std::string> v;
  Check(CheckFinalStats(StatsBody(10), &v) && v.empty(),
        "conserved final stats pass");
  Check(!CheckFinalStats("{\"totals\":{\"submitted\":10,\"dispatched\":9},"
                         "\"inflight_statements\":0,\"jobs_inflight\":0}",
                         &v),
        "submitted != dispatched fails");
  Check(!CheckFinalStats("{\"totals\":{\"submitted\":10,\"dispatched\":10},"
                         "\"inflight_statements\":4,\"jobs_inflight\":1}",
                         &v),
        "work left in flight fails");
  std::string why;
  Check(!AckMatches(ExpectedAck{1, 4, 5}, 1, 4, 4, &why),
        "dispatched must be ops + commits");
  Check(AckMatches(ExpectedAck{8, 32, 40}, 8, 32, 40, &why),
        "matching counters pass");
}

}  // namespace

int main() {
  TestGenerator();
  TestPercentiles();
  TestVerdicts();
  TestDoctoredServers();
  if (g_failures == 0) {
    std::printf("e2e_selftest: all checks passed\n");
    return 0;
  }
  std::printf("e2e_selftest: %d check(s) failed\n", g_failures);
  return 1;
}
