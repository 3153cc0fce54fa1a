#include "open_loop_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>

#include "net/http.h"
#include "net/json.h"

namespace e2ebench {

namespace wire = declsched::net::wire;
using declsched::net::HttpResponseParser;
using declsched::net::JsonValue;

namespace {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ClientCpuUs() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return (static_cast<int64_t>(ru.ru_utime.tv_sec) + ru.ru_stime.tv_sec) *
             1000000 +
         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
}

/// utime + stime of a process from /proc/<pid>/stat, in microseconds.
int64_t ProcessCpuUs(pid_t pid) {
  if (pid <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::vector<std::string> fields;
  size_t pos = close + 2;
  while (pos < text.size()) {
    size_t next = text.find(' ', pos);
    if (next == std::string::npos) next = text.size();
    fields.push_back(text.substr(pos, next - pos));
    pos = next + 1;
  }
  if (fields.size() < 13) return 0;
  const long ticks = sysconf(_SC_CLK_TCK);
  const int64_t cpu_ticks =
      std::stoll(fields[11]) + std::stoll(fields[12]);  // utime, stime
  return cpu_ticks * 1000000 / ticks;
}

int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Blocking wire handshake on a fresh connection: HELLO -> HELLO_OK.
bool WireHandshake(int fd) {
  std::string out;
  wire::AppendFrame(&out, wire::WireOp::kHello, 0, 0, wire::EncodeHelloBody());
  if (!WriteAll(fd, out)) return false;
  wire::FrameParser parser;
  char buf[4096];
  const int64_t deadline = NowNs() + 5000000000LL;
  while (NowNs() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) continue;
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
    wire::WireFrame frame;
    const auto outcome = parser.Next(&frame);
    if (outcome == wire::FrameParser::Outcome::kFrame) {
      return frame.op == wire::WireOp::kHelloOk;
    }
    if (outcome == wire::FrameParser::Outcome::kError) return false;
  }
  return false;
}

void SetNonBlocking(int fd) {
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

/// Blocking HTTP GET on a fresh connection; false on any transport error.
bool HttpGet(uint16_t port, const std::string& path, int* status,
             std::string* body) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: bench\r\n"
                              "Connection: close\r\n\r\n";
  bool ok = WriteAll(fd, request);
  HttpResponseParser parser;
  HttpResponseParser::Response resp;
  char buf[65536];
  while (ok) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok = false;
      break;
    }
    parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
    const auto outcome = parser.Next(&resp);
    if (outcome == HttpResponseParser::Outcome::kResponse) break;
    if (outcome == HttpResponseParser::Outcome::kError) ok = false;
  }
  close(fd);
  if (!ok) return false;
  *status = resp.status;
  *body = std::move(resp.body);
  return true;
}

/// One counter/gauge sample `name{labels} value` of a Prometheus exposition;
/// `labels` is the exact text inside the braces ("" for none).
bool PromValue(const std::string& text, const std::string& name,
               const std::string& labels, double* value) {
  const std::string key = labels.empty() ? name + " " : name + "{" + labels + "} ";
  size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      *value = std::strtod(text.c_str() + pos + key.size(), nullptr);
      return true;
    }
    pos += key.size();
  }
  return false;
}

enum class ReqState : uint8_t { kQueued, kSent, kAcked, kFailed };

struct Req {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t first_byte_ns = 0;
  int64_t ack_ns = 0;
  int64_t server_latency_us = -1;
  ExpectedAck expected;
  int step = 0;
  int conn = 0;
  ReqState state = ReqState::kQueued;
};

struct Conn {
  int fd = -1;
  bool dead = false;
  bool want_out = false;
  std::string out;
  size_t out_off = 0;
  int64_t appended = 0;  ///< bytes ever queued on this connection
  int64_t written = 0;   ///< bytes ever written
  /// (end offset in the appended stream, request index) of unsent requests.
  std::deque<std::pair<int64_t, int64_t>> unsent;
  /// HTTP answers arrive in request order; binary ones carry the id.
  std::deque<int64_t> http_fifo;
  wire::FrameParser frames;
  HttpResponseParser http;
  int64_t partial_start_ns = 0;
  int reactor = -1;
};

class Driver {
 public:
  Driver(const ClientOptions& options, RunResult* result)
      : o_(options), result_(result), gen_(options.seed) {}
  ~Driver() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
    if (timer_fd_ >= 0) close(timer_fd_);
    if (epoll_fd_ >= 0) close(epoll_fd_);
  }
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  bool Connect();
  StepResult RunStep(const StepPlan& plan, int step_index);
  void WriteTrace();
  /// A drain timed out: the server stopped answering, so later steps would
  /// only add their own timeouts to the run.
  bool stalled() const { return stalled_; }

 private:
  void Violation(std::string what) {
    if (result_->violations.size() < 50) {
      result_->violations.push_back(std::move(what));
    }
  }
  void Scrape(const std::string& label);
  void Enqueue(int64_t due_ns, int step);
  void Flush(Conn& c);
  void OnReadable(int ci);
  void OnAnswer(int64_t idx, bool ok, int64_t txns, int64_t statements,
                int64_t dispatched, int64_t latency_us, int64_t first_ns,
                int64_t now, const std::string& error);
  void KillConn(int ci, const std::string& why);
  bool ArmTimer(int64_t at_ns);

  const ClientOptions& o_;
  RunResult* result_;
  RequestGenerator gen_;
  std::vector<Conn> conns_;
  std::vector<Req> reqs_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  int next_conn_ = 0;
  int64_t outstanding_ = 0;
  int64_t inflight_statements_ = 0;
  std::vector<std::string> scrapes_;
  int64_t stat_bytes_in_ = 0;
  int64_t stat_bytes_out_ = 0;
  int64_t stat_writes_ = 0;
  int refused_noted_ = 0;
  int unanswered_noted_ = 0;
  bool stalled_ = false;
};

bool Driver::ArmTimer(int64_t at_ns) {
  itimerspec spec{};
  spec.it_value.tv_sec = at_ns / 1000000000;
  spec.it_value.tv_nsec = at_ns % 1000000000;
  return timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr) == 0;
}

bool Driver::Connect() {
  // Wake at due times to the microsecond, not the default 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) {
    Violation("cannot create epoll/timerfd");
    return false;
  }
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = ~0ULL;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &tev);

  const bool binary = o_.shape.transport == Transport::kBinary;
  const int reactors = binary ? std::max(1, o_.reactors) : 1;
  result_->accept_split.assign(static_cast<size_t>(reactors), 0);
  const int per_reactor = (o_.connections + reactors - 1) / reactors;
  while (static_cast<int>(conns_.size()) < o_.connections) {
    if (++result_->connect_attempts > 64 * o_.connections) {
      Violation("could not balance connections over reactors");
      break;
    }
    std::vector<double> before(static_cast<size_t>(reactors), 0);
    std::string metrics;
    int status = 0;
    if (binary && reactors > 1) {
      if (!HttpGet(o_.http_port, "/metrics", &status, &metrics)) break;
      for (int r = 0; r < reactors; ++r) {
        PromValue(metrics, "wire_connections_accepted_total",
                  "reactor=\"" + std::to_string(r) + "\"", &before[r]);
      }
    }
    const int fd = ConnectLoopback(binary ? o_.binary_port : o_.http_port);
    if (fd < 0 || (binary && !WireHandshake(fd))) {
      if (fd >= 0) close(fd);
      Violation("connection failed during set-up");
      return false;
    }
    int reactor = 0;
    if (binary && reactors > 1) {
      if (!HttpGet(o_.http_port, "/metrics", &status, &metrics)) break;
      reactor = -1;
      for (int r = 0; r < reactors; ++r) {
        double after = 0;
        PromValue(metrics, "wire_connections_accepted_total",
                  "reactor=\"" + std::to_string(r) + "\"", &after);
        if (after > before[r]) reactor = r;
      }
      if (reactor < 0 || result_->accept_split[reactor] >= per_reactor) {
        close(fd);
        continue;  // re-dial: this reactor already has its share
      }
    }
    ++result_->accept_split[reactor];
    SetNonBlocking(fd);
    Conn c;
    c.fd = fd;
    c.reactor = reactor;
    conns_.push_back(std::move(c));
  }
  if (static_cast<int>(conns_.size()) < o_.connections) {
    Violation("could not open every connection");
    return false;
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[i].fd, &ev);
  }
  return true;
}

void Driver::Scrape(const std::string& label) {
  if (o_.trace_prefix.empty()) return;
  int status = 0;
  std::string metrics;
  std::string stats;
  HttpGet(o_.http_port, "/metrics", &status, &metrics);
  HttpGet(o_.http_port, "/v1/stats", &status, &stats);
  JsonValue doc = JsonValue::Object();
  doc.Set("label", JsonValue::Str(label));
  doc.Set("t_ns", JsonValue::Int(NowNs()));
  doc.Set("metrics", JsonValue::Str(std::move(metrics)));
  doc.Set("stats", JsonValue::Str(std::move(stats)));
  scrapes_.push_back(doc.Dump());
}

void Driver::Enqueue(int64_t due_ns, int step) {
  // Round-robin over live connections.
  int ci = -1;
  for (size_t k = 0; k < conns_.size(); ++k) {
    const int cand = (next_conn_ + static_cast<int>(k)) %
                     static_cast<int>(conns_.size());
    if (!conns_[cand].dead) {
      ci = cand;
      break;
    }
  }
  next_conn_ = (ci + 1) % static_cast<int>(conns_.size());
  const wire::WireSubmit submit = gen_.Next();
  const int64_t idx = static_cast<int64_t>(reqs_.size());
  Req r;
  r.due_ns = due_ns;
  r.expected = ExpectedFor(submit);
  r.step = step;
  r.conn = ci;
  ++result_->attempted;
  if (ci < 0) {
    r.state = ReqState::kFailed;
    reqs_.push_back(r);
    ++result_->failed;
    return;
  }
  reqs_.push_back(r);
  Conn& c = conns_[ci];
  const size_t before = c.out.size();
  if (o_.shape.transport == Transport::kBinary) {
    AppendWireSubmit(&c.out, submit, static_cast<uint64_t>(idx) + 1);
  } else {
    AppendHttpSubmit(&c.out, submit);
    c.http_fifo.push_back(idx);
  }
  c.appended += static_cast<int64_t>(c.out.size() - before);
  c.unsent.emplace_back(c.appended, idx);
  ++outstanding_;
  inflight_statements_ += r.expected.statements;
}

void Driver::Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n =
        write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return;  // the read side notices the dead connection
    c.out_off += static_cast<size_t>(n);
    c.written += n;
    ++stat_writes_;
    stat_bytes_out_ += n;
    const int64_t now = NowNs();
    while (!c.unsent.empty() && c.unsent.front().first <= c.written) {
      Req& r = reqs_[static_cast<size_t>(c.unsent.front().second)];
      if (r.state == ReqState::kQueued) {
        r.state = ReqState::kSent;
        r.sent_ns = now;
      }
      c.unsent.pop_front();
    }
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  const bool want_out = c.out_off < c.out.size();
  if (want_out != c.want_out) {
    c.want_out = want_out;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_out ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.u64 = static_cast<uint64_t>(&c - conns_.data());
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  }
}

void Driver::OnAnswer(int64_t idx, bool ok, int64_t txns, int64_t statements,
                      int64_t dispatched, int64_t latency_us,
                      int64_t first_ns, int64_t now,
                      const std::string& error) {
  if (idx < 0 || idx >= static_cast<int64_t>(reqs_.size())) {
    Violation("answer for an unknown request id " + std::to_string(idx + 1));
    return;
  }
  Req& r = reqs_[static_cast<size_t>(idx)];
  if (r.state == ReqState::kAcked || r.state == ReqState::kFailed) {
    Violation("second answer for request id " + std::to_string(idx + 1));
    return;
  }
  if (r.state == ReqState::kQueued) r.sent_ns = now;  // raced the flush
  r.ack_ns = now;
  r.first_byte_ns = first_ns;
  --outstanding_;
  inflight_statements_ -= r.expected.statements;
  std::string why;
  if (!ok) {
    r.state = ReqState::kFailed;
    ++result_->failed;
    if (refused_noted_++ < 5) {
      Violation("request id " + std::to_string(idx + 1) +
                " refused or failed: " + error);
    }
    return;
  }
  if (!AckMatches(r.expected, txns, statements, dispatched, &why)) {
    r.state = ReqState::kFailed;
    ++result_->failed;
    Violation("request id " + std::to_string(idx + 1) + ": " + why);
    return;
  }
  r.state = ReqState::kAcked;
  r.server_latency_us = latency_us;
}

void Driver::KillConn(int ci, const std::string& why) {
  Conn& c = conns_[ci];
  if (c.dead) return;
  c.dead = true;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  close(c.fd);
  c.fd = -1;
  int64_t lost = 0;
  for (size_t i = 0; i < reqs_.size(); ++i) {
    Req& r = reqs_[i];
    if (r.conn == ci &&
        (r.state == ReqState::kQueued || r.state == ReqState::kSent)) {
      r.state = ReqState::kFailed;
      ++result_->failed;
      --outstanding_;
      inflight_statements_ -= r.expected.statements;
      ++lost;
    }
  }
  Violation("connection " + std::to_string(ci) + " lost (" + why + "), " +
            std::to_string(lost) + " requests unanswered");
}

void Driver::OnReadable(int ci) {
  Conn& c = conns_[ci];
  char buf[65536];
  for (;;) {
    const ssize_t n = read(c.fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      KillConn(ci, n == 0 ? "closed by server" : std::strerror(errno));
      return;
    }
    const int64_t now = NowNs();
    stat_bytes_in_ += n;
    const std::string_view data(buf, static_cast<size_t>(n));
    if (o_.shape.transport == Transport::kBinary) {
      if (c.frames.buffered_bytes() == 0) c.partial_start_ns = now;
      c.frames.Feed(data);
      wire::WireFrame frame;
      for (;;) {
        const auto outcome = c.frames.Next(&frame);
        if (outcome == wire::FrameParser::Outcome::kNeedMore) break;
        if (outcome == wire::FrameParser::Outcome::kError) {
          KillConn(ci, "unparseable frame: " + c.frames.error_message());
          return;
        }
        const int64_t idx = static_cast<int64_t>(frame.request_id) - 1;
        if (frame.op == wire::WireOp::kSubmitOk) {
          wire::WireSubmitResult ack;
          if (!wire::DecodeSubmitOkBody(frame.body, &ack).ok()) {
            OnAnswer(idx, false, 0, 0, 0, 0, c.partial_start_ns, now,
                     "undecodable SUBMIT_OK");
          } else {
            OnAnswer(idx, true, ack.txns, ack.statements, ack.dispatched,
                     ack.latency_us, c.partial_start_ns, now, "");
          }
        } else if (frame.op == wire::WireOp::kError) {
          wire::WireError err;
          wire::DecodeErrorBody(frame.body, &err);
          OnAnswer(idx, false, 0, 0, 0, 0, c.partial_start_ns, now,
                   "ERROR " + std::to_string(err.code) + " " + err.message);
        } else {
          Violation(std::string("unexpected frame op ") +
                    wire::WireOpName(frame.op));
        }
        c.partial_start_ns = now;
      }
    } else {
      // The HTTP parser does not expose its leftover bytes, so a response's
      // first byte is taken as the read that completed it.
      c.partial_start_ns = now;
      c.http.Feed(data);
      HttpResponseParser::Response resp;
      for (;;) {
        const auto outcome = c.http.Next(&resp);
        if (outcome == HttpResponseParser::Outcome::kNeedMore) break;
        if (outcome == HttpResponseParser::Outcome::kError) {
          KillConn(ci, "unparseable HTTP response: " + c.http.error_message());
          return;
        }
        if (c.http_fifo.empty()) {
          Violation("HTTP response with no request outstanding");
          continue;
        }
        const int64_t idx = c.http_fifo.front();
        c.http_fifo.pop_front();
        if (resp.status != 200) {
          OnAnswer(idx, false, 0, 0, 0, 0, c.partial_start_ns, now,
                   "HTTP " + std::to_string(resp.status) + " " + resp.body);
        } else {
          auto doc = JsonValue::Parse(resp.body);
          const JsonValue* t = doc.ok() ? doc.ValueOrDie().Get("txns") : nullptr;
          const JsonValue* s =
              doc.ok() ? doc.ValueOrDie().Get("statements") : nullptr;
          const JsonValue* d =
              doc.ok() ? doc.ValueOrDie().Get("dispatched") : nullptr;
          const JsonValue* l =
              doc.ok() ? doc.ValueOrDie().Get("latency_us") : nullptr;
          if (t == nullptr || s == nullptr || d == nullptr || l == nullptr) {
            OnAnswer(idx, false, 0, 0, 0, 0, c.partial_start_ns, now,
                     "malformed 200 body");
          } else {
            OnAnswer(idx, true, t->AsInt64(), s->AsInt64(), d->AsInt64(),
                     l->AsInt64(), c.partial_start_ns, now, "");
          }
        }
        c.partial_start_ns = now;
      }
    }
  }
}

StepResult Driver::RunStep(const StepPlan& plan, int step_index) {
  StepResult out;
  out.plan = plan;
  Scrape(plan.name + ":begin");
  stat_bytes_in_ = stat_bytes_out_ = stat_writes_ = 0;
  const int64_t cpu_server0 = ProcessCpuUs(o_.server_pid);
  const int64_t cpu_client0 = ClientCpuUs();
  const size_t first_idx = reqs_.size();

  ArrivalSchedule arrivals(o_.seed, step_index, plan.rate_rps);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(plan.seconds * 1e9);
  int64_t next_due = start + arrivals.NextGapNs();
  // A due request waits in the client while the in-flight cap is reached;
  // it is still timed from its due time. A backlog this far behind the
  // schedule means the server is not keeping up: the step stops offering
  // load and fails.
  const int64_t max_backlog_ns = 1000000000;
  const int64_t request_statements = kTxnsPerRequest * kOpsPerTxn;
  bool capped = false;
  int64_t drain_deadline = 0;
  epoll_event events[64];
  for (;;) {
    int64_t now = NowNs();
    bool held = false;
    if (!capped && next_due < end) {
      while (next_due <= now && next_due < end) {
        if (inflight_statements_ + request_statements >
            o_.max_inflight_statements) {
          held = true;
          if (now - next_due > max_backlog_ns) capped = true;
          break;
        }
        Enqueue(next_due, step_index);
        next_due += arrivals.NextGapNs();
      }
      for (Conn& c : conns_) {
        if (!c.dead && c.out_off < c.out.size() && !c.want_out) Flush(c);
      }
    }
    const bool still_generating = !capped && next_due < end;
    if (!still_generating) {
      if (outstanding_ == 0) break;
      if (drain_deadline == 0) {
        drain_deadline =
            std::max(now, end) + static_cast<int64_t>(o_.drain_timeout_s * 1e9);
      }
      if (now >= drain_deadline) break;
    }
    // Held at the cap, an answer (not the clock) frees the next send.
    if (held && !capped) {
      ArmTimer(next_due + max_backlog_ns + 1);
    } else {
      ArmTimer(still_generating ? next_due : drain_deadline);
    }
    const int n = epoll_wait(epoll_fd_, events, 64, -1);
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == ~0ULL) {
        uint64_t expirations = 0;
        (void)!read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      const int ci = static_cast<int>(events[i].data.u64);
      if (conns_[ci].dead) continue;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) OnReadable(ci);
      if (!conns_[ci].dead && (events[i].events & EPOLLOUT)) {
        Flush(conns_[ci]);
      }
    }
  }
  // Anything still unanswered after the drain timeout is a failure.
  for (size_t i = first_idx; i < reqs_.size(); ++i) {
    Req& r = reqs_[i];
    if (r.state == ReqState::kQueued || r.state == ReqState::kSent) {
      r.state = ReqState::kFailed;
      ++result_->failed;
      --outstanding_;
      inflight_statements_ -= r.expected.statements;
      stalled_ = true;
      if (unanswered_noted_++ < 5) {
        Violation("request id " + std::to_string(i + 1) + " unanswered");
      }
    }
  }

  out.server_cpu_us = ProcessCpuUs(o_.server_pid) - cpu_server0;
  out.client_cpu_us = ClientCpuUs() - cpu_client0;
  out.bytes_in = stat_bytes_in_;
  out.bytes_out = stat_bytes_out_;
  out.writes = stat_writes_;

  StepSummary& s = out.summary;
  s.backlog_capped = capped;
  std::vector<int64_t> acks, lates, first_q, last_q, server_lat;
  int64_t last_ack = start;
  const size_t count = reqs_.size() - first_idx;
  for (size_t i = first_idx; i < reqs_.size(); ++i) {
    const Req& r = reqs_[i];
    ++s.due;
    if (r.state != ReqState::kAcked) {
      ++s.failed;
      continue;
    }
    ++s.acked;
    acks.push_back(r.ack_ns - r.due_ns);
    const int64_t late = r.sent_ns - r.due_ns;
    lates.push_back(late);
    const size_t k = i - first_idx;
    if (k < count / 4) first_q.push_back(late);
    if (k >= count - count / 4) last_q.push_back(late);
    server_lat.push_back(r.server_latency_us);
    last_ack = std::max(last_ack, r.ack_ns);
  }
  s.offered_rps = static_cast<double>(s.due) / plan.seconds;
  out.wall_s = static_cast<double>(last_ack - start) / 1e9;
  s.achieved_rps =
      out.wall_s > 0 ? static_cast<double>(s.acked) / out.wall_s : 0;
  std::sort(acks.begin(), acks.end());
  s.ack_p50_ns = PercentileSorted(acks, 0.50);
  s.ack_p99_ns = PercentileSorted(acks, 0.99);
  s.late_p50_first_quarter_ns = Percentile(first_q, 0.50);
  s.late_p50_last_quarter_ns = Percentile(last_q, 0.50);
  out.late_p99_ns = Percentile(lates, 0.99);
  std::sort(server_lat.begin(), server_lat.end());
  out.server_latency_p50_us = PercentileSorted(server_lat, 0.50);
  out.server_latency_p99_us = PercentileSorted(server_lat, 0.99);
  out.passed = StepPasses(s, o_.limits, &out.why);
  Scrape(plan.name + ":end");
  return out;
}

void Driver::WriteTrace() {
  if (o_.trace_prefix.empty()) return;
  std::ofstream spans(o_.trace_prefix + "spans.csv");
  spans << "id,step,conn,state,due_ns,sent_ns,first_byte_ns,acked_ns,"
           "server_latency_us\n";
  for (size_t i = 0; i < reqs_.size(); ++i) {
    const Req& r = reqs_[i];
    spans << (i + 1) << ',' << r.step << ',' << r.conn << ','
          << static_cast<int>(r.state) << ',' << r.due_ns << ','
          << r.sent_ns << ',' << r.first_byte_ns << ',' << r.ack_ns << ','
          << r.server_latency_us << '\n';
  }
  std::ofstream scrapes(o_.trace_prefix + "scrapes.jsonl");
  for (const std::string& line : scrapes_) scrapes << line << '\n';
}

}  // namespace

bool AckMatches(const ExpectedAck& expected, int64_t txns, int64_t statements,
                int64_t dispatched, std::string* why) {
  if (txns != expected.txns || statements != expected.statements ||
      dispatched != expected.dispatched) {
    *why = "ack counters txns/statements/dispatched " + std::to_string(txns) +
           "/" + std::to_string(statements) + "/" +
           std::to_string(dispatched) + ", sent " +
           std::to_string(expected.txns) + "/" +
           std::to_string(expected.statements) + "/" +
           std::to_string(expected.dispatched);
    return false;
  }
  return true;
}

bool CheckFinalStats(const std::string& stats_json,
                     std::vector<std::string>* violations) {
  auto doc = JsonValue::Parse(stats_json);
  if (!doc.ok()) {
    violations->push_back("final /v1/stats is not JSON");
    return false;
  }
  const JsonValue& d = doc.ValueOrDie();
  const JsonValue* totals = d.Get("totals");
  const JsonValue* submitted = totals ? totals->Get("submitted") : nullptr;
  const JsonValue* dispatched = totals ? totals->Get("dispatched") : nullptr;
  const JsonValue* inflight = d.Get("inflight_statements");
  const JsonValue* jobs = d.Get("jobs_inflight");
  if (!submitted || !dispatched || !inflight || !jobs) {
    violations->push_back("final /v1/stats lacks a conservation field");
    return false;
  }
  bool ok = true;
  if (submitted->AsInt64() != dispatched->AsInt64()) {
    violations->push_back("final stats: submitted " +
                          std::to_string(submitted->AsInt64()) +
                          " != dispatched " +
                          std::to_string(dispatched->AsInt64()));
    ok = false;
  }
  if (inflight->AsInt64() != 0) {
    violations->push_back("final stats: inflight_statements " +
                          std::to_string(inflight->AsInt64()));
    ok = false;
  }
  if (jobs->AsInt64() != 0) {
    violations->push_back("final stats: jobs_inflight " +
                          std::to_string(jobs->AsInt64()));
    ok = false;
  }
  return ok;
}

RunResult RunOpenLoop(const ClientOptions& options) {
  RunResult result;
  Driver driver(options, &result);
  if (!driver.Connect()) return result;
  int index = 0;
  for (const StepPlan& plan : options.steps) {
    if (driver.stalled()) break;
    result.steps.push_back(driver.RunStep(plan, index++));
  }
  std::vector<bool> ladder_passed;
  double rate = options.ladder_start_rps;
  for (int k = 0;
       options.ladder_start_rps > 0 && k < kLadderSteps && !driver.stalled();
       ++k) {
    StepPlan plan;
    plan.name = "ladder" + std::to_string(k);
    plan.rate_rps = rate;
    plan.seconds = options.ladder_step_seconds;
    plan.ladder = true;
    result.steps.push_back(driver.RunStep(plan, index++));
    ladder_passed.push_back(result.steps.back().passed);
    if (LadderShouldStop(ladder_passed)) break;
    rate *= kLadderRatio;
  }
  std::vector<double> offered;
  std::vector<bool> passed, ladder;
  for (const StepResult& s : result.steps) {
    offered.push_back(s.plan.rate_rps);
    passed.push_back(s.passed);
    ladder.push_back(s.plan.ladder);
  }
  result.max_rate_step = HighestPassingStep(offered, passed, ladder);

  // Conservation at the end: every admitted statement dispatched, nothing
  // left in flight. The counters settle right after the last ack, so allow
  // a short grace before calling a mismatch.
  std::vector<std::string> stats_violations;
  for (int attempt = 0; attempt < 20; ++attempt) {
    int status = 0;
    stats_violations.clear();
    if (!HttpGet(options.http_port, "/v1/stats", &status,
                 &result.final_stats_json) ||
        status != 200) {
      stats_violations.push_back("final /v1/stats unreachable");
    } else if (CheckFinalStats(result.final_stats_json, &stats_violations)) {
      break;
    }
    usleep(100000);
  }
  for (std::string& v : stats_violations) {
    result.violations.push_back(std::move(v));
  }
  driver.WriteTrace();
  return result;
}

std::string RunResultJson(const RunResult& result) {
  JsonValue doc = JsonValue::Object();
  doc.Set("attempted", JsonValue::Int(result.attempted));
  doc.Set("failed", JsonValue::Int(result.failed));
  JsonValue violations = JsonValue::Array();
  for (const std::string& v : result.violations) {
    violations.Append(JsonValue::Str(v));
  }
  doc.Set("violations", std::move(violations));
  JsonValue split = JsonValue::Array();
  for (int n : result.accept_split) split.Append(JsonValue::Int(n));
  doc.Set("accept_split", std::move(split));
  doc.Set("connect_attempts", JsonValue::Int(result.connect_attempts));
  doc.Set("max_rate_step", JsonValue::Int(result.max_rate_step));
  doc.Set("final_stats", JsonValue::Str(result.final_stats_json));
  JsonValue steps = JsonValue::Array();
  for (const StepResult& s : result.steps) {
    JsonValue j = JsonValue::Object();
    j.Set("name", JsonValue::Str(s.plan.name));
    j.Set("rate_rps", JsonValue::Double(s.plan.rate_rps));
    j.Set("seconds", JsonValue::Double(s.plan.seconds));
    j.Set("ladder", JsonValue::Bool(s.plan.ladder));
    j.Set("passed", JsonValue::Bool(s.passed));
    j.Set("why", JsonValue::Str(s.why));
    j.Set("due", JsonValue::Int(s.summary.due));
    j.Set("acked", JsonValue::Int(s.summary.acked));
    j.Set("failed", JsonValue::Int(s.summary.failed));
    j.Set("backlog_capped", JsonValue::Bool(s.summary.backlog_capped));
    j.Set("offered_rps", JsonValue::Double(s.summary.offered_rps));
    j.Set("achieved_rps", JsonValue::Double(s.summary.achieved_rps));
    j.Set("ack_p50_us", JsonValue::Double(s.summary.ack_p50_ns / 1e3));
    j.Set("ack_p99_us", JsonValue::Double(s.summary.ack_p99_ns / 1e3));
    j.Set("late_p50_first_quarter_us",
          JsonValue::Double(s.summary.late_p50_first_quarter_ns / 1e3));
    j.Set("late_p50_last_quarter_us",
          JsonValue::Double(s.summary.late_p50_last_quarter_ns / 1e3));
    j.Set("late_p99_us", JsonValue::Double(s.late_p99_ns / 1e3));
    j.Set("wall_s", JsonValue::Double(s.wall_s));
    j.Set("server_cpu_us", JsonValue::Int(s.server_cpu_us));
    j.Set("client_cpu_us", JsonValue::Int(s.client_cpu_us));
    j.Set("bytes_out", JsonValue::Int(s.bytes_out));
    j.Set("bytes_in", JsonValue::Int(s.bytes_in));
    j.Set("writes", JsonValue::Int(s.writes));
    j.Set("server_latency_p50_us", JsonValue::Int(s.server_latency_p50_us));
    j.Set("server_latency_p99_us", JsonValue::Int(s.server_latency_p99_us));
    steps.Append(std::move(j));
  }
  doc.Set("steps", std::move(steps));
  return doc.Dump();
}

}  // namespace e2ebench
