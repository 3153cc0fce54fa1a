#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cctype>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.h"

namespace declsched::net {

namespace {

/// `le` bounds for the frames-per-read histogram (counts, not latency).
const std::vector<int64_t>& FramesPerReadBounds() {
  static const std::vector<int64_t> kBounds = {1,  2,   4,   8,   16,  32,
                                               64, 128, 256, 512, 1024};
  return kBounds;
}

}  // namespace

// The reply outlives both the connection and (safely no-ops after) the
// server: it weakly references the owning reactor, and the posted
// completion routes through the server pointer only while that reactor is
// still accepting tasks — the server keeps its reactors alive until every
// loop has drained.
void Server::Reply::Send(std::string bytes, bool close_after) {
  if (sent_.exchange(true, std::memory_order_acq_rel)) return;
  std::shared_ptr<Reactor> r = reactor_.lock();
  if (r == nullptr) return;
  Server* s = server_;
  const int idx = reactor_index_;
  const uint64_t conn = conn_id_;
  const uint64_t token = token_;
  auto task = [s, idx, conn, token, close_after,
               b = std::move(bytes)]() mutable {
    s->CompleteReply(idx, conn, token, std::move(b), close_after);
  };
  if (r->InReactorThread()) {
    task();
  } else {
    r->Post(std::move(task));
  }
}

Server::Reply::~Reply() {
  // Every copy dropped without an answer: the empty reply tells the codec
  // to fail the request rather than wedge the connection.
  Send(std::string());
}

void Server::Connection::Write(std::string_view message) {
  out_.append(message.data(), message.size());
  if (frames_out_ != nullptr) frames_out_->Increment();
}

std::shared_ptr<Server::Reply> Server::Connection::NewReply(uint64_t token) {
  ++outstanding_;
  server_->pending_responses_.fetch_add(1, std::memory_order_acq_rel);
  auto reply = std::make_shared<Reply>();
  reply->reactor_ =
      server_->shards_[static_cast<size_t>(reactor_index_)]->reactor;
  reply->server_ = server_;
  reply->reactor_index_ = reactor_index_;
  reply->conn_id_ = id_;
  reply->token_ = token;
  return reply;
}

Server::Server(Options options, Transport transport)
    : options_(std::move(options)), transport_(std::move(transport)) {
  if (options_.reactor_threads < 1) options_.reactor_threads = 1;
  port_ = options_.port;
  for (int i = 0; i < options_.reactor_threads; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->reactor = std::make_shared<Reactor>();
    shards_.push_back(std::move(shard));
  }
  if (options_.metrics == nullptr) return;
  auto* m = options_.metrics;
  const std::string& p = transport_.metric_prefix;
  const std::string& noun = transport_.noun;
  std::string title = noun;  // sentence case, to start a help text
  title[0] = static_cast<char>(
      std::toupper(static_cast<unsigned char>(title[0])));
  rejected_total_ =
      m->GetCounter(p + "_connections_rejected_total",
                    title + " connections refused at the max_connections cap");
  slow_client_closes_total_ = m->GetCounter(
      p + "_slow_client_closes_total",
      title + " connections closed for exceeding the write budget");
  connections_gauge_ = m->GetGauge(
      p + "_connections_open",
      "Currently open " + noun + " connections (exact, all reactors)");
  frames_per_read_ = m->GetHistogram(p + "_frames_per_read",
                                     "Complete frames decoded per read batch",
                                     {}, FramesPerReadBounds());
  for (int i = 0; i < options_.reactor_threads; ++i) {
    const observability::MetricLabels labels = {{"reactor", std::to_string(i)}};
    Shard* shard = shards_[static_cast<size_t>(i)].get();
    shard->accepted = m->GetCounter(
        p + "_connections_accepted_total",
        title + " connections adopted, by owning reactor", labels);
    shard->bytes_in = m->GetCounter(p + "_bytes_in_total",
                                    "Bytes read from " + noun + " clients",
                                    labels);
    shard->bytes_out = m->GetCounter(p + "_bytes_out_total",
                                     "Bytes written to " + noun + " clients",
                                     labels);
    shard->frames_in = m->GetCounter(p + "_frames_in_total",
                                     "Request frames decoded", labels);
    shard->frames_out = m->GetCounter(p + "_frames_out_total",
                                      "Response frames enqueued", labels);
  }
}

Server::~Server() { Shutdown(); }

Status Server::Start(CodecFactory new_codec) {
  DS_CHECK(!started_);
  new_codec_ = std::move(new_codec);

  if (shards_.size() > 1 && !options_.force_fallback_accept) {
    Status st = Status::OK();
    for (auto& shard : shards_) {
      Result<int> fd = OpenListener(/*reuseport=*/true);
      if (!fd.ok()) {
        st = fd.status();
        break;
      }
      shard->listen_fd = *fd;
    }
    if (st.ok()) {
      reuseport_active_ = true;
    } else {
      DS_LOG(Warn) << "SO_REUSEPORT listeners unavailable (" << st
                   << "); falling back to single-acceptor fd handoff";
      for (auto& shard : shards_) {
        if (shard->listen_fd >= 0) {
          ::close(shard->listen_fd);
          shard->listen_fd = -1;
        }
      }
      port_ = options_.port;
    }
  }
  if (!reuseport_active_) {
    Result<int> fd = OpenListener(/*reuseport=*/false);
    if (!fd.ok()) return fd.status();
    shards_[0]->listen_fd = *fd;
  }

  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    if (shard->listen_fd < 0) continue;
    const int index = static_cast<int>(i);
    DS_RETURN_NOT_OK(shard->reactor->Add(
        shard->listen_fd, Reactor::kReadable,
        [this, index](uint32_t) { DoAccept(index); }));
  }
  for (auto& shard : shards_) shard->reactor->Start();
  started_ = true;
  return Status::OK();
}

void Server::Shutdown() {
  if (shut_down_.exchange(true)) return;
  if (!started_) {
    for (auto& shard : shards_) {
      if (shard->listen_fd >= 0) ::close(shard->listen_fd);
      shard->listen_fd = -1;
      shard->reactor->Stop();
    }
    return;
  }
  // Phase 1: stop accepting on every reactor that owns a listener.
  for (auto& owned : shards_) {
    Shard* shard = owned.get();
    shard->reactor->Post([shard] {
      if (shard->listen_fd >= 0) {
        shard->reactor->Remove(shard->listen_fd);
        ::close(shard->listen_fd);
        shard->listen_fd = -1;
      }
    });
  }
  // Phase 2: drain in-flight replies.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  while (pending_responses_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 3: tear down connections, then stop the loops. The teardown
  // task is queued after any fd-handoff adoptions posted while the
  // single acceptor was still live, so adopted connections are closed
  // too.
  for (auto& owned : shards_) {
    Shard* shard = owned.get();
    shard->reactor->Post([this, shard] {
      std::vector<uint64_t> ids;
      ids.reserve(shard->conns.size());
      for (const auto& [id, conn] : shard->conns) ids.push_back(id);
      for (uint64_t id : ids) CloseConnection(shard, id);
    });
  }
  for (auto& shard : shards_) shard->reactor->Stop();
}

int64_t Server::accepted_by_reactor(int i) const {
  if (i < 0 || static_cast<size_t>(i) >= shards_.size()) return 0;
  return shards_[static_cast<size_t>(i)]->accepted_count.load(
      std::memory_order_relaxed);
}

Result<int> Server::OpenListener(bool reuseport) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  // Every failure past this point closes the half-built listener.
  auto fail = [fd](Status st) {
    ::close(fd);
    return st;
  };
  auto sys_error = [](const char* call) {
    return Status::Internal(std::string(call) + ": " + std::strerror(errno));
  };
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport &&
      setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    return fail(sys_error("SO_REUSEPORT"));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return fail(
        Status::InvalidArgument("bad bind address: " + options_.bind_address));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail(sys_error("bind"));
  }
  // Deep backlog: a 10k-connection loadgen opens its sockets in a burst,
  // and REUSEPORT splits this across per-reactor queues.
  if (::listen(fd, 4096) != 0) return fail(sys_error("listen"));

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return fail(sys_error("getsockname"));
  }
  // First listener may bind port 0; every later one binds the port the
  // kernel picked, so all REUSEPORT listeners share it.
  port_ = ntohs(bound.sin_port);
  return fd;
}

void Server::DoAccept(int reactor_index) {
  Shard* shard = shards_[static_cast<size_t>(reactor_index)].get();
  while (true) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept4(shard->listen_fd, reinterpret_cast<sockaddr*>(&peer), &len,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      DS_LOG(Warn) << "accept: " << std::strerror(errno);
      return;
    }
    if (connection_count_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Over the global cap: a one-shot refusal tells well-behaved clients
      // to back off; the write is best-effort on a fresh socket.
      const std::string& reply = transport_.refusal;
      ssize_t n = ::write(fd, reply.data(), reply.size());
      (void)n;
      ::close(fd);
      if (rejected_total_ != nullptr) rejected_total_->Increment();
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Counted at accept so the cap holds while a handed-off fd is in
    // flight to its adopting reactor; undone on close or adopt failure.
    connection_count_.fetch_add(1, std::memory_order_relaxed);
    if (connections_gauge_ != nullptr) connections_gauge_->Add(1);

    int target = reactor_index;
    if (!reuseport_active_ && shards_.size() > 1) {
      target = static_cast<int>(
          round_robin_.fetch_add(1, std::memory_order_relaxed) %
          shards_.size());
    }
    if (target == reactor_index) {
      AdoptConnection(target, fd);
    } else {
      shards_[static_cast<size_t>(target)]->reactor->Post(
          [this, target, fd] { AdoptConnection(target, fd); });
    }
  }
}

void Server::AdoptConnection(int reactor_index, int fd) {
  Shard* shard = shards_[static_cast<size_t>(reactor_index)].get();
  const uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  auto conn = std::make_unique<Connection>();
  conn->server_ = this;
  conn->reactor_index_ = reactor_index;
  conn->id_ = id;
  conn->fd_ = fd;
  conn->codec_ = new_codec_();
  conn->frames_out_ = shard->frames_out;
  shard->conns[id] = std::move(conn);
  const Status st = shard->reactor->Add(
      fd, Reactor::kReadable, [this, reactor_index, id](uint32_t events) {
        OnConnectionEvent(reactor_index, id, events);
      });
  if (!st.ok()) {
    DS_LOG(Warn) << "register connection: " << st;
    shard->conns.erase(id);
    ::close(fd);
    connection_count_.fetch_sub(1, std::memory_order_relaxed);
    if (connections_gauge_ != nullptr) connections_gauge_->Add(-1);
    return;
  }
  shard->accepted_count.fetch_add(1, std::memory_order_relaxed);
  if (shard->accepted != nullptr) shard->accepted->Increment();
}

void Server::OnConnectionEvent(int reactor_index, uint64_t conn_id,
                               uint32_t events) {
  Shard* shard = shards_[static_cast<size_t>(reactor_index)].get();
  auto it = shard->conns.find(conn_id);
  if (it == shard->conns.end()) return;
  Connection* conn = it->second.get();
  if (events & Reactor::kReadable) {
    ReadFromConnection(shard, conn);
    // The read may have closed the connection.
    it = shard->conns.find(conn_id);
    if (it == shard->conns.end()) return;
    conn = it->second.get();
  }
  if (events & Reactor::kWritable) FlushConnection(shard, conn);
}

void Server::ReadFromConnection(Shard* shard, Connection* conn) {
  char buf[16 * 1024];
  bool peer_closed = false;
  size_t total_read = 0;
  while (true) {
    const ssize_t n = ::read(conn->fd_, buf, sizeof(buf));
    if (n > 0) {
      conn->codec_->Feed(std::string_view(buf, static_cast<size_t>(n)));
      total_read += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;  // hard error: treat as close
    break;
  }
  if (total_read > 0 && shard->bytes_in != nullptr) {
    shard->bytes_in->Increment(static_cast<int64_t>(total_read));
  }

  int64_t frames = 0;
  conn->decoding_ = true;
  while (!conn->close_after_flush_ && conn->codec_->Next(*conn)) ++frames;
  conn->decoding_ = false;
  if (frames > 0) {
    if (shard->frames_in != nullptr) shard->frames_in->Increment(frames);
    if (frames_per_read_ != nullptr) frames_per_read_->Record(frames);
  }

  // On peer close, flush what we can synchronously, then drop the
  // connection; requests still outstanding die with it (their replies
  // become no-ops).
  const uint64_t conn_id = conn->id_;
  FlushConnection(shard, conn);
  if (peer_closed) CloseConnection(shard, conn_id);
}

void Server::CompleteReply(int reactor_index, uint64_t conn_id,
                           uint64_t token, std::string bytes,
                           bool close_after) {
  Shard* shard = shards_[static_cast<size_t>(reactor_index)].get();
  auto it = shard->conns.find(conn_id);
  if (it == shard->conns.end()) return;  // connection died first
  Connection* conn = it->second.get();
  conn->outstanding_--;
  pending_responses_.fetch_sub(1, std::memory_order_acq_rel);
  conn->codec_->Complete(*conn, token, std::move(bytes));
  if (close_after) conn->close_after_flush_ = true;
  FlushConnection(shard, conn);
}

void Server::FlushConnection(Shard* shard, Connection* conn) {
  if (conn->decoding_) return;  // the read path flushes after the batch
  size_t written = 0;
  while (written < conn->out_.size()) {
    const ssize_t n = ::write(conn->fd_, conn->out_.data() + written,
                              conn->out_.size() - written);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(shard, conn->id_);  // peer gone
    return;
  }
  if (written > 0 && shard->bytes_out != nullptr) {
    shard->bytes_out->Increment(static_cast<int64_t>(written));
  }
  conn->out_.erase(0, written);
  if (conn->out_.size() > options_.max_write_buffer_bytes) {
    if (slow_client_closes_total_ != nullptr) {
      slow_client_closes_total_->Increment();
    }
    CloseConnection(shard, conn->id_);
    return;
  }

  const bool need_writable = !conn->out_.empty();
  if (need_writable != conn->want_writable_) {
    conn->want_writable_ = need_writable;
    const uint32_t interest =
        Reactor::kReadable | (need_writable ? Reactor::kWritable : 0);
    (void)shard->reactor->Modify(conn->fd_, interest);
  }
  if (conn->close_after_flush_ && conn->out_.empty()) {
    CloseConnection(shard, conn->id_);
  }
}

void Server::CloseConnection(Shard* shard, uint64_t conn_id) {
  auto it = shard->conns.find(conn_id);
  if (it == shard->conns.end()) return;
  Connection* conn = it->second.get();
  // Replies that never completed: they will no-op into a dead conn_id;
  // drop them from the pending count here.
  if (conn->outstanding_ > 0) {
    pending_responses_.fetch_sub(conn->outstanding_, std::memory_order_acq_rel);
  }
  shard->reactor->Remove(conn->fd_);
  ::close(conn->fd_);
  shard->conns.erase(it);
  connection_count_.fetch_sub(1, std::memory_order_relaxed);
  if (connections_gauge_ != nullptr) connections_gauge_->Add(-1);
}

}  // namespace declsched::net
