// The connection layer under every front-door transport: N epoll reactors
// with SO_REUSEPORT accept sharding, and one per-connection Codec that
// speaks the protocol.
//
// N reactor threads each own an epoll loop and a disjoint set of
// connections. Accept sharding has two topologies:
//
//   REUSEPORT (more than one reactor): every reactor binds its own
//     listening socket to the same port with SO_REUSEPORT, so the kernel
//     spreads incoming connections across the reactors with no shared
//     accept lock and no fd handoff — the scale-out path to 10k+
//     connections.
//   single listener (one reactor, SO_REUSEPORT unavailable, or forced for
//     tests): reactor 0 owns one plain listener and hands accepted fds to
//     the other reactors round-robin via Reactor::Post; the target reactor
//     registers the fd on its own thread. A plain listener also means a
//     second server cannot silently share a port that is already held.
//
// Either way a connection is owned by exactly one reactor for its whole
// life: reads, decoding, handler dispatch, and writes all happen on that
// thread, so per-connection state needs no locks. Everything that touches
// a socket lives here; what the bytes mean lives in the connection's Codec
// (net/http_server.h for HTTP/1.1, net/wire/binary_server.h for the binary
// wire protocol). Handlers answer through a Reply that is safe to complete
// from any thread (a shard worker finishing a batch); the encoded reply is
// posted back to the owning reactor and handed to the codec, which decides
// where it goes in the connection's output.
//
// Built-in protection, whatever the codec:
//   - bounded connection count: one global atomic across all reactors;
//     accepts past the cap get the codec's best-effort refusal and close,
//     so a connection flood cannot exhaust fds;
//   - slow-client write budget: a connection whose unsent reply bytes
//     exceed the cap is closed rather than growing without bound;
//   - the exact open-connection gauge: the same atomic, maintained at
//     accept/close, so /metrics reconciles with what the server holds open.
//
// Shutdown is graceful: the listeners close first, in-flight replies get a
// drain window to complete, then remaining connections are torn down and
// the reactors stop.

#ifndef DECLSCHED_NET_SERVER_H_
#define DECLSCHED_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/reactor.h"
#include "observability/metrics.h"

namespace declsched::net {

class Server {
 public:
  struct Options {
    /// Port to listen on; 0 picks an ephemeral port (read it back with
    /// port() after Start).
    uint16_t port = 0;
    std::string bind_address = "127.0.0.1";
    /// Reactor threads; each owns its connections end to end.
    int reactor_threads = 1;
    /// Test hook: skip SO_REUSEPORT and exercise the single-listener
    /// round-robin fd-handoff path.
    bool force_fallback_accept = false;
    /// Global cap across all reactors; accepts beyond it get the codec's
    /// best-effort refusal and close.
    int max_connections = 4096;
    /// Slow-client budget: unsent reply bytes above this close the
    /// connection.
    size_t max_write_buffer_bytes = 256 * 1024;
    /// How long Shutdown() waits for in-flight replies.
    int drain_timeout_ms = 2000;
    /// Optional: per-reactor accept/bytes/frames counters, the exact
    /// open-connections gauge, and the frames-per-read histogram are
    /// registered here under the transport's metric prefix.
    observability::MetricsRegistry* metrics = nullptr;
  };

  /// Completion handle core for one request, shared by every copy of a
  /// codec's typed Responder. The first Send wins; it is thread-safe and
  /// callable from any thread, including after the connection or the
  /// whole server has gone away (it becomes a no-op). Dropping every copy
  /// without sending delivers an empty reply, which the codec turns into
  /// its failure answer — a lost handler can never wedge a connection.
  class Reply {
   public:
    ~Reply();
    /// Delivers one encoded reply; `close_after` closes the connection
    /// once everything before it has been written.
    void Send(std::string bytes, bool close_after = false);
    /// The codec's key for this request (HTTP slot, wire request id).
    uint64_t token() const { return token_; }

   private:
    friend class Server;
    std::weak_ptr<Reactor> reactor_;
    Server* server_ = nullptr;
    int reactor_index_ = 0;
    uint64_t conn_id_ = 0;
    uint64_t token_ = 0;
    std::atomic<bool> sent_{false};
  };

  class Codec;

  /// A connection as its codec sees it. Reactor thread only.
  class Connection {
   public:
    /// Appends one encoded message to the output.
    void Write(std::string_view message);
    /// Stop decoding; close the connection once the output has drained.
    void CloseAfterFlush() { close_after_flush_ = true; }
    /// Replies handed out by NewReply and not yet completed.
    int64_t outstanding() const { return outstanding_; }
    /// A completion handle for one request; `token` comes back with the
    /// reply in Codec::Complete.
    std::shared_ptr<Reply> NewReply(uint64_t token);

   private:
    friend class Server;
    Server* server_ = nullptr;
    int reactor_index_ = 0;
    uint64_t id_ = 0;
    int fd_ = -1;
    std::unique_ptr<Codec> codec_;
    std::string out_;
    bool close_after_flush_ = false;
    int64_t outstanding_ = 0;
    bool want_writable_ = false;
    /// Set while the codec decodes a read batch: replies completed inline
    /// are buffered and written once the batch is done, so the connection
    /// (and its codec) cannot be closed under the codec's feet.
    bool decoding_ = false;
    observability::Counter* frames_out_ = nullptr;
  };

  /// The connection-level half of one protocol: decodes inbound bytes,
  /// answers connection-level messages itself, hands requests to the
  /// application with a Reply, and places completed replies in the output.
  /// One instance per connection; no socket syscalls.
  class Codec {
   public:
    virtual ~Codec() = default;
    /// Buffers freshly read bytes.
    virtual void Feed(std::string_view bytes) = 0;
    /// Decodes and acts on the next buffered message. Returns true when a
    /// message was decoded, false when none is complete or the codec has
    /// stopped decoding (a parse error, or the peer asked to close).
    virtual bool Next(Connection& conn) = 0;
    /// A reply completed on this connection. `bytes` is empty when every
    /// handle was dropped unanswered.
    virtual void Complete(Connection& conn, uint64_t token,
                          std::string bytes) = 0;
  };

  /// What distinguishes one transport's server from another's.
  struct Transport {
    /// Metric name prefix: "net" for HTTP, "wire" for the binary protocol.
    std::string metric_prefix;
    /// Human name in metric help text ("HTTP", "wire").
    std::string noun;
    /// Written best-effort to a connection refused at the cap.
    std::string refusal;
  };

  using CodecFactory = std::function<std::unique_ptr<Codec>()>;

  Server(Options options, Transport transport);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds (one listener per reactor under REUSEPORT), listens, and starts
  /// every reactor thread; each accepted connection gets a fresh codec.
  Status Start(CodecFactory new_codec);
  /// Graceful stop; idempotent. Safe to call without Start.
  void Shutdown();

  /// Bound port (after Start).
  uint16_t port() const { return port_; }
  int reactor_threads() const { return options_.reactor_threads; }
  /// True when accept sharding runs on SO_REUSEPORT listeners (false =
  /// one listener, with fd handoff when there are several reactors).
  bool reuseport_active() const { return reuseport_active_; }

  /// Live connection count — exact: one atomic maintained at accept and
  /// close across all reactors, and the same number the open-connections
  /// gauge exports.
  int64_t connections() const {
    return connection_count_.load(std::memory_order_relaxed);
  }
  /// Replies not yet delivered.
  int64_t pending_responses() const {
    return pending_responses_.load(std::memory_order_relaxed);
  }
  /// Connections accepted by reactor `i` (the accept-distribution view).
  int64_t accepted_by_reactor(int i) const;

 private:
  /// Everything one reactor owns. Only its thread touches `conns`.
  struct Shard {
    std::shared_ptr<Reactor> reactor;
    int listen_fd = -1;
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    observability::Counter* accepted = nullptr;
    observability::Counter* bytes_in = nullptr;
    observability::Counter* bytes_out = nullptr;
    observability::Counter* frames_in = nullptr;
    observability::Counter* frames_out = nullptr;
    /// Accept distribution, readable off-thread (mirrors `accepted`).
    std::atomic<int64_t> accepted_count{0};
  };

  Result<int> OpenListener(bool reuseport);
  void DoAccept(int reactor_index);
  void AdoptConnection(int reactor_index, int fd);
  void OnConnectionEvent(int reactor_index, uint64_t conn_id, uint32_t events);
  void ReadFromConnection(Shard* shard, Connection* conn);
  void CompleteReply(int reactor_index, uint64_t conn_id, uint64_t token,
                     std::string bytes, bool close_after);
  void FlushConnection(Shard* shard, Connection* conn);
  void CloseConnection(Shard* shard, uint64_t conn_id);

  Options options_;
  Transport transport_;
  CodecFactory new_codec_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint16_t port_ = 0;
  bool started_ = false;
  bool reuseport_active_ = false;
  std::atomic<bool> shut_down_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<int64_t> connection_count_{0};
  std::atomic<int64_t> pending_responses_{0};
  std::atomic<uint64_t> round_robin_{0};  ///< fallback handoff target

  // Registered iff options_.metrics != nullptr (global, unlabeled).
  observability::Counter* rejected_total_ = nullptr;
  observability::Counter* slow_client_closes_total_ = nullptr;
  observability::Gauge* connections_gauge_ = nullptr;
  observability::HistogramMetric* frames_per_read_ = nullptr;
};

}  // namespace declsched::net

#endif  // DECLSCHED_NET_SERVER_H_
