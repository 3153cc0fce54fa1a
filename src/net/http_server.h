// Async HTTP/1.1 server: the HTTP codec on the shared connection layer
// (net/server.h).
//
// Application handlers run on the connection's reactor thread and answer
// through a Responder, which may be fulfilled immediately or carried off
// to another thread (a shard worker) and completed later — the response is
// posted back to the reactor. With keep-alive pipelining in play,
// responses are delivered strictly in the order their requests arrived on
// the connection: each request takes a slot in a per-connection queue and
// only completed slots from the front are written.
//
// The codec's own protection, before the application sees a request:
// parser limits — oversized headers (431), oversized bodies (413), and
// unsupported framings (501) are answered and the connection closed once
// the earlier responses have gone out. A `Connection: close` request is
// answered in order and then closes the connection. Connections refused
// at the cap get a best-effort 503.

#ifndef DECLSCHED_NET_HTTP_SERVER_H_
#define DECLSCHED_NET_HTTP_SERVER_H_

#include <functional>
#include <memory>

#include "common/status.h"
#include "net/http.h"
#include "net/server.h"

namespace declsched::net {

class HttpServer : public Server {
 public:
  struct Options : Server::Options {
    HttpRequestParser::Limits parser_limits;
  };

  /// Completion handle for one request's response slot. Copyable; the
  /// first Send wins. If every copy is dropped without sending, a 500 is
  /// delivered so the slot (and the connection behind it) can never hang.
  /// Send is thread-safe and callable from any thread, including after
  /// the connection or the whole server has gone away (it becomes a
  /// no-op).
  class Responder {
   public:
    Responder() = default;
    void Send(HttpResponse response) const;
    bool valid() const { return reply_ != nullptr; }

   private:
    friend class HttpCodec;
    Responder(std::shared_ptr<Reply> reply, bool keep_alive)
        : reply_(std::move(reply)), keep_alive_(keep_alive) {}
    std::shared_ptr<Reply> reply_;
    bool keep_alive_ = true;
  };

  /// Application callback; runs on the reactor thread. Must not block.
  using HandlerFn = std::function<void(HttpRequest, Responder)>;

  explicit HttpServer(Options options);

  /// Binds, listens, and starts the reactor threads.
  Status Start(HandlerFn handler);

 private:
  HttpRequestParser::Limits parser_limits_;
  // Registered iff options.metrics != nullptr.
  observability::Counter* parse_errors_total_ = nullptr;
};

}  // namespace declsched::net

#endif  // DECLSCHED_NET_HTTP_SERVER_H_
