// Binary wire-protocol server: the wire codec on the shared multi-reactor
// connection layer (net/server.h).
//
// Responses need no ordering — the wire protocol's request ids let
// clients pipeline and match replies out of order, so each reply is
// written as soon as it completes, with no head-of-line wait.
//
// The codec speaks the connection-level half of the protocol itself:
// HELLO handshake enforcement (magic + version, 505 on mismatch), FINISH
// draining (reply FINISH_OK once every outstanding request on the
// connection has been answered, then close), frame-parser errors (typed
// ERROR frame, then close), and the global connection cap (best-effort
// 503 ERROR frame on the fresh socket, then close). Application ops
// (SUBMIT / STATS / EXPLAIN) go to the registered handler.

#ifndef DECLSCHED_NET_WIRE_BINARY_SERVER_H_
#define DECLSCHED_NET_WIRE_BINARY_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/server.h"
#include "net/wire/wire_codec.h"

namespace declsched::net::wire {

class BinaryServer : public Server {
 public:
  struct Options : Server::Options {
    FrameParser::Limits parser_limits;
  };

  /// Completion handle for one request frame. Copyable; the first Send
  /// wins. Dropping every copy without sending delivers a 500 ERROR frame
  /// so a lost handler can never wedge a client waiting on its request id.
  /// Send is thread-safe and callable from any thread, including after the
  /// connection or server has gone away (it becomes a no-op).
  class Responder {
   public:
    Responder() = default;
    /// Sends one response frame with the request's id.
    void Send(WireOp op, std::string body, uint8_t flags = 0) const;
    void SendError(const WireError& error, bool close_connection = false) const;
    bool valid() const { return reply_ != nullptr; }

   private:
    friend class WireServerCodec;
    explicit Responder(std::shared_ptr<Reply> reply)
        : reply_(std::move(reply)) {}
    std::shared_ptr<Reply> reply_;
  };

  /// Application callback for SUBMIT / STATS / EXPLAIN frames; runs on the
  /// owning reactor thread and must not block.
  using HandlerFn = std::function<void(WireFrame, Responder)>;

  explicit BinaryServer(Options options);

  /// Binds (one listener per reactor under REUSEPORT), listens, and starts
  /// every reactor thread.
  Status Start(HandlerFn handler);

 private:
  FrameParser::Limits parser_limits_;
  // Registered iff options.metrics != nullptr.
  observability::Counter* frame_errors_total_ = nullptr;
};

}  // namespace declsched::net::wire

#endif  // DECLSCHED_NET_WIRE_BINARY_SERVER_H_
