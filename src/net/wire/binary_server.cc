#include "net/wire/binary_server.h"

#include "common/string_util.h"

namespace declsched::net::wire {

namespace {

std::string Frame(WireOp op, uint8_t flags, uint64_t request_id,
                  std::string_view body) {
  std::string frame;
  frame.reserve(kFramePrefixBytes + kFrameHeaderBytes + body.size());
  AppendFrame(&frame, op, flags, request_id, body);
  return frame;
}

}  // namespace

/// One connection's wire state: the frame parser, the HELLO gate, and a
/// pending FINISH.
class WireServerCodec final : public Server::Codec {
 public:
  WireServerCodec(FrameParser::Limits limits,
                  observability::Counter* frame_errors,
                  BinaryServer::HandlerFn handler)
      : parser_(limits),
        frame_errors_(frame_errors),
        handler_(std::move(handler)) {}

  void Feed(std::string_view bytes) override { parser_.Feed(bytes); }

  bool Next(Server::Connection& conn) override {
    WireFrame frame;
    const FrameParser::Outcome outcome = parser_.Next(&frame);
    if (outcome == FrameParser::Outcome::kNeedMore) return false;
    if (outcome == FrameParser::Outcome::kError) {
      if (frame_errors_ != nullptr) frame_errors_->Increment();
      const uint16_t code =
          parser_.error() == FrameParser::Error::kOversized ? 413 : 400;
      Fail(conn, 0, code, parser_.error_message());
      return false;
    }

    if (!hello_done_) {
      uint32_t magic = 0;
      uint16_t version = 0;
      if (frame.op != WireOp::kHello) {
        Fail(conn, frame.request_id, 400, "first frame must be HELLO");
      } else if (!DecodeHelloBody(frame.body, &magic, &version).ok() ||
                 magic != kWireMagic) {
        Fail(conn, frame.request_id, 400, "bad HELLO magic");
      } else if (version != kWireVersion) {
        Fail(conn, frame.request_id, 505,
             StrFormat("unsupported wire version %u (server speaks %u)",
                       version, kWireVersion));
      } else {
        hello_done_ = true;
        conn.Write(Frame(WireOp::kHelloOk, 0, frame.request_id,
                         EncodeHelloOkBody()));
      }
      return true;
    }

    switch (frame.op) {
      case WireOp::kSubmit:
      case WireOp::kStats:
      case WireOp::kExplain: {
        const uint64_t request_id = frame.request_id;
        // The handler may answer inline, which re-enters Complete.
        handler_(std::move(frame),
                 BinaryServer::Responder(conn.NewReply(request_id)));
        return true;
      }
      case WireOp::kFinish:
        finish_requested_ = true;
        finish_request_id_ = frame.request_id;
        MaybeFinish(conn);
        return true;
      default:
        Fail(conn, frame.request_id, 400,
             IsKnownWireOp(static_cast<uint8_t>(frame.op))
                 ? StrFormat("unexpected %s frame", WireOpName(frame.op))
                 : StrFormat("unknown op %u",
                             static_cast<unsigned>(frame.op)));
        return true;
    }
  }

  void Complete(Server::Connection& conn, uint64_t request_id,
                std::string bytes) override {
    if (bytes.empty()) {
      bytes = Frame(WireOp::kError, 0, request_id,
                    EncodeErrorBody({500, 0, "handler dropped request"}));
    }
    conn.Write(bytes);
    MaybeFinish(conn);
  }

 private:
  /// Typed ERROR frame, then close.
  void Fail(Server::Connection& conn, uint64_t request_id, uint16_t code,
            std::string message) {
    conn.Write(Frame(WireOp::kError, kFlagCloseAfter, request_id,
                     EncodeErrorBody({code, 0, std::move(message)})));
    conn.CloseAfterFlush();
  }

  /// FINISH drains: FINISH_OK once every outstanding request is answered.
  void MaybeFinish(Server::Connection& conn) {
    if (!finish_requested_ || conn.outstanding() > 0) return;
    finish_requested_ = false;
    conn.Write(Frame(WireOp::kFinishOk, kFlagCloseAfter, finish_request_id_,
                     std::string_view()));
    conn.CloseAfterFlush();
  }

  FrameParser parser_;
  observability::Counter* frame_errors_;
  BinaryServer::HandlerFn handler_;
  bool hello_done_ = false;
  bool finish_requested_ = false;
  uint64_t finish_request_id_ = 0;
};

void BinaryServer::Responder::Send(WireOp op, std::string body,
                                   uint8_t flags) const {
  if (reply_ != nullptr) {
    reply_->Send(Frame(op, flags, reply_->token(), body),
                 (flags & kFlagCloseAfter) != 0);
  }
}

void BinaryServer::Responder::SendError(const WireError& error,
                                        bool close_connection) const {
  Send(WireOp::kError, EncodeErrorBody(error),
       close_connection ? kFlagCloseAfter : 0);
}

BinaryServer::BinaryServer(Options options)
    : Server(options,
             Transport{"wire", "wire",
                       Frame(WireOp::kError, kFlagCloseAfter, 0,
                             EncodeErrorBody(
                                 {503, 1, "connection limit reached"}))}),
      parser_limits_(options.parser_limits) {
  if (options.metrics != nullptr) {
    frame_errors_total_ = options.metrics->GetCounter(
        "wire_frame_errors_total",
        "Wire connections dropped for malformed frames");
  }
}

Status BinaryServer::Start(HandlerFn handler) {
  return Server::Start([limits = parser_limits_, errors = frame_errors_total_,
                        handler = std::move(handler)] {
    return std::make_unique<WireServerCodec>(limits, errors, handler);
  });
}

}  // namespace declsched::net::wire
