#include "net/http_server.h"

#include <deque>
#include <string>

namespace declsched::net {

/// One connection's HTTP state: the request parser and the in-arrival-order
/// response slots.
class HttpCodec final : public Server::Codec {
 public:
  HttpCodec(HttpRequestParser::Limits limits,
            observability::Counter* parse_errors, HttpServer::HandlerFn handler)
      : parser_(limits),
        parse_errors_(parse_errors),
        handler_(std::move(handler)) {}

  void Feed(std::string_view bytes) override { parser_.Feed(bytes); }

  bool Next(Server::Connection& conn) override {
    if (closing_) return false;
    HttpRequest request;
    const HttpRequestParser::Outcome outcome = parser_.Next(&request);
    if (outcome == HttpRequestParser::Outcome::kNeedMore) return false;
    if (outcome == HttpRequestParser::Outcome::kError) {
      if (parse_errors_ != nullptr) parse_errors_->Increment();
      closing_ = true;
      slots_.push_back(Slot{next_seq_++, /*done=*/true, /*keep_alive=*/false,
                            HttpResponse::Error(parser_.error_status(),
                                                "bad_request",
                                                parser_.error_message())
                                .Serialize(/*keep_alive=*/false)});
      WriteReadySlots(conn);
      return false;
    }
    const uint64_t seq = next_seq_++;
    const bool keep_alive = request.keep_alive;
    closing_ = !keep_alive;
    slots_.push_back(Slot{seq, false, keep_alive, {}});
    // The handler may answer inline, which re-enters Complete.
    handler_(std::move(request),
             HttpServer::Responder(conn.NewReply(seq), keep_alive));
    return true;
  }

  void Complete(Server::Connection& conn, uint64_t seq,
                std::string bytes) override {
    // Slots are consecutive from the front, so the seq indexes the queue.
    if (slots_.empty() || seq < slots_.front().seq) return;
    const uint64_t index = seq - slots_.front().seq;
    if (index >= slots_.size()) return;
    Slot& slot = slots_[index];
    slot.done = true;
    slot.wire = bytes.empty()
                    ? HttpResponse::Error(500, "internal",
                                          "handler dropped request")
                          .Serialize(slot.keep_alive)
                    : std::move(bytes);
    WriteReadySlots(conn);
  }

 private:
  struct Slot {
    uint64_t seq = 0;
    bool done = false;
    bool keep_alive = true;
    std::string wire;  ///< serialized response, valid when done
  };

  /// Moves completed slots, in order, to the output; the last response of
  /// a closing connection closes it once written.
  void WriteReadySlots(Server::Connection& conn) {
    while (!slots_.empty() && slots_.front().done) {
      conn.Write(slots_.front().wire);
      if (!slots_.front().keep_alive) conn.CloseAfterFlush();
      slots_.pop_front();
    }
  }

  HttpRequestParser parser_;
  observability::Counter* parse_errors_;
  HttpServer::HandlerFn handler_;
  std::deque<Slot> slots_;
  uint64_t next_seq_ = 0;
  /// Parse error or `Connection: close`: decode nothing more.
  bool closing_ = false;
};

void HttpServer::Responder::Send(HttpResponse response) const {
  if (reply_ != nullptr) reply_->Send(response.Serialize(keep_alive_));
}

HttpServer::HttpServer(Options options)
    : Server(options,
             Transport{"net", "HTTP",
                       HttpResponse::Error(503, "overloaded",
                                           "connection limit reached")
                           .Serialize(/*keep_alive=*/false)}),
      parser_limits_(options.parser_limits) {
  if (options.metrics != nullptr) {
    parse_errors_total_ = options.metrics->GetCounter(
        "net_http_parse_errors_total", "Requests rejected by the HTTP parser");
  }
}

Status HttpServer::Start(HandlerFn handler) {
  return Server::Start([limits = parser_limits_, errors = parse_errors_total_,
                        handler = std::move(handler)] {
    return std::make_unique<HttpCodec>(limits, errors, handler);
  });
}

}  // namespace declsched::net
