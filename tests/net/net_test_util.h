// Test-side blocking clients: one keep-alive connection to a local port,
// synchronous request/response, over HTTP (TestClient) or the binary wire
// protocol (WireClient). Small on purpose — the production client half
// (nonblocking, multiplexed) lives in src/net/loadgen.cc.

#ifndef DECLSCHED_TESTS_NET_NET_TEST_UTIL_H_
#define DECLSCHED_TESTS_NET_NET_TEST_UTIL_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>

#include "gtest/gtest.h"
#include "net/http.h"
#include "net/wire/wire_codec.h"

namespace declsched::net::testing {

class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    EXPECT_TRUE(connected_);
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool connected() const { return connected_; }
  /// Raw socket, for tests that speak something other than HTTP on it
  /// (the wire-protocol client wraps this).
  int fd() const { return fd_; }

  /// Sends raw bytes on the connection.
  void SendRaw(const std::string& wire) {
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::write(fd_, wire.data() + off, wire.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads one complete response (blocking).
  HttpResponseParser::Response ReadResponse() {
    HttpResponseParser::Response response;
    char buf[16 * 1024];
    while (true) {
      const HttpResponseParser::Outcome outcome = parser_.Next(&response);
      if (outcome == HttpResponseParser::Outcome::kResponse) return response;
      EXPECT_NE(outcome, HttpResponseParser::Outcome::kError)
          << parser_.error_message();
      if (outcome == HttpResponseParser::Outcome::kError) return response;
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      EXPECT_GT(n, 0) << "peer closed mid-response";
      if (n <= 0) return response;
      parser_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  /// One full request/response exchange.
  HttpResponseParser::Response Request(const std::string& method,
                                       const std::string& target,
                                       const std::string& body = "") {
    std::string wire = method + " " + target +
                       " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body;
    SendRaw(wire);
    return ReadResponse();
  }

  HttpResponseParser::Response Get(const std::string& target) {
    return Request("GET", target);
  }
  HttpResponseParser::Response Post(const std::string& target,
                                    const std::string& body) {
    return Request("POST", target, body);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  HttpResponseParser parser_;
};

/// Blocking wire-protocol client for tests: send frames, pull replies.
class WireClient {
 public:
  explicit WireClient(uint16_t port) : tcp_(port) {}

  bool connected() const { return tcp_.connected(); }

  void SendFrame(wire::WireOp op, uint64_t request_id, const std::string& body,
                 uint8_t flags = 0) {
    std::string wire;
    wire::AppendFrame(&wire, op, flags, request_id, body);
    tcp_.SendRaw(wire);
  }

  /// Sends arbitrary bytes — corruption tests bypass the encoder.
  void SendRaw(const std::string& wire) { tcp_.SendRaw(wire); }

  /// Performs the handshake and checks the HELLO_OK reply.
  void Hello() {
    SendFrame(wire::WireOp::kHello, 0, wire::EncodeHelloBody());
    const wire::WireFrame reply = ReadFrame();
    ASSERT_EQ(reply.op, wire::WireOp::kHelloOk);
  }

  /// Reads one complete frame (blocking; fails the test on close/garbage).
  wire::WireFrame ReadFrame() {
    wire::WireFrame frame;
    char buf[16 * 1024];
    while (true) {
      const wire::FrameParser::Outcome outcome = parser_.Next(&frame);
      if (outcome == wire::FrameParser::Outcome::kFrame) return frame;
      EXPECT_NE(outcome, wire::FrameParser::Outcome::kError)
          << parser_.error_message();
      if (outcome == wire::FrameParser::Outcome::kError) return frame;
      const ssize_t n = ::read(fd(), buf, sizeof(buf));
      EXPECT_GT(n, 0) << "peer closed mid-frame";
      if (n <= 0) return frame;
      parser_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  /// True when the peer has closed the connection (EOF within timeout).
  bool WaitForClose(int timeout_ms = 2000) {
    pollfd pfd{fd(), POLLIN, 0};
    char buf[1024];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (::poll(&pfd, 1, 50) <= 0) continue;
      const ssize_t n = ::read(fd(), buf, sizeof(buf));
      if (n == 0) return true;
      if (n < 0) return true;
      parser_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
    return false;
  }

 private:
  int fd() const { return tcp_.fd(); }

  TestClient tcp_;
  wire::FrameParser parser_;
};

}  // namespace declsched::net::testing

#endif  // DECLSCHED_TESTS_NET_NET_TEST_UTIL_H_
