// HttpServer behavior over real loopback sockets: pipelined response
// ordering, deferred responders, parser-error responses, the connection
// cap, the exact connection gauge, and dropped-responder recovery.

#include "net/http_server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/net_test_util.h"
#include "observability/metrics.h"

namespace declsched::net {
namespace {

using testing::TestClient;

/// Starts a server whose handler echoes the request target in the body.
class EchoServerTest : public ::testing::Test {
 protected:
  void StartEcho(HttpServer::Options options = {}) {
    server_ = std::make_unique<HttpServer>(options);
    ASSERT_TRUE(server_
                    ->Start([](HttpRequest request,
                               HttpServer::Responder responder) {
                      responder.Send(HttpResponse::Json(
                          200, "{\"path\":\"" + request.Path() + "\"}"));
                    })
                    .ok());
  }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(EchoServerTest, ServesKeepAliveSequence) {
  StartEcho();
  TestClient client(server_->port());
  for (int i = 0; i < 5; ++i) {
    const auto response = client.Get("/r" + std::to_string(i));
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("/r" + std::to_string(i)), std::string::npos);
    EXPECT_TRUE(response.keep_alive);
  }
  EXPECT_EQ(server_->connections(), 1);
  server_->Shutdown();
}

TEST_F(EchoServerTest, PipelinedRequestsAnswerInOrder) {
  StartEcho();
  TestClient client(server_->port());
  std::string wire;
  for (int i = 0; i < 8; ++i) {
    wire += "GET /p" + std::to_string(i) + " HTTP/1.1\r\nHost: t\r\n\r\n";
  }
  client.SendRaw(wire);
  for (int i = 0; i < 8; ++i) {
    const auto response = client.ReadResponse();
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("/p" + std::to_string(i)), std::string::npos)
        << "response " << i << " out of order: " << response.body;
  }
  server_->Shutdown();
}

TEST(HttpServerTest, DeferredResponsesKeepPipelineOrder) {
  // The handler completes request 0 *after* request 1: the server must
  // still deliver them in arrival order on the wire.
  HttpServer server(HttpServer::Options{});
  std::vector<HttpServer::Responder> held;
  std::atomic<int> seen{0};
  ASSERT_TRUE(server
                  .Start([&held, &seen](HttpRequest request,
                                        HttpServer::Responder responder) {
                    if (request.Path() == "/defer") {
                      held.push_back(responder);  // answer later
                    } else {
                      responder.Send(
                          HttpResponse::Json(200, "{\"now\":true}"));
                    }
                    seen.fetch_add(1, std::memory_order_release);
                  })
                  .ok());
  TestClient client(server.port());
  client.SendRaw(
      "GET /defer HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /now HTTP/1.1\r\nHost: t\r\n\r\n");
  // Let both requests reach the handler, then complete the deferred one
  // from another thread. The acquire pairs with the handler's release, so
  // `held` is safely visible here.
  while (seen.load(std::memory_order_acquire) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(held.size(), 1u);
  std::thread completer([&held] {
    held.front().Send(HttpResponse::Json(200, "{\"deferred\":true}"));
  });
  const auto first = client.ReadResponse();
  const auto second = client.ReadResponse();
  completer.join();
  EXPECT_NE(first.body.find("deferred"), std::string::npos);
  EXPECT_NE(second.body.find("now"), std::string::npos);
  held.clear();
  server.Shutdown();
}

TEST(HttpServerTest, DroppedResponderYields500) {
  HttpServer server(HttpServer::Options{});
  ASSERT_TRUE(server
                  .Start([](HttpRequest, HttpServer::Responder) {
                    // Responder dropped without Send: auto-500.
                  })
                  .ok());
  TestClient client(server.port());
  const auto response = client.Get("/whatever");
  EXPECT_EQ(response.status, 500);
  // The connection survives; the next request still works (and 500s again).
  EXPECT_EQ(client.Get("/again").status, 500);
  server.Shutdown();
}

TEST(HttpServerTest, ParseErrorAnswersAndCloses) {
  HttpServer::Options options;
  options.parser_limits.max_header_bytes = 256;
  HttpServer server(options);
  ASSERT_TRUE(server
                  .Start([](HttpRequest, HttpServer::Responder responder) {
                    responder.Send(HttpResponse::Json(200, "{}"));
                  })
                  .ok());
  TestClient client(server.port());
  client.SendRaw("GET /x HTTP/1.1\r\nX-Big: " + std::string(600, 'a') +
                 "\r\n\r\n");
  const auto response = client.ReadResponse();
  EXPECT_EQ(response.status, 431);
  EXPECT_FALSE(response.keep_alive);
  server.Shutdown();
}

TEST(HttpServerTest, ConnectionCapAnswers503) {
  HttpServer::Options options;
  options.max_connections = 2;
  HttpServer server(options);
  ASSERT_TRUE(server
                  .Start([](HttpRequest, HttpServer::Responder responder) {
                    responder.Send(HttpResponse::Json(200, "{}"));
                  })
                  .ok());
  TestClient a(server.port());
  TestClient b(server.port());
  // Make sure both connections are established server-side first.
  EXPECT_EQ(a.Get("/1").status, 200);
  EXPECT_EQ(b.Get("/2").status, 200);
  TestClient c(server.port());
  const auto refused = c.ReadResponse();  // best-effort 503, then close
  EXPECT_EQ(refused.status, 503);
  // Existing connections keep working.
  EXPECT_EQ(a.Get("/3").status, 200);
  server.Shutdown();
}

TEST(HttpServerTest, ManyConcurrentConnections) {
  HttpServer server(HttpServer::Options{});
  std::atomic<int> handled{0};
  ASSERT_TRUE(server
                  .Start([&handled](HttpRequest,
                                    HttpServer::Responder responder) {
                    handled.fetch_add(1);
                    responder.Send(HttpResponse::Json(200, "{}"));
                  })
                  .ok());
  constexpr int kConns = 64;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < kConns; ++i) {
    clients.push_back(std::make_unique<TestClient>(server.port()));
  }
  for (auto& client : clients) {
    EXPECT_EQ(client->Get("/c").status, 200);
  }
  EXPECT_EQ(handled.load(), kConns);
  EXPECT_EQ(server.connections(), kConns);
  server.Shutdown();
}

TEST(HttpServerTest, ConnectionGaugeIsExact) {
  observability::MetricsRegistry metrics;
  HttpServer::Options options;
  options.metrics = &metrics;
  HttpServer server(options);
  ASSERT_TRUE(server
                  .Start([](HttpRequest, HttpServer::Responder responder) {
                    responder.Send(HttpResponse::Json(200, "{}"));
                  })
                  .ok());
  {
    std::vector<std::unique_ptr<TestClient>> clients;
    for (int i = 0; i < 8; ++i) {
      clients.push_back(std::make_unique<TestClient>(server.port()));
      // One exchange per socket: the server has adopted it by the reply.
      EXPECT_EQ(clients.back()->Get("/g").status, 200);
    }
    EXPECT_EQ(server.connections(), 8);
    EXPECT_EQ(metrics.Value("net_connections_open"), 8);
  }
  // All clients closed: the gauge must return to exactly zero.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.connections(), 0);
  EXPECT_EQ(metrics.Value("net_connections_open"), 0);
  server.Shutdown();
}

TEST(HttpServerTest, ShutdownWithoutStartIsSafe) {
  HttpServer server(HttpServer::Options{});
  server.Shutdown();  // no-op
}

}  // namespace
}  // namespace declsched::net
