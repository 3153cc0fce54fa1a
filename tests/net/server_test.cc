// The shared connection layer under both codecs: listener topology per
// reactor count, and HTTP served by more than one reactor.

#include "net/server.h"

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/http_server.h"
#include "net/net_test_util.h"
#include "net/wire/binary_server.h"

namespace declsched::net {
namespace {

using testing::TestClient;

void Answer200(HttpRequest request, HttpServer::Responder responder) {
  responder.Send(
      HttpResponse::Json(200, "{\"path\":\"" + request.Path() + "\"}"));
}

void AnswerStats(wire::WireFrame, wire::BinaryServer::Responder responder) {
  responder.Send(wire::WireOp::kStatsOk, "{}");
}

TEST(ServerTest, OneReactorHttpServerRefusesAHeldPort) {
  HttpServer first(HttpServer::Options{});
  ASSERT_TRUE(first.Start(Answer200).ok());
  EXPECT_FALSE(first.reuseport_active());
  HttpServer::Options options;
  options.port = first.port();
  HttpServer second(options);
  EXPECT_FALSE(second.Start(Answer200).ok());
  // The holder is undisturbed.
  TestClient client(first.port());
  EXPECT_EQ(client.Get("/still-mine").status, 200);
}

TEST(ServerTest, OneReactorBinaryServerRefusesAHeldPort) {
  wire::BinaryServer first(wire::BinaryServer::Options{});
  ASSERT_TRUE(first.Start(AnswerStats).ok());
  EXPECT_FALSE(first.reuseport_active());
  wire::BinaryServer::Options options;
  options.port = first.port();
  wire::BinaryServer second(options);
  EXPECT_FALSE(second.Start(AnswerStats).ok());
  testing::WireClient client(first.port());
  client.Hello();
  client.SendFrame(wire::WireOp::kStats, 3, "");
  EXPECT_EQ(client.ReadFrame().op, wire::WireOp::kStatsOk);
}

TEST(ServerTest, MultiReactorServerRefusesAPortHeldByAPlainListener) {
  HttpServer first(HttpServer::Options{});
  ASSERT_TRUE(first.Start(Answer200).ok());
  wire::BinaryServer::Options options;
  options.port = first.port();
  options.reactor_threads = 2;
  wire::BinaryServer second(options);
  EXPECT_FALSE(second.Start(AnswerStats).ok());
}

TEST(ServerTest, HttpOnSeveralReactorsKeepsEachPipelineInOrder) {
  HttpServer::Options options;
  options.reactor_threads = 3;
  HttpServer server(options);
  ASSERT_TRUE(server.Start(Answer200).ok());
  EXPECT_TRUE(server.reuseport_active());
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int c = 0; c < 12; ++c) {
    clients.push_back(std::make_unique<TestClient>(server.port()));
    std::string wire;
    for (int i = 0; i < 4; ++i) {
      wire += "GET /c" + std::to_string(c) + "r" + std::to_string(i) +
              " HTTP/1.1\r\nHost: t\r\n\r\n";
    }
    clients.back()->SendRaw(wire);
  }
  for (int c = 0; c < 12; ++c) {
    for (int i = 0; i < 4; ++i) {
      const auto response = clients[static_cast<size_t>(c)]->ReadResponse();
      EXPECT_EQ(response.status, 200);
      const std::string path =
          "/c" + std::to_string(c) + "r" + std::to_string(i) + "\"";
      EXPECT_NE(response.body.find(path), std::string::npos) << response.body;
    }
  }
  int64_t accepted = 0;
  for (int r = 0; r < 3; ++r) accepted += server.accepted_by_reactor(r);
  EXPECT_EQ(accepted, 12);
  EXPECT_EQ(server.connections(), 12);
}

}  // namespace
}  // namespace declsched::net
