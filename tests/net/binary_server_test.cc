// End-to-end tests of the binary wire front door over real loopback
// sockets: handshake enforcement, pipelining, FINISH draining, the exact
// connection gauge, accept sharding on both topologies (SO_REUSEPORT and
// the fd-handoff fallback), parser-error frames, admission 429 mapping —
// and the transport-equivalence property: the same batch submitted as a
// wire SUBMIT and as HTTP JSON produces the identical scheduler dispatch
// outcome and identical acknowledgement counters.

#include "net/wire/binary_server.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "net/front_door.h"
#include "net/json.h"
#include "net/net_test_util.h"
#include "scheduler/protocol_library.h"

namespace declsched::net {
namespace {

using testing::WireClient;
using wire::AppendFrame;
using wire::WireFrame;
using wire::WireOp;

FrontDoor::Options BaseOptions(int reactors = 1) {
  FrontDoor::Options options;
  options.num_shards = 2;
  options.shard.protocol = scheduler::Ss2plNative();
  options.server.num_rows = 1000;
  wire::BinaryServer::Options binary;
  binary.reactor_threads = reactors;
  options.binary = binary;
  return options;
}

std::string SubmitBody(std::vector<std::vector<int64_t>> txn_objects,
                       int64_t tenant = 0) {
  wire::WireSubmit submit;
  submit.tenant = tenant;
  for (const std::vector<int64_t>& objects : txn_objects) {
    wire::WireTxn txn;
    for (const int64_t object : objects) {
      txn.ops.push_back(wire::WireOpEntry{true, object});
    }
    submit.txns.push_back(std::move(txn));
  }
  return wire::EncodeSubmitBody(submit);
}

/// The scheduler's dispatch log grouped into per-transaction (op, object)
/// sequences — the transport-independent outcome of a submission.
std::vector<std::vector<std::pair<txn::OpType, int64_t>>> DispatchOutcome(
    FrontDoor& door) {
  scheduler::RequestBatch dispatched = door.sched()->TakeDispatched();
  std::map<txn::TxnId, std::vector<std::pair<txn::OpType, int64_t>>> by_txn;
  for (const scheduler::Request& r : dispatched) {
    by_txn[r.ta].emplace_back(r.op, r.object);
  }
  std::vector<std::vector<std::pair<txn::OpType, int64_t>>> outcome;
  for (auto& [ta, ops] : by_txn) outcome.push_back(std::move(ops));
  std::sort(outcome.begin(), outcome.end());
  return outcome;
}

TEST(BinaryServerTest, HandshakeThenSubmitCommits) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  WireClient client(door.binary_port());
  ASSERT_TRUE(client.connected());
  client.Hello();

  client.SendFrame(WireOp::kSubmit, 7, SubmitBody({{3, 9}, {700}}));
  const WireFrame reply = client.ReadFrame();
  EXPECT_EQ(reply.op, WireOp::kSubmitOk);
  EXPECT_EQ(reply.request_id, 7u);
  wire::WireSubmitResult result;
  ASSERT_TRUE(wire::DecodeSubmitOkBody(reply.body, &result).ok());
  EXPECT_EQ(result.txns, 2);
  EXPECT_EQ(result.statements, 3);
  EXPECT_EQ(result.dispatched, 3 + 2);  // statements + one commit each
  EXPECT_EQ(door.inflight_statements(), 0);
  door.Shutdown();
}

TEST(BinaryServerTest, BinaryAndHttpProduceIdenticalSchedulerOutcomes) {
  // The same batch through each transport against a fresh stack: the
  // dispatch logs and acknowledgement counters must match exactly.
  const std::vector<std::vector<int64_t>> batch = {{3, 9, 17}, {700}, {5, 41}};

  FrontDoor::Options wire_options = BaseOptions();
  wire_options.keep_dispatch_log = true;
  FrontDoor wire_door(std::move(wire_options));
  ASSERT_TRUE(wire_door.Start().ok());
  WireClient wire_client(wire_door.binary_port());
  wire_client.Hello();
  wire_client.SendFrame(WireOp::kSubmit, 1, SubmitBody(batch, 1));
  const WireFrame reply = wire_client.ReadFrame();
  ASSERT_EQ(reply.op, WireOp::kSubmitOk);
  wire::WireSubmitResult wire_result;
  ASSERT_TRUE(wire::DecodeSubmitOkBody(reply.body, &wire_result).ok());
  const auto wire_outcome = DispatchOutcome(wire_door);
  wire_door.Shutdown();

  FrontDoor::Options http_options = BaseOptions();
  http_options.keep_dispatch_log = true;
  FrontDoor http_door(std::move(http_options));
  ASSERT_TRUE(http_door.Start().ok());
  testing::TestClient http_client(http_door.port());
  std::string json = R"({"tenant":1,"txns":[)";
  for (size_t t = 0; t < batch.size(); ++t) {
    if (t > 0) json += ',';
    json += R"({"ops":[)";
    for (size_t o = 0; o < batch[t].size(); ++o) {
      if (o > 0) json += ',';
      json += R"({"op":"write","object":)" + std::to_string(batch[t][o]) + "}";
    }
    json += "]}";
  }
  json += "]}";
  const auto http_response = http_client.Post("/v1/submit", json);
  ASSERT_EQ(http_response.status, 200) << http_response.body;
  Result<JsonValue> doc = JsonValue::Parse(http_response.body);
  ASSERT_TRUE(doc.ok());
  const auto http_outcome = DispatchOutcome(http_door);
  http_door.Shutdown();

  // Identical acknowledgement counters...
  EXPECT_EQ(wire_result.txns, doc.ValueOrDie().Get("txns")->AsInt64());
  EXPECT_EQ(wire_result.statements,
            doc.ValueOrDie().Get("statements")->AsInt64());
  EXPECT_EQ(wire_result.dispatched,
            doc.ValueOrDie().Get("dispatched")->AsInt64());
  // ...and the identical dispatched (op, object) sequences per transaction.
  EXPECT_EQ(wire_outcome, http_outcome);
  ASSERT_FALSE(wire_outcome.empty());
}

TEST(BinaryServerTest, PipelinedRequestsAnswerEveryIdExactlyOnce) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  WireClient client(door.binary_port());
  client.Hello();

  // Fire a burst without reading a single reply, then collect: every id
  // answered exactly once, order irrelevant.
  constexpr int kRequests = 32;
  for (int i = 0; i < kRequests; ++i) {
    client.SendFrame(WireOp::kSubmit, 1000 + static_cast<uint64_t>(i),
                     SubmitBody({{(i * 13) % 900, (i * 13) % 900 + 50}}));
  }
  std::map<uint64_t, int> answered;
  for (int i = 0; i < kRequests; ++i) {
    const WireFrame reply = client.ReadFrame();
    EXPECT_EQ(reply.op, WireOp::kSubmitOk);
    ++answered[reply.request_id];
  }
  EXPECT_EQ(answered.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, count] : answered) {
    EXPECT_EQ(count, 1) << "request id " << id;
    EXPECT_GE(id, 1000u);
  }
  EXPECT_EQ(door.inflight_statements(), 0);
  door.Shutdown();
}

TEST(BinaryServerTest, FinishDrainsOutstandingThenCloses) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  WireClient client(door.binary_port());
  client.Hello();

  client.SendFrame(WireOp::kSubmit, 1, SubmitBody({{10, 20}}));
  client.SendFrame(WireOp::kFinish, 2, "");
  // FINISH_OK must come after the outstanding SUBMIT's answer, flagged
  // close-after, and then the server closes.
  const WireFrame first = client.ReadFrame();
  EXPECT_EQ(first.op, WireOp::kSubmitOk);
  EXPECT_EQ(first.request_id, 1u);
  const WireFrame second = client.ReadFrame();
  EXPECT_EQ(second.op, WireOp::kFinishOk);
  EXPECT_EQ(second.request_id, 2u);
  EXPECT_NE(second.flags & wire::kFlagCloseAfter, 0);
  EXPECT_TRUE(client.WaitForClose());
  door.Shutdown();
}

TEST(BinaryServerTest, ConnectionGaugeIsExact) {
  FrontDoor door(BaseOptions(2));
  ASSERT_TRUE(door.Start().ok());
  {
    std::vector<std::unique_ptr<WireClient>> clients;
    for (int i = 0; i < 8; ++i) {
      clients.push_back(std::make_unique<WireClient>(door.binary_port()));
      clients.back()->Hello();
    }
    EXPECT_EQ(door.binary_server()->connections(), 8);
    EXPECT_EQ(door.metrics().Value("wire_connections_open"), 8);
  }
  // All clients closed: the gauge must return to exactly zero.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (door.binary_server()->connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(door.binary_server()->connections(), 0);
  EXPECT_EQ(door.metrics().Value("wire_connections_open"), 0);
  door.Shutdown();
}

TEST(BinaryServerTest, AcceptShardingCoversAllConnections) {
  // SO_REUSEPORT topology: every accepted connection is owned by exactly
  // one reactor and the per-reactor accept counters reconcile.
  FrontDoor door(BaseOptions(2));
  ASSERT_TRUE(door.Start().ok());
  ASSERT_TRUE(door.binary_server()->reuseport_active());
  {
    std::vector<std::unique_ptr<WireClient>> clients;
    for (int i = 0; i < 16; ++i) {
      clients.push_back(std::make_unique<WireClient>(door.binary_port()));
      clients.back()->Hello();
    }
    int64_t accepted = 0;
    for (int r = 0; r < 2; ++r) {
      accepted += door.binary_server()->accepted_by_reactor(r);
    }
    EXPECT_EQ(accepted, 16);
  }
  door.Shutdown();
}

TEST(BinaryServerTest, FallbackAcceptHandsConnectionsAcrossReactors) {
  // Forced fd-handoff: reactor 0 owns the single listener and distributes
  // round-robin; submissions still work end to end on every reactor.
  FrontDoor::Options options = BaseOptions(3);
  options.binary->force_fallback_accept = true;
  FrontDoor door(std::move(options));
  ASSERT_TRUE(door.Start().ok());
  ASSERT_FALSE(door.binary_server()->reuseport_active());

  std::vector<std::unique_ptr<WireClient>> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(std::make_unique<WireClient>(door.binary_port()));
    clients.back()->Hello();
    clients.back()->SendFrame(WireOp::kSubmit, 1,
                              SubmitBody({{i * 10, i * 10 + 5}}));
    const WireFrame reply = clients.back()->ReadFrame();
    EXPECT_EQ(reply.op, WireOp::kSubmitOk);
  }
  // Ownership is attributed to the adopting reactor: round-robin handoff
  // spreads 6 connections as 2 per reactor, and the counters reconcile.
  int64_t owned = 0;
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(door.binary_server()->accepted_by_reactor(r), 2) << r;
    owned += door.binary_server()->accepted_by_reactor(r);
  }
  EXPECT_EQ(owned, 6);
  EXPECT_EQ(door.binary_server()->connections(), 6);
  door.Shutdown();
}

TEST(BinaryServerTest, HandshakeViolationsGetTypedErrorsAndClose) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  {
    // First frame not HELLO.
    WireClient client(door.binary_port());
    client.SendFrame(WireOp::kSubmit, 1, SubmitBody({{1}}));
    const WireFrame reply = client.ReadFrame();
    EXPECT_EQ(reply.op, WireOp::kError);
    wire::WireError error;
    ASSERT_TRUE(wire::DecodeErrorBody(reply.body, &error).ok());
    EXPECT_EQ(error.code, 400);
    EXPECT_TRUE(client.WaitForClose());
  }
  {
    // Wrong protocol version.
    WireClient client(door.binary_port());
    client.SendFrame(WireOp::kHello, 0,
                     wire::EncodeHelloBody(wire::kWireMagic, 99));
    const WireFrame reply = client.ReadFrame();
    EXPECT_EQ(reply.op, WireOp::kError);
    wire::WireError error;
    ASSERT_TRUE(wire::DecodeErrorBody(reply.body, &error).ok());
    EXPECT_EQ(error.code, 505);
    EXPECT_TRUE(client.WaitForClose());
  }
  {
    // Bad magic.
    WireClient client(door.binary_port());
    client.SendFrame(WireOp::kHello, 0, wire::EncodeHelloBody(0x12345678));
    const WireFrame reply = client.ReadFrame();
    EXPECT_EQ(reply.op, WireOp::kError);
    wire::WireError error;
    ASSERT_TRUE(wire::DecodeErrorBody(reply.body, &error).ok());
    EXPECT_EQ(error.code, 400);
    EXPECT_TRUE(client.WaitForClose());
  }
  door.Shutdown();
}

TEST(BinaryServerTest, GarbageBytesGetAParserErrorFrame) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  WireClient client(door.binary_port());
  client.Hello();

  // A healthy exchange first, then a CRC-corrupted frame: the server must
  // answer with a typed ERROR frame and close, never hang or crash.
  client.SendFrame(WireOp::kStats, 1, "");
  EXPECT_EQ(client.ReadFrame().op, WireOp::kStatsOk);
  std::string corrupt;
  AppendFrame(&corrupt, WireOp::kSubmit, 0, 6, "payload");
  corrupt[corrupt.size() - 2] ^= 0x10;
  client.SendRaw(corrupt);
  const WireFrame reply = client.ReadFrame();
  EXPECT_EQ(reply.op, WireOp::kError);
  wire::WireError error;
  ASSERT_TRUE(wire::DecodeErrorBody(reply.body, &error).ok());
  EXPECT_EQ(error.code, 400);
  EXPECT_TRUE(client.WaitForClose());
  door.Shutdown();
}

TEST(BinaryServerTest, AdmissionCapMapsTo429WithRetryAfter) {
  FrontDoor::Options options = BaseOptions();
  options.max_inflight_statements = 1;  // admit nothing beyond a sliver
  options.retry_after_seconds = 3;
  FrontDoor door(std::move(options));
  ASSERT_TRUE(door.Start().ok());
  WireClient client(door.binary_port());
  client.Hello();

  // A batch bigger than the in-flight cap: rejected up front with the
  // admission semantics HTTP expresses as 429 + Retry-After.
  client.SendFrame(WireOp::kSubmit, 9, SubmitBody({{1, 2}, {3, 4}}));
  const WireFrame reply = client.ReadFrame();
  EXPECT_EQ(reply.op, WireOp::kError);
  EXPECT_EQ(reply.request_id, 9u);
  wire::WireError error;
  ASSERT_TRUE(wire::DecodeErrorBody(reply.body, &error).ok());
  EXPECT_EQ(error.code, 429);
  EXPECT_EQ(error.retry_after_seconds, 3);
  EXPECT_EQ(door.inflight_statements(), 0);
  door.Shutdown();
}

TEST(BinaryServerTest, StatsAndExplainAnswerOverTheWire) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  WireClient client(door.binary_port());
  client.Hello();

  client.SendFrame(WireOp::kStats, 11, "");
  const WireFrame stats = client.ReadFrame();
  EXPECT_EQ(stats.op, WireOp::kStatsOk);
  EXPECT_EQ(stats.request_id, 11u);
  Result<JsonValue> doc = JsonValue::Parse(stats.body);
  ASSERT_TRUE(doc.ok()) << stats.body;
  EXPECT_EQ(doc.ValueOrDie().Get("shards")->AsInt64(), 2);

  client.SendFrame(WireOp::kExplain, 12, wire::EncodeNameBody("ss2pl-native"));
  const WireFrame explain = client.ReadFrame();
  EXPECT_EQ(explain.op, WireOp::kExplainOk);
  EXPECT_FALSE(explain.body.empty());

  client.SendFrame(WireOp::kExplain, 13, wire::EncodeNameBody("nope"));
  const WireFrame missing = client.ReadFrame();
  EXPECT_EQ(missing.op, WireOp::kError);
  wire::WireError error;
  ASSERT_TRUE(wire::DecodeErrorBody(missing.body, &error).ok());
  EXPECT_EQ(error.code, 404);
  door.Shutdown();
}

}  // namespace
}  // namespace declsched::net
