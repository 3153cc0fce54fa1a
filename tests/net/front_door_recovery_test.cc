// Front-door recovery mode over real sockets: while Init() replays the
// log the servers are up but answer 503 "recovering" (with Retry-After) to
// everything except /metrics, on both transports, then flip atomically to
// ready; and a graceful Shutdown() writes a clean-shutdown checkpoint so
// the next start replays nothing.

#include "net/front_door.h"

#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "net/net_test_util.h"
#include "scheduler/protocol_library.h"
#include "test_util.h"

namespace declsched::net {
namespace {

using ::declsched::testing::ScopedTempDir;
using testing::TestClient;
using testing::WireClient;

FrontDoor::Options DurableOptions(const std::string& dir) {
  FrontDoor::Options options;
  options.num_shards = 2;
  options.shard.protocol = scheduler::Ss2plNative();
  options.server.num_rows = 1000;
  options.durability.enabled = true;
  options.durability.dir = dir;
  return options;
}

TEST(FrontDoorRecoveryTest, RecoveringModeGates503ThenFlipsToReady) {
  const ScopedTempDir dir("front_door_recovery_test");
  FrontDoor::Options options = DurableOptions(dir);
  options.binary = wire::BinaryServer::Options{};
  // The barrier runs inside Start() as soon as the listeners are up, before
  // recovery — the exact window clients can observe on a restart.
  bool probed = false;
  FrontDoor* door_ptr = nullptr;
  options.recovery_barrier_for_test = [&]() {
    TestClient client(door_ptr->port());
    const auto health = client.Get("/healthz");
    EXPECT_EQ(health.status, 503);
    EXPECT_NE(health.body.find("recovering"), std::string::npos)
        << health.body;
    ASSERT_NE(health.Header("Retry-After"), nullptr);
    const auto submit = client.Post(
        "/v1/submit", R"({"txns":[{"ops":[{"op":"write","object":1}]}]})");
    EXPECT_EQ(submit.status, 503) << submit.body;
    ASSERT_NE(submit.Header("Retry-After"), nullptr);
    // Metrics stay scrapeable during replay.
    EXPECT_EQ(client.Get("/metrics").status, 200);
    // The wire transport is gated the same way: a typed 503 ERROR frame.
    WireClient wire_client(door_ptr->binary_port());
    wire_client.Hello();
    wire::WireSubmit batch;
    batch.txns.push_back(wire::WireTxn{{wire::WireOpEntry{true, 1}}});
    wire_client.SendFrame(wire::WireOp::kSubmit, 5,
                          wire::EncodeSubmitBody(batch));
    const wire::WireFrame reply = wire_client.ReadFrame();
    EXPECT_EQ(reply.op, wire::WireOp::kError);
    EXPECT_EQ(reply.request_id, 5u);
    wire::WireError error;
    ASSERT_TRUE(wire::DecodeErrorBody(reply.body, &error).ok());
    EXPECT_EQ(error.code, 503);
    EXPECT_GT(error.retry_after_seconds, 0);
    probed = true;
  };
  FrontDoor door(std::move(options));
  door_ptr = &door;
  ASSERT_TRUE(door.Start().ok());
  ASSERT_TRUE(probed);

  // Atomically ready: the same endpoints now serve.
  TestClient client(door.port());
  EXPECT_EQ(client.Get("/healthz").status, 200);
  const auto submit = client.Post(
      "/v1/submit", R"({"txns":[{"ops":[{"op":"write","object":1}]}]})");
  EXPECT_EQ(submit.status, 200) << submit.body;
  door.Shutdown();
}

TEST(FrontDoorRecoveryTest, CleanShutdownCheckpointSkipsReplayOnRestart) {
  const ScopedTempDir dir("front_door_recovery_test");
  {
    FrontDoor door(DurableOptions(dir));
    ASSERT_TRUE(door.Start().ok());
    TestClient client(door.port());
    const auto submit = client.Post(
        "/v1/submit",
        R"({"txns":[{"ops":[{"op":"write","object":3},)"
        R"({"op":"write","object":9}]}]})");
    ASSERT_EQ(submit.status, 200) << submit.body;
    door.Shutdown();  // drains, then checkpoints: snapshot + WAL truncate
  }
  {
    FrontDoor door(DurableOptions(dir));
    ASSERT_TRUE(door.Start().ok());
    // The clean-shutdown snapshot covered everything: nothing to replay.
    EXPECT_TRUE(door.sched()->recovery_result().snapshot_loaded);
    EXPECT_EQ(door.sched()->recovery_result().records_replayed, 0);
    // And the restarted instance serves new work over the same objects.
    TestClient client(door.port());
    const auto submit = client.Post(
        "/v1/submit", R"({"txns":[{"ops":[{"op":"write","object":3}]}]})");
    EXPECT_EQ(submit.status, 200) << submit.body;
    door.Shutdown();
  }
}

TEST(FrontDoorRecoveryTest, DirtyRestartReplaysAndResumesTransactionIds) {
  const ScopedTempDir dir("front_door_recovery_test");
  {
    // Crash-style first run: a bare durable scheduler (FrontDoor's own
    // teardown always checkpoints — a real crash does not). The WAL on
    // disk is the only thing that survives this scope.
    scheduler::ShardedScheduler::Options options;
    options.num_shards = 2;
    options.shard.protocol = scheduler::Ss2plNative();
    options.shard.deadlock_detection = false;
    options.durability.enabled = true;
    options.durability.dir = dir;
    scheduler::ShardedScheduler sched(std::move(options), nullptr);
    ASSERT_TRUE(sched.Init().ok());
    scheduler::Request write;
    write.ta = 7;
    write.intrata = 1;
    write.op = txn::OpType::kWrite;
    write.object = 5;
    sched.Submit(write, SimTime());
    ASSERT_TRUE(sched.RunUntilIdle(SimTime()).ok());
  }
  {
    FrontDoor door(DurableOptions(dir));
    ASSERT_TRUE(door.Start().ok());
    EXPECT_GT(door.sched()->recovery_result().records_replayed, 0);
    // Transaction ids resume above everything restored: a new client
    // transaction must not merge with replayed txn 7.
    EXPECT_EQ(door.sched()->recovered_max_ta(), 7);
    TestClient client(door.port());
    const auto submit = client.Post(
        "/v1/submit", R"({"txns":[{"ops":[{"op":"write","object":500}]}]})");
    EXPECT_EQ(submit.status, 200) << submit.body;
    door.Shutdown();
  }
}

}  // namespace
}  // namespace declsched::net
