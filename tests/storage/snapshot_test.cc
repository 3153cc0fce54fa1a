// Snapshot format roundtrip + corruption handling, and the RunRecovery
// orchestrator's mechanics (snapshot restore, LSN-based record skipping,
// torn-tail truncation, stale-tmp cleanup) with synthetic callbacks.

#include "storage/snapshot.h"

#include <sys/stat.h>

#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "test_util.h"

namespace declsched::storage {
namespace {

using ::declsched::testing::ScopedTempDir;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

SnapshotData SampleData() {
  SnapshotData data;
  data.last_lsn = 42;
  data.shards.resize(2);
  TableSnapshot requests;
  requests.name = "requests";
  requests.rows.push_back({Value::Int64(7), Value::String("w"),
                           Value::Double(1.5), Value::Null()});
  requests.rows.push_back({Value::Int64(-1), Value::String(""),
                           Value::Double(-0.0), Value::Int64(1LL << 60)});
  TableSnapshot tenants;
  tenants.name = "tenants";  // deliberately empty: zero rows must roundtrip
  data.shards[0].push_back(requests);
  data.shards[0].push_back(tenants);
  TableSnapshot history;
  history.name = "history";
  history.rows.push_back({Value::String(std::string("\0\xff", 2))});
  data.shards[1].push_back(history);
  return data;
}

TEST(SnapshotTest, WriteReadRoundtrip) {
  const ScopedTempDir dir("snapshot_test");
  ASSERT_TRUE(WriteSnapshot(dir, SampleData()).ok());
  auto loaded = ReadSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SnapshotData& data = loaded.ValueOrDie();
  EXPECT_EQ(data.last_lsn, 42u);
  ASSERT_EQ(data.shards.size(), 2u);
  ASSERT_EQ(data.shards[0].size(), 2u);
  EXPECT_EQ(data.shards[0][0].name, "requests");
  ASSERT_EQ(data.shards[0][0].rows.size(), 2u);
  EXPECT_EQ(data.shards[0][0].rows[0][0].AsInt64(), 7);
  EXPECT_EQ(data.shards[0][0].rows[0][1].AsString(), "w");
  EXPECT_EQ(data.shards[0][0].rows[0][2].AsDouble(), 1.5);
  EXPECT_EQ(data.shards[0][0].rows[0][3].type(), ValueType::kNull);
  EXPECT_EQ(data.shards[0][0].rows[1][3].AsInt64(), 1LL << 60);
  EXPECT_EQ(data.shards[0][1].rows.size(), 0u);
  ASSERT_EQ(data.shards[1].size(), 1u);
  EXPECT_EQ(data.shards[1][0].rows[0][0].AsString(),
            std::string("\0\xff", 2));
}

TEST(SnapshotTest, MissingSnapshotIsNotFound) {
  const ScopedTempDir dir("snapshot_test");
  auto loaded = ReadSnapshot(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, CorruptBodyIsLoudlyRejected) {
  const ScopedTempDir dir("snapshot_test");
  ASSERT_TRUE(WriteSnapshot(dir, SampleData()).ok());
  std::string bytes = ReadFile(SnapshotPath(dir));
  bytes[bytes.size() / 2] ^= 0x01;  // flip one body bit
  WriteFile(SnapshotPath(dir), bytes);
  auto loaded = ReadSnapshot(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

TEST(SnapshotTest, ShortHeaderIsLoudlyRejected) {
  const ScopedTempDir dir("snapshot_test");
  WriteFile(SnapshotPath(dir), "DSSNAP1");  // shorter than the header
  auto loaded = ReadSnapshot(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

TEST(SnapshotTest, BadMagicIsLoudlyRejected) {
  const ScopedTempDir dir("snapshot_test");
  ASSERT_TRUE(WriteSnapshot(dir, SampleData()).ok());
  std::string bytes = ReadFile(SnapshotPath(dir));
  bytes[0] = 'X';
  WriteFile(SnapshotPath(dir), bytes);
  auto loaded = ReadSnapshot(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

// --- RunRecovery mechanics with synthetic callbacks ---

struct Replayed {
  std::vector<uint64_t> lsns;
  int restored_shards = 0;
  uint64_t restored_lsn = 0;
};

Result<RecoveryResult> Recover(const std::string& dir, int num_shards,
                               Replayed* out) {
  return RunRecovery(
      dir, num_shards,
      [out](int, const std::vector<TableSnapshot>&) {
        ++out->restored_shards;
        return Status::OK();
      },
      [out](const WalRecord& record) {
        out->lsns.push_back(record.lsn);
        return Status::OK();
      });
}

TEST(RecoveryTest, FreshDirectoryRecoversEmpty) {
  const ScopedTempDir dir("snapshot_test");
  Replayed seen;
  auto result = Recover(dir, 2, &seen);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.ValueOrDie().snapshot_loaded);
  EXPECT_EQ(result.ValueOrDie().records_replayed, 0);
  EXPECT_EQ(result.ValueOrDie().next_lsn, 1u);
  EXPECT_EQ(seen.restored_shards, 0);
}

TEST(RecoveryTest, SkipsRecordsCoveredBySnapshot) {
  const ScopedTempDir dir("snapshot_test");
  {
    Wal::Options options;
    options.path = WalPath(dir);
    auto wal = Wal::Open(options, 1);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) wal.ValueOrDie()->Append(1, 0, "r");
    ASSERT_TRUE(wal.ValueOrDie()->Close().ok());
  }
  SnapshotData data;
  data.last_lsn = 3;  // snapshot covers lsns 1..3
  data.shards.resize(1);
  ASSERT_TRUE(WriteSnapshot(dir, data).ok());

  Replayed seen;
  auto result = Recover(dir, 1, &seen);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().snapshot_loaded);
  EXPECT_EQ(result.ValueOrDie().records_skipped, 3);
  EXPECT_EQ(result.ValueOrDie().records_replayed, 2);
  EXPECT_EQ(result.ValueOrDie().next_lsn, 6u);
  EXPECT_EQ(seen.restored_shards, 1);
  EXPECT_EQ(seen.lsns, (std::vector<uint64_t>{4, 5}));
}

TEST(RecoveryTest, TruncatesTornTailOnDisk) {
  const ScopedTempDir dir("snapshot_test");
  {
    Wal::Options options;
    options.path = WalPath(dir);
    auto wal = Wal::Open(options, 1);
    ASSERT_TRUE(wal.ok());
    wal.ValueOrDie()->Append(1, 0, "keep");
    wal.ValueOrDie()->Append(1, 0, "torn");
    ASSERT_TRUE(wal.ValueOrDie()->Close().ok());
  }
  std::string bytes = ReadFile(WalPath(dir));
  WriteFile(WalPath(dir), bytes.substr(0, bytes.size() - 2));

  Replayed seen;
  auto result = Recover(dir, 1, &seen);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().tail_truncated);
  EXPECT_EQ(result.ValueOrDie().records_replayed, 1);
  EXPECT_EQ(result.ValueOrDie().next_lsn, 2u);

  // The torn bytes are gone for good: a second recovery is clean.
  Replayed again;
  auto second = Recover(dir, 1, &again);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.ValueOrDie().tail_truncated);
  EXPECT_EQ(second.ValueOrDie().records_replayed, 1);
}

TEST(RecoveryTest, StaleTmpSnapshotIsRemoved) {
  const ScopedTempDir dir("snapshot_test");
  WriteFile(SnapshotTmpPath(dir), "half-written garbage");
  Replayed seen;
  auto result = Recover(dir, 1, &seen);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  struct stat st;
  EXPECT_NE(::stat(SnapshotTmpPath(dir).c_str(), &st), 0);
  EXPECT_EQ(errno, ENOENT);
}

TEST(RecoveryTest, ShardCountMismatchRefusesToRecover) {
  const ScopedTempDir dir("snapshot_test");
  SnapshotData data;
  data.last_lsn = 1;
  data.shards.resize(4);
  ASSERT_TRUE(WriteSnapshot(dir, data).ok());
  Replayed seen;
  auto result = Recover(dir, 2, &seen);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace declsched::storage
