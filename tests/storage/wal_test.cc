// WAL unit tests: framing roundtrip, group commit, durability waits, and
// the torn-tail catalog (truncated header, truncated payload, bit-flipped
// CRC, empty/missing file) that recovery must survive.

#include "storage/wal.h"

#include <sys/stat.h>

#include "storage/snapshot.h"  // WalPath

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
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

Result<std::unique_ptr<Wal>> OpenAt(const std::string& dir,
                                    uint64_t next_lsn = 1) {
  Wal::Options options;
  options.path = WalPath(dir);
  options.fsync = true;
  return Wal::Open(options, next_lsn);
}

std::vector<WalRecord> ScanAll(const std::string& dir,
                               WalScanStats* stats_out = nullptr) {
  std::vector<WalRecord> records;
  auto stats = ScanWal(WalPath(dir), [&](const WalRecord& r) {
    records.push_back(r);
    return Status::OK();
  });
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (stats.ok() && stats_out != nullptr) *stats_out = stats.ValueOrDie();
  return records;
}

TEST(WalTest, Crc32MatchesCheckVectorAndHardwarePath) {
  // The RFC 3720 CRC-32C check vector: crc32c("123456789") == 0xe3069283.
  // Pins the polynomial (a silent change would orphan every existing log),
  // and pins the hardware and software paths to each other on machines
  // that have both.
  const char kCheck[] = "123456789";
  EXPECT_EQ(Crc32(kCheck, 9), 0xe3069283u);
  std::string data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<char>(i * 7 + 3));
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{255}, data.size()}) {
    EXPECT_EQ(Crc32ForTest(data.data(), len, 0, /*hardware=*/true),
              Crc32ForTest(data.data(), len, 0, /*hardware=*/false))
        << len;
  }
  // Seed chaining holds on both paths.
  const uint32_t whole = Crc32(data.data(), data.size());
  EXPECT_EQ(Crc32(data.data() + 100, data.size() - 100,
                  Crc32(data.data(), 100)),
            whole);
}

TEST(WalTest, AppendScanRoundtrip) {
  const ScopedTempDir dir("wal_test");
  auto wal = OpenAt(dir);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  Wal* w = wal.ValueOrDie().get();
  EXPECT_EQ(w->Append(1, 0, "alpha"), 1u);
  EXPECT_EQ(w->Append(2, 3, "beta"), 2u);
  EXPECT_EQ(w->Append(7, 65535, std::string("\0bin\xff", 5)), 3u);
  ASSERT_TRUE(w->Flush().ok());
  EXPECT_EQ(w->durable_lsn(), 3u);
  ASSERT_TRUE(wal.ValueOrDie()->Close().ok());

  WalScanStats stats;
  std::vector<WalRecord> records = ScanAll(dir, &stats);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(stats.tail_truncated);
  EXPECT_EQ(stats.last_lsn, 3u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[0].shard, 0);
  EXPECT_EQ(records[0].payload, "alpha");
  EXPECT_EQ(records[1].shard, 3);
  EXPECT_EQ(records[2].type, 7);
  EXPECT_EQ(records[2].shard, 65535);
  EXPECT_EQ(records[2].payload, std::string("\0bin\xff", 5));
}

TEST(WalTest, GroupCommitBatchesFsyncs) {
  const ScopedTempDir dir("wal_test");
  auto wal = OpenAt(dir);
  ASSERT_TRUE(wal.ok());
  Wal* w = wal.ValueOrDie().get();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([w] {
      for (int i = 0; i < kPerThread; ++i) w->Append(1, 0, "payload");
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(w->Flush().ok());
  EXPECT_EQ(w->append_count(), kThreads * kPerThread);
  EXPECT_EQ(w->durable_lsn(), static_cast<uint64_t>(kThreads * kPerThread));
  // The whole point of group commit: appends vastly outnumber fsyncs.
  EXPECT_GE(w->fsync_count(), 1);
  EXPECT_LT(w->fsync_count(), w->append_count());
}

TEST(WalTest, SyncAndWhenDurable) {
  const ScopedTempDir dir("wal_test");
  auto wal = OpenAt(dir);
  ASSERT_TRUE(wal.ok());
  Wal* w = wal.ValueOrDie().get();
  EXPECT_TRUE(w->Sync(0).ok());  // nothing to wait for

  std::atomic<int> fired{0};
  const uint64_t lsn = w->Append(1, 0, "x");
  w->WhenDurable(lsn, [&] { fired.fetch_add(1); });
  ASSERT_TRUE(w->Sync(lsn).ok());
  EXPECT_GE(w->durable_lsn(), lsn);
  // Callback may run from the flusher just after durable_lsn advances.
  for (int i = 0; i < 1000 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 1);
  // Already durable: fires inline.
  w->WhenDurable(lsn, [&] { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 2);
}

TEST(WalTest, RotateTruncatesAndLsnsContinue) {
  const ScopedTempDir dir("wal_test");
  auto wal = OpenAt(dir);
  ASSERT_TRUE(wal.ok());
  Wal* w = wal.ValueOrDie().get();
  w->Append(1, 0, "before");
  ASSERT_TRUE(w->Rotate().ok());
  struct stat st;
  ASSERT_EQ(::stat(WalPath(dir).c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 8);  // just the magic
  EXPECT_EQ(w->Append(1, 0, "after"), 2u);  // log-lifetime sequence
  ASSERT_TRUE(wal.ValueOrDie()->Close().ok());

  std::vector<WalRecord> records = ScanAll(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 2u);
  EXPECT_EQ(records[0].payload, "after");
}

TEST(WalTest, ReopenContinuesSequence) {
  const ScopedTempDir dir("wal_test");
  {
    auto wal = OpenAt(dir);
    ASSERT_TRUE(wal.ok());
    wal.ValueOrDie()->Append(1, 0, "one");
    ASSERT_TRUE(wal.ValueOrDie()->Close().ok());
  }
  WalScanStats stats;
  ScanAll(dir, &stats);
  {
    auto wal = OpenAt(dir, stats.last_lsn + 1);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal.ValueOrDie()->Append(1, 0, "two"), 2u);
    ASSERT_TRUE(wal.ValueOrDie()->Close().ok());
  }
  std::vector<WalRecord> records = ScanAll(dir);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].lsn, 2u);
}

TEST(WalTest, MissingFileScansEmpty) {
  const ScopedTempDir dir("wal_test");
  WalScanStats stats;
  std::vector<WalRecord> records = ScanAll(dir, &stats);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(stats.records, 0u);
  EXPECT_FALSE(stats.tail_truncated);
}

TEST(WalTest, EmptyFileScansEmpty) {
  const ScopedTempDir dir("wal_test");
  WriteFile(WalPath(dir), "");
  WalScanStats stats;
  std::vector<WalRecord> records = ScanAll(dir, &stats);
  EXPECT_TRUE(records.empty());
  EXPECT_FALSE(stats.tail_truncated);
}

/// Writes two intact records and returns the raw file bytes.
std::string TwoRecordLog(const std::string& dir) {
  auto wal = OpenAt(dir);
  EXPECT_TRUE(wal.ok());
  wal.ValueOrDie()->Append(1, 0, "first record payload");
  wal.ValueOrDie()->Append(2, 1, "second record payload");
  EXPECT_TRUE(wal.ValueOrDie()->Close().ok());
  return ReadFile(WalPath(dir));
}

TEST(WalTest, TornHeaderStopsCleanly) {
  const ScopedTempDir dir("wal_test");
  std::string bytes = TwoRecordLog(dir);
  WriteFile(WalPath(dir), bytes + std::string("\x05\x00", 2));  // half a header
  WalScanStats stats;
  std::vector<WalRecord> records = ScanAll(dir, &stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.tail_reason, "torn record header");
  EXPECT_EQ(stats.valid_bytes, bytes.size());
}

TEST(WalTest, TornPayloadStopsCleanly) {
  const ScopedTempDir dir("wal_test");
  std::string bytes = TwoRecordLog(dir);
  // Cut the last record's body short (drop 5 trailing bytes).
  WriteFile(WalPath(dir), bytes.substr(0, bytes.size() - 5));
  WalScanStats stats;
  std::vector<WalRecord> records = ScanAll(dir, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "first record payload");
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.tail_reason, "torn record body");
}

TEST(WalTest, BitFlippedCrcStopsCleanly) {
  const ScopedTempDir dir("wal_test");
  std::string bytes = TwoRecordLog(dir);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a bit in the last record's body
  WriteFile(WalPath(dir), bytes);
  WalScanStats stats;
  std::vector<WalRecord> records = ScanAll(dir, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.tail_reason, "crc mismatch");
}

TEST(WalTest, BadLengthStopsCleanly) {
  const ScopedTempDir dir("wal_test");
  std::string bytes = TwoRecordLog(dir);
  // An intact-looking header whose body_len is impossible (< 12).
  WriteFile(WalPath(dir),
            bytes + std::string("\x02\x00\x00\x00\xaa\xbb\xcc\xdd", 8));
  WalScanStats stats;
  std::vector<WalRecord> records = ScanAll(dir, &stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.tail_reason, "bad record length");
}

TEST(WalTest, TruncateTailMakesLogCleanAgain) {
  const ScopedTempDir dir("wal_test");
  std::string bytes = TwoRecordLog(dir);
  WriteFile(WalPath(dir), bytes.substr(0, bytes.size() - 5));
  WalScanStats stats;
  ScanAll(dir, &stats);
  ASSERT_TRUE(stats.tail_truncated);
  ASSERT_TRUE(TruncateWalTail(WalPath(dir), stats.valid_bytes).ok());

  WalScanStats clean;
  std::vector<WalRecord> records = ScanAll(dir, &clean);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_FALSE(clean.tail_truncated);

  // And the log accepts appends again at the right sequence point.
  auto wal = OpenAt(dir, clean.last_lsn + 1);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.ValueOrDie()->Append(1, 0, "resumed"), 2u);
  ASSERT_TRUE(wal.ValueOrDie()->Close().ok());
}

TEST(WalTest, TornMagicReinitializedOnOpen) {
  const ScopedTempDir dir("wal_test");
  WriteFile(WalPath(dir), "DSW");  // creation died mid-magic
  auto wal = OpenAt(dir);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal.ValueOrDie()->Append(1, 0, "fresh"), 1u);
  ASSERT_TRUE(wal.ValueOrDie()->Close().ok());
  std::vector<WalRecord> records = ScanAll(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "fresh");
}

}  // namespace
}  // namespace declsched::storage
