#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/crashpoint.h"
#include "common/string_util.h"
#include "storage/coding.h"

namespace declsched::storage {

namespace {

constexpr char kWalMagic[8] = {'D', 'S', 'W', 'A', 'L', '1', '\n', '\0'};
constexpr size_t kMagicSize = sizeof(kWalMagic);
constexpr size_t kHeaderSize = 8;                  // u32 len + u32 crc
constexpr size_t kBodyPrefixSize = 8 + 1 + 1 + 2;  // lsn, type, pad, shard
constexpr uint32_t kMaxBodyLen = 64u << 20;

/// A batch this large is flushed immediately even with no durability
/// waiter — bounds buffered memory and keeps write() sizes disk-friendly.
constexpr size_t kFlushBytes = 256u << 10;
/// With records buffered but nobody waiting on durability, the flusher
/// still flushes this often — the bound on how much a crash can lose when
/// no acknowledgment was requested. Unacked work has no durability
/// contract, so this trades a few milliseconds of best-effort loss window
/// for staying off the disk (and the CPU) while demand is absent; anything
/// acked still flushes immediately via the demand conditions.
constexpr auto kIdleFlushInterval = std::chrono::milliseconds(5);
/// Preallocation chunk: the log grows by writing this many real zeros (one
/// fsync to persist size + allocation), after which every group commit
/// overwrites allocated blocks and fdatasync() never touches metadata or
/// the filesystem journal. A zero tail reads as a torn record, which the
/// recovery scan already truncates — preallocation costs nothing in crash
/// semantics.
constexpr int64_t kPreallocChunk = 1 << 20;

Status ErrnoStatus(const char* what, const std::string& path) {
  return Status::Internal(StrFormat("%s %s: %s", what, path.c_str(),
                                    std::strerror(errno)));
}

Status WriteFully(int fd, const char* data, size_t len,
                  const std::string& path) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time CRC-32C
// table; table[k][b] extends it by k more zero bytes, so eight lookups
// advance the CRC over eight input bytes at once. Produces bit-identical
// values to the one-byte loop (same Castagnoli polynomial the x86 crc32
// instruction implements).
const uint32_t (*Crc32Tables())[256] {
  static uint32_t tables[8][256];
  static const bool initialized = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (int t = 1; t < 8; ++t) {
      for (uint32_t i = 0; i < 256; ++i) {
        tables[t][i] =
            (tables[t - 1][i] >> 8) ^ tables[0][tables[t - 1][i] & 0xffu];
      }
    }
    return true;
  }();
  (void)initialized;
  return tables;
}

uint32_t Crc32Soft(const void* data, size_t len, uint32_t c) {
  const uint32_t(*t)[256] = Crc32Tables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (len >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
#endif
  while (len-- > 0) {
    c = t[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__) || defined(__i386__)
// The SSE4.2 crc32 instruction computes exactly this reflected CRC-32C:
// one 8-byte step per cycle-ish, no tables, no cache footprint on the
// append hot path. Selected once at startup via cpuid; the software
// slicing path is the byte-identical fallback.
__attribute__((target("sse4.2"))) uint32_t Crc32Hw(const void* data,
                                                   size_t len, uint32_t c) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c64 = c;
  while (len >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c64 = __builtin_ia32_crc32di(c64, chunk);
    p += 8;
    len -= 8;
  }
  c = static_cast<uint32_t>(c64);
  while (len-- > 0) {
    c = __builtin_ia32_crc32qi(c, *p++);
  }
  return c;
}

bool HaveCrc32Hw() {
  static const bool have = __builtin_cpu_supports("sse4.2");
  return have;
}
#else
uint32_t Crc32Hw(const void*, size_t, uint32_t c) { return c; }
bool HaveCrc32Hw() { return false; }
#endif

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const uint32_t c = seed ^ 0xffffffffu;
  const uint32_t out =
      HaveCrc32Hw() ? Crc32Hw(data, len, c) : Crc32Soft(data, len, c);
  return out ^ 0xffffffffu;
}

uint32_t Crc32ForTest(const void* data, size_t len, uint32_t seed,
                      bool hardware) {
  const uint32_t c = seed ^ 0xffffffffu;
  const uint32_t out = hardware && HaveCrc32Hw() ? Crc32Hw(data, len, c)
                                                 : Crc32Soft(data, len, c);
  return out ^ 0xffffffffu;
}

Wal::Wal(const Options& options) : options_(options) {
  if (options_.metrics != nullptr) {
    auto* m = options_.metrics;
    m_appends_ = m->GetCounter("wal_appends_total", "WAL records appended");
    m_fsyncs_ = m->GetCounter("wal_fsyncs_total", "WAL group-commit fsyncs");
    m_bytes_ = m->GetCounter("wal_bytes_total", "WAL bytes appended");
    m_batch_ = m->GetHistogram("wal_group_commit_batch",
                               "Records per group-commit fsync batch", {},
                               {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(const Options& options,
                                       uint64_t next_lsn) {
  if (options.path.empty()) {
    return Status::InvalidArgument("Wal::Open needs a path");
  }
  std::unique_ptr<Wal> wal(new Wal(options));
  // Not O_APPEND: with preallocation the file extends past the logical end,
  // so the writer tracks its own position (sequential write() after one
  // initial seek).
  wal->fd_ = ::open(options.path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (wal->fd_ < 0) return ErrnoStatus("open", options.path);
  struct stat st;
  if (::fstat(wal->fd_, &st) != 0) return ErrnoStatus("fstat", options.path);
  if (st.st_size < static_cast<off_t>(kMagicSize)) {
    // Fresh file, or a creation torn before the magic landed.
    if (::ftruncate(wal->fd_, 0) != 0) {
      return ErrnoStatus("ftruncate", options.path);
    }
    DS_RETURN_NOT_OK(WriteFully(wal->fd_, kWalMagic, kMagicSize, options.path));
    if (options.fsync && ::fsync(wal->fd_) != 0) {
      return ErrnoStatus("fsync", options.path);
    }
    wal->logical_end_ = static_cast<int64_t>(kMagicSize);
  } else {
    // Recovery scans and truncates any torn (or preallocated-zero) tail
    // before reopening, and a clean Close trims exactly: the current size
    // IS the logical end.
    wal->logical_end_ = static_cast<int64_t>(st.st_size);
    if (::lseek(wal->fd_, wal->logical_end_, SEEK_SET) < 0) {
      return ErrnoStatus("lseek", options.path);
    }
  }
  wal->allocated_end_ = wal->logical_end_;
  if (next_lsn < 1) next_lsn = 1;
  wal->next_lsn_ = next_lsn;
  wal->head_lsn_.store(next_lsn - 1, std::memory_order_release);
  wal->durable_lsn_.store(next_lsn - 1, std::memory_order_release);
  wal->flusher_ = std::thread([w = wal.get()] { w->FlusherLoop(); });
  return wal;
}

Wal::~Wal() { Close(); }

uint64_t Wal::Append(uint8_t type, uint16_t shard, std::string_view payload) {
  CrashPoint("wal:pre-append");
  const size_t body_len = kBodyPrefixSize + payload.size();
  uint64_t lsn;
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lsn = next_lsn_++;
    // Encode in place with one resize and raw stores: body first, then the
    // header once the CRC over the in-buffer body is known. One copy, no
    // per-record allocation (the buffer keeps its capacity across swaps).
    const size_t header_pos = buffer_.size();
    buffer_.resize(header_pos + kHeaderSize + body_len);
    char* base = &buffer_[header_pos];
    char* b = PutFixed64Raw(base + kHeaderSize, lsn);
    *b++ = static_cast<char>(type);
    *b++ = '\0';  // reserved
    *b++ = static_cast<char>(shard & 0xff);
    *b++ = static_cast<char>((shard >> 8) & 0xff);
    // An empty payload may have a null data(); memcpy must not see it.
    if (!payload.empty()) std::memcpy(b, payload.data(), payload.size());
    const uint32_t crc = Crc32(base + kHeaderSize, body_len);
    PutFixed32Raw(PutFixed32Raw(base, static_cast<uint32_t>(body_len)), crc);
    ++buffered_records_;
    buffered_lsn_ = lsn;
    head_lsn_.store(lsn, std::memory_order_release);
    // Wake the parked flusher only when this append changes its mind:
    // buffer went empty -> non-empty (it may be in the indefinite wait), the
    // batch crossed the size threshold, or durability demand exists. A bare
    // append with the flusher already pacing its idle timeout rides along in
    // the next batch for free — and the signaled flag makes the wake
    // edge-triggered, so a burst of appends behind one park costs one futex
    // syscall, not one per record.
    wake = flusher_waiting_ && !flusher_signaled_ &&
           (header_pos == 0 || buffer_.size() >= kFlushBytes ||
            sync_waiters_ > 0 || !waiters_.empty());
    if (wake) flusher_signaled_ = true;
  }
  const int64_t record_bytes = static_cast<int64_t>(kHeaderSize + body_len);
  appended_bytes_.fetch_add(record_bytes, std::memory_order_relaxed);
  appends_.fetch_add(1, std::memory_order_relaxed);
  if (m_appends_ != nullptr) {
    m_appends_->Increment();
    m_bytes_->Increment(record_bytes);
  }
  if (wake) work_cv_.notify_one();
  CrashPoint("wal:post-append");
  return lsn;
}

Status Wal::EnsureAllocated(int64_t need) {
  if (need <= allocated_end_) return Status::OK();
  int64_t target = allocated_end_ + kPreallocChunk;
  if (target < need) target = need;
  // Real zeros, not fallocate/ftruncate holes: delayed allocation would put
  // the extent bookkeeping right back into the fdatasync path.
  static const std::string zeros(1 << 16, '\0');
  int64_t off = allocated_end_;
  while (off < target) {
    const size_t n = static_cast<size_t>(std::min<int64_t>(
        target - off, static_cast<int64_t>(zeros.size())));
    const ssize_t w = ::pwrite(fd_, zeros.data(), n, static_cast<off_t>(off));
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", options_.path);
    }
    off += w;
  }
  // One full fsync per chunk persists the new size and allocation; every
  // group commit inside the chunk then gets by with pure-data fdatasync.
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", options_.path);
  allocated_end_ = target;
  return Status::OK();
}

Status Wal::WriteAndSync(const std::string& chunk, int64_t records) {
  if (options_.fsync) {
    DS_RETURN_NOT_OK(
        EnsureAllocated(logical_end_ + static_cast<int64_t>(chunk.size())));
  }
  // Torn-tail injection: write all but the last few bytes, then die. _exit
  // alone cannot shear a record (completed write()s survive the process),
  // so the mid-record point models a mid-write power cut instead.
  if (CrashPointWillTrigger("wal:mid-record") && chunk.size() > 5) {
    const Status torn =
        WriteFully(fd_, chunk.data(), chunk.size() - 5, options_.path);
    (void)torn;
    CrashPoint("wal:mid-record");  // does not return
  }
  DS_RETURN_NOT_OK(WriteFully(fd_, chunk.data(), chunk.size(), options_.path));
  logical_end_ += static_cast<int64_t>(chunk.size());
  CrashPoint("wal:post-write-pre-fsync");
  if (options_.fsync) {
    if (::fdatasync(fd_) != 0) return ErrnoStatus("fsync", options_.path);
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  if (m_fsyncs_ != nullptr) {
    m_fsyncs_->Increment();
    m_batch_->Record(records);
  }
  CrashPoint("wal:post-fsync");
  return Status::OK();
}

void Wal::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  // Flush *now* (rather than letting the batch grow) when shutting down,
  // the batch is already large, or someone is blocked on durability — a
  // Sync caller or a registered WhenDurable acknowledgment.
  const auto must_flush = [this] {
    return stop_ || buffer_.size() >= kFlushBytes || sync_waiters_ > 0 ||
           !waiters_.empty();
  };
  while (true) {
    flusher_waiting_ = true;
    work_cv_.wait(lock, [&] { return stop_ || !buffer_.empty(); });
    // Re-arm the edge-triggered wake before the idle window: a demand that
    // arrives while we pace below must deliver its own notify.
    flusher_signaled_ = false;
    if (!must_flush()) {
      // Records buffered, nobody waiting: give concurrent appenders a
      // window to join the group commit, but flush at the timeout so even
      // unacknowledged work reaches disk promptly.
      work_cv_.wait_for(lock, kIdleFlushInterval, must_flush);
    }
    flusher_waiting_ = false;
    // A notify that landed during the idle window set the flag after the
    // re-arm above; whatever it signaled is being honored right now, so
    // clear it — a stale flag here would suppress every future wake.
    flusher_signaled_ = false;
    if (buffer_.empty()) {
      if (stop_) return;
      continue;
    }
    // Double buffer: take the batch, hand appenders back a buffer that
    // still has a batch's worth of capacity. clear() keeps capacity, so
    // steady state runs allocation-free on both sides.
    spare_.clear();
    spare_.swap(buffer_);
    const int64_t records = buffered_records_;
    buffered_records_ = 0;
    const uint64_t target = buffered_lsn_;
    lock.unlock();
    const Status written = WriteAndSync(spare_, records);
    std::vector<std::function<void()>> ready;
    lock.lock();
    if (!written.ok()) {
      if (io_error_.ok()) io_error_ = written;
      durable_cv_.notify_all();
      continue;  // durability stops advancing; Sync reports the error
    }
    durable_lsn_.store(target, std::memory_order_release);
    for (size_t i = 0; i < waiters_.size();) {
      if (waiters_[i].first <= target) {
        ready.push_back(std::move(waiters_[i].second));
        waiters_[i] = std::move(waiters_.back());
        waiters_.pop_back();
      } else {
        ++i;
      }
    }
    durable_cv_.notify_all();
    lock.unlock();
    for (auto& fn : ready) fn();
    lock.lock();
  }
}

Status Wal::Sync(uint64_t lsn) {
  if (lsn == 0) return Status::OK();
  if (durable_lsn_.load(std::memory_order_acquire) >= lsn) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  ++sync_waiters_;
  if (flusher_waiting_ && !flusher_signaled_) {
    flusher_signaled_ = true;
    work_cv_.notify_one();  // durability demand: flush without the idle delay
  }
  durable_cv_.wait(lock, [&] {
    return durable_lsn_.load(std::memory_order_relaxed) >= lsn ||
           !io_error_.ok() || (stop_ && buffer_.empty());
  });
  --sync_waiters_;
  if (durable_lsn_.load(std::memory_order_relaxed) >= lsn) return Status::OK();
  if (!io_error_.ok()) return io_error_;
  return Status::Internal("wal closed before lsn became durable");
}

void Wal::WhenDurable(uint64_t lsn, std::function<void()> fn) {
  if (lsn == 0 || durable_lsn_.load(std::memory_order_acquire) >= lsn) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-check under the lock: the flusher may have advanced past lsn
    // between the fast-path load and here, and would then never revisit
    // this waiter.
    if (durable_lsn_.load(std::memory_order_relaxed) < lsn) {
      waiters_.emplace_back(lsn, std::move(fn));
      // An ack is pending: flush without the idle delay. Edge-triggered
      // like Append — while the flusher is mid-flush it will re-check
      // must_flush() before parking, so no notify is needed then.
      if (flusher_waiting_ && !flusher_signaled_) {
        flusher_signaled_ = true;
        work_cv_.notify_one();
      }
      return;
    }
  }
  fn();
}

Status Wal::Rotate() {
  DS_RETURN_NOT_OK(Flush());
  std::lock_guard<std::mutex> lock(mu_);
  if (!io_error_.ok()) return io_error_;
  if (::ftruncate(fd_, static_cast<off_t>(kMagicSize)) != 0) {
    return ErrnoStatus("ftruncate", options_.path);
  }
  if (::lseek(fd_, static_cast<off_t>(kMagicSize), SEEK_SET) < 0) {
    return ErrnoStatus("lseek", options_.path);
  }
  logical_end_ = static_cast<int64_t>(kMagicSize);
  allocated_end_ = logical_end_;  // truncation dropped the preallocation too
  if (options_.fsync && ::fsync(fd_) != 0) {
    return ErrnoStatus("fsync", options_.path);
  }
  CrashPoint("wal:post-truncate");
  return Status::OK();
}

Status Wal::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0 && !flusher_.joinable()) return Status::OK();
    stop_ = true;
  }
  work_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  Status result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    result = io_error_;
    waiters_.clear();  // never fire acknowledgments that were not made durable
    if (fd_ >= 0) {
      if (result.ok() && allocated_end_ > logical_end_) {
        // Trim the unused preallocation so a clean close leaves an exact
        // file (Open takes the size as the logical end).
        if (::ftruncate(fd_, static_cast<off_t>(logical_end_)) != 0) {
          result = ErrnoStatus("ftruncate", options_.path);
        } else if (options_.fsync && ::fsync(fd_) != 0) {
          result = ErrnoStatus("fsync", options_.path);
        } else {
          allocated_end_ = logical_end_;
        }
      }
      ::close(fd_);
      fd_ = -1;
    }
  }
  durable_cv_.notify_all();
  return result;
}

Result<WalScanStats> ScanWal(
    const std::string& path,
    const std::function<Status(const WalRecord& record)>& fn) {
  WalScanStats stats;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return stats;  // no log yet: zero records
    return ErrnoStatus("open", path);
  }
  std::string data;
  {
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status read_error = ErrnoStatus("read", path);
        ::close(fd);
        return read_error;
      }
      if (n == 0) break;
      data.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);

  if (data.empty()) return stats;  // created but never initialized
  if (data.size() < kMagicSize) {
    stats.tail_truncated = true;
    stats.tail_reason = "torn file magic";
    stats.valid_bytes = 0;
    return stats;
  }
  if (std::memcmp(data.data(), kWalMagic, kMagicSize) != 0) {
    return Status::Internal(path + " is not a WAL file (bad magic)");
  }

  size_t pos = kMagicSize;
  stats.valid_bytes = pos;
  uint64_t prev_lsn = 0;
  while (pos < data.size()) {
    if (data.size() - pos < kHeaderSize) {
      stats.tail_truncated = true;
      stats.tail_reason = "torn record header";
      return stats;
    }
    const uint32_t body_len = DecodeFixed32(data.data() + pos);
    const uint32_t crc = DecodeFixed32(data.data() + pos + 4);
    if (body_len < kBodyPrefixSize || body_len > kMaxBodyLen) {
      stats.tail_truncated = true;
      stats.tail_reason = "bad record length";
      return stats;
    }
    if (data.size() - pos - kHeaderSize < body_len) {
      stats.tail_truncated = true;
      stats.tail_reason = "torn record body";
      return stats;
    }
    const char* body = data.data() + pos + kHeaderSize;
    if (Crc32(body, body_len) != crc) {
      stats.tail_truncated = true;
      stats.tail_reason = "crc mismatch";
      return stats;
    }
    WalRecord record;
    record.lsn = DecodeFixed64(body);
    record.type = static_cast<uint8_t>(body[8]);
    record.shard = static_cast<uint16_t>(static_cast<uint8_t>(body[10])) |
                   static_cast<uint16_t>(static_cast<uint8_t>(body[11])) << 8;
    record.payload.assign(body + kBodyPrefixSize, body_len - kBodyPrefixSize);
    if (record.lsn <= prev_lsn) {
      return Status::Internal(
          StrFormat("%s: lsn %llu not increasing (prev %llu)", path.c_str(),
                    static_cast<unsigned long long>(record.lsn),
                    static_cast<unsigned long long>(prev_lsn)));
    }
    prev_lsn = record.lsn;
    DS_RETURN_NOT_OK(fn(record));
    ++stats.records;
    stats.last_lsn = record.lsn;
    pos += kHeaderSize + body_len;
    stats.valid_bytes = pos;
  }
  return stats;
}

Status TruncateWalTail(const std::string& path, uint64_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return ErrnoStatus("open", path);
  Status result;
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    result = ErrnoStatus("ftruncate", path);
  } else if (valid_bytes < kMagicSize) {
    // Even the magic was torn: reinitialize the header.
    if (::ftruncate(fd, 0) != 0 ||
        ::lseek(fd, 0, SEEK_SET) < 0) {
      result = ErrnoStatus("ftruncate", path);
    } else {
      result = WriteFully(fd, kWalMagic, kMagicSize, path);
    }
  }
  if (result.ok() && ::fsync(fd) != 0) result = ErrnoStatus("fsync", path);
  ::close(fd);
  return result;
}

}  // namespace declsched::storage
