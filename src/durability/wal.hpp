// Per-shard append-only write-ahead log (DESIGN.md section 14).
//
// One ShardLog per shard worker. The worker is the only appender; the
// group-commit daemon (serve/service.hpp) is the only flusher. append()
// encodes the record into an in-memory pending buffer under a short mutex
// and returns the record's LSN; flush() swaps the buffer out under the same
// mutex, then does the write()/fsync() *outside* it, so a multi-millisecond
// fsync never blocks the shard worker's commit path — that is the whole
// point of group commit. The daemon answers a shard's held acks right after
// its flush (serve/service.hpp), so the log itself tracks no acks.
//
// Durability modes (the -durability knob):
//   kOff      no log at all (ShardLog is not even constructed)
//   kBuffered flush() write()s the tail to the page cache, no fsync.
//             Survives a process kill -9; not an OS crash.
//   kFsync    write() + fdatasync() per flush. Survives an OS crash.
//
// The durable LSN only advances after the covering write (and fsync, in
// kFsync) returned, which is exactly the ack-gating contract: a response
// whose LSN is <= durable_lsn() may be released to the client.
//
// The first failed write or fdatasync poisons the log for good (fail-stop):
// the durable LSN never moves again and later flush() calls do no I/O. A
// retry cannot be trusted — the failed batch may have left a partial record
// or a hole, and recovery stops at the first gap, so records written after
// it would be acked yet unrecoverable; a failed fdatasync may also have
// dropped the dirty pages it was asked to persist. The group-commit daemon
// answers the writes the log can no longer make durable kFailed at its next
// tick, never OK; the only way back is a restart with -recover.
//
// open() on an existing file scans it (log_format.hpp), truncates the torn
// tail, and continues LSNs from the last trusted record — the post-recovery
// restart path.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "durability/log_format.hpp"

namespace si::durability {

enum class DurabilityMode : std::uint8_t {
  kOff = 0,
  kBuffered = 1,
  kFsync = 2,
};

inline const char* to_string(DurabilityMode m) noexcept {
  switch (m) {
    case DurabilityMode::kOff: return "off";
    case DurabilityMode::kBuffered: return "buffered";
    case DurabilityMode::kFsync: return "fsync";
  }
  return "?";
}

/// Parses the -durability CLI spelling; returns false on unknown names.
inline bool mode_from_string(const std::string& s, DurabilityMode* out) {
  if (s == "off") *out = DurabilityMode::kOff;
  else if (s == "buffered") *out = DurabilityMode::kBuffered;
  else if (s == "fsync") *out = DurabilityMode::kFsync;
  else return false;
  return true;
}

/// mkdir that tolerates the directory already existing (single level — log
/// dirs are flat).
inline bool ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return true;
  return false;
}

inline std::string shard_log_path(const std::string& dir, std::uint32_t shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%u.log", shard);
  return dir + "/" + name;
}

/// Racy-read counters for telemetry; every field is cumulative except the
/// two LSN gauges.
struct ShardLogStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes = 0;      ///< record bytes appended (excludes header)
  std::uint64_t flushes = 0;    ///< flush() calls that wrote something
  std::uint64_t fsyncs = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t appended_lsn = 0;
  std::uint64_t durable_lsn = 0;
};

class ShardLog {
 public:
  ShardLog() = default;
  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;
  ~ShardLog() { close(); }

  /// Opens (creating if absent) `dir/shard-<shard>.log`. An existing file is
  /// scanned; its torn tail is truncated away and LSNs continue from the
  /// last trusted record. Fails (false + *err) on a header that names a
  /// different shard layout — replaying shard i's log into a j-shard
  /// service would route keys to the wrong workers.
  bool open(const std::string& dir, std::uint32_t shard, std::uint32_t shards,
            DurabilityMode mode, std::string* err) {
    mode_ = mode;
    if (mode_ == DurabilityMode::kOff) return true;
    if (!ensure_dir(dir)) {
      if (err != nullptr) *err = "mkdir " + dir + ": " + std::strerror(errno);
      return false;
    }
    path_ = shard_log_path(dir, shard);
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
      if (err != nullptr) *err = "open " + path_ + ": " + std::strerror(errno);
      return false;
    }
    std::vector<unsigned char> image;
    if (!read_all(fd_, &image)) {
      if (err != nullptr) *err = "read " + path_ + ": " + std::strerror(errno);
      close();
      return false;
    }
    std::size_t valid_len = 0;
    if (image.empty()) {
      unsigned char hdr[kHeaderSize];
      encode_header(hdr, shards, shard);
      if (!write_exact(fd_, hdr, kHeaderSize)) {
        if (err != nullptr) {
          *err = "write header " + path_ + ": " + std::strerror(errno);
        }
        close();
        return false;
      }
      valid_len = kHeaderSize;
    } else {
      const ScanResult scan = scan_log(image.data(), image.size());
      if (!scan.header_ok()) {
        if (err != nullptr) *err = path_ + ": bad log header";
        close();
        return false;
      }
      if (scan.header.shards != shards || scan.header.shard != shard) {
        if (err != nullptr) {
          *err = path_ + ": shard layout mismatch (file " +
                 std::to_string(scan.header.shard) + "/" +
                 std::to_string(scan.header.shards) + ", service " +
                 std::to_string(shard) + "/" + std::to_string(shards) + ")";
        }
        close();
        return false;
      }
      valid_len = scan.valid_bytes;
      truncated_bytes_ = scan.torn_bytes;
      if (scan.torn_bytes > 0 && ::ftruncate(fd_, static_cast<off_t>(valid_len)) != 0) {
        if (err != nullptr) {
          *err = "ftruncate " + path_ + ": " + std::strerror(errno);
        }
        close();
        return false;
      }
      next_lsn_ = scan.last_lsn + 1;
      appended_lsn_.store(scan.last_lsn, std::memory_order_relaxed);
      durable_lsn_.store(scan.last_lsn, std::memory_order_relaxed);
    }
    if (::lseek(fd_, static_cast<off_t>(valid_len), SEEK_SET) < 0) {
      if (err != nullptr) *err = "lseek " + path_ + ": " + std::strerror(errno);
      close();
      return false;
    }
    return true;
  }

  DurabilityMode mode() const noexcept { return mode_; }
  const std::string& path() const noexcept { return path_; }
  std::size_t truncated_bytes() const noexcept { return truncated_bytes_; }

  /// Appends one committed record; returns its LSN. Called only by the
  /// owning shard worker. Cheap: an encode + buffer append under a mutex
  /// whose only other taker (flush) holds it for a swap, never for I/O.
  std::uint64_t append(std::uint64_t id, std::uint64_t key, std::uint64_t arg,
                       std::uint16_t op) {
    LogRecord rec;
    rec.id = id;
    rec.key = key;
    rec.arg = arg;
    rec.op = op;
    std::lock_guard<std::mutex> g(mu_);
    rec.lsn = next_lsn_++;
    const std::size_t off = pending_.size();
    pending_.resize(off + kRecordSize);
    encode_record(pending_.data() + off, rec);
    appends_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(kRecordSize, std::memory_order_relaxed);
    appended_lsn_.store(rec.lsn, std::memory_order_relaxed);
    return rec.lsn;
  }

  /// Writes (and in kFsync, fsyncs) everything appended so far, then
  /// advances the durable LSN. Called only by the group-commit daemon; the
  /// I/O happens outside the append mutex. After the first I/O error it only
  /// discards what was appended: the log is poisoned (see the header).
  void flush() {
    std::vector<unsigned char> batch;
    std::uint64_t target = 0;
    {
      std::lock_guard<std::mutex> g(mu_);
      if (failed_.load(std::memory_order_relaxed)) {
        pending_.clear();
        return;
      }
      if (pending_.empty()) return;
      batch.swap(pending_);
      target = appended_lsn_.load(std::memory_order_relaxed);
    }
    bool ok = write_exact(fd_, batch.data(), batch.size());
    if (ok && mode_ == DurabilityMode::kFsync) {
      ok = ::fdatasync(fd_) == 0;
      if (ok) fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!ok) {
      // Freeze durable_lsn where it is, for good: the acks covering this
      // batch and every later one are never released as OK.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      failed_.store(true, std::memory_order_relaxed);
      return;
    }
    flushes_.fetch_add(1, std::memory_order_relaxed);
    durable_lsn_.store(target, std::memory_order_release);
  }

  std::uint64_t appended_lsn() const noexcept {
    return appended_lsn_.load(std::memory_order_relaxed);
  }
  std::uint64_t durable_lsn() const noexcept {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  /// True once a write or fdatasync failed; the log stays poisoned.
  bool failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }

  ShardLogStats stats() const noexcept {
    ShardLogStats s;
    s.appends = appends_.load(std::memory_order_relaxed);
    s.bytes = bytes_.load(std::memory_order_relaxed);
    s.flushes = flushes_.load(std::memory_order_relaxed);
    s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
    s.io_errors = io_errors_.load(std::memory_order_relaxed);
    s.appended_lsn = appended_lsn();
    s.durable_lsn = durable_lsn();
    return s;
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  static bool read_all(int fd, std::vector<unsigned char>* out) {
    struct stat st;
    if (::fstat(fd, &st) != 0) return false;
    out->resize(static_cast<std::size_t>(st.st_size));
    std::size_t off = 0;
    while (off < out->size()) {
      const ssize_t n =
          ::pread(fd, out->data() + off, out->size() - off,
                  static_cast<off_t>(off));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  static bool write_exact(int fd, const unsigned char* p, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, p + off, len - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  DurabilityMode mode_ = DurabilityMode::kOff;
  std::string path_;
  int fd_ = -1;
  std::size_t truncated_bytes_ = 0;

  std::mutex mu_;  ///< guards pending_ + next_lsn_ (worker vs daemon swap)
  std::vector<unsigned char> pending_;
  std::uint64_t next_lsn_ = 1;

  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> io_errors_{0};
  std::atomic<bool> failed_{false};  ///< poisoned by the first I/O error
  std::atomic<std::uint64_t> appended_lsn_{0};
  std::atomic<std::uint64_t> durable_lsn_{0};
};

}  // namespace si::durability
