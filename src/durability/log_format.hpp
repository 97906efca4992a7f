// On-disk format of the per-shard write-ahead log (DESIGN.md section 14).
//
// One file per shard, append-only:
//
//   file header (32 bytes)
//     magic   u64  "SIWAL1\0\0" little-endian
//     shards  u32  shard count of the run that created the file
//     shard   u32  this file's shard index (0..shards-1)
//     reserved u64[2]  zero
//
//   record (40 bytes, repeated)
//     lsn   u64  per-shard log sequence number, 1,2,3,... no gaps
//     id    u64  client correlation id (echoed to the acked response)
//     key   u64  application key (also the shard-routing key)
//     arg   u64  application argument (value of a put; unused for del)
//     op    u16  application opcode
//     flags u16  reserved, zero
//     crc   u32  CRC32C over the preceding 36 bytes
//
// All integers little-endian, matching serve/wire.hpp. Records are
// fixed-size so the torn-tail scan needs no length field to resynchronise:
// a valid prefix is simply the longest run of records that (a) are complete,
// (b) checksum, and (c) carry consecutive LSNs starting from the previous
// record's +1. The first record that fails any of the three ends the trusted
// prefix — everything after it is the torn tail and is discarded by
// recovery. A zero-filled tail (block-rounding padding, preallocated space)
// fails (b) and (c) at its first byte, so it needs no special casing.
//
// This header is pure encode/decode/scan over byte buffers — no I/O — so
// the property tests can cut, flip and splice buffers without a filesystem.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "durability/crc32c.hpp"

namespace si::durability {

inline constexpr std::uint64_t kLogMagic = 0x0000314C41574953ULL;  // "SIWAL1\0\0"
inline constexpr std::size_t kHeaderSize = 32;
inline constexpr std::size_t kRecordSize = 40;
inline constexpr std::size_t kRecordCrcOffset = 36;

namespace detail {

inline void put_u16(unsigned char* p, std::uint16_t v) noexcept {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}
inline void put_u32(unsigned char* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
inline void put_u64(unsigned char* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
inline std::uint16_t get_u16(const unsigned char* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t get_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
inline std::uint64_t get_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace detail

/// One decoded log record (the payload Service::serve_one appends after the
/// transaction committed).
struct LogRecord {
  std::uint64_t lsn = 0;
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::uint64_t arg = 0;
  std::uint16_t op = 0;
  std::uint16_t flags = 0;
};

inline void encode_header(unsigned char out[kHeaderSize], std::uint32_t shards,
                          std::uint32_t shard) noexcept {
  std::memset(out, 0, kHeaderSize);
  detail::put_u64(out, kLogMagic);
  detail::put_u32(out + 8, shards);
  detail::put_u32(out + 12, shard);
}

struct LogHeader {
  std::uint32_t shards = 0;
  std::uint32_t shard = 0;
};

inline bool decode_header(const unsigned char* p, std::size_t len,
                          LogHeader* out) noexcept {
  if (len < kHeaderSize) return false;
  if (detail::get_u64(p) != kLogMagic) return false;
  out->shards = detail::get_u32(p + 8);
  out->shard = detail::get_u32(p + 12);
  return out->shards > 0 && out->shard < out->shards;
}

inline void encode_record(unsigned char out[kRecordSize],
                          const LogRecord& r) noexcept {
  detail::put_u64(out, r.lsn);
  detail::put_u64(out + 8, r.id);
  detail::put_u64(out + 16, r.key);
  detail::put_u64(out + 24, r.arg);
  detail::put_u16(out + 32, r.op);
  detail::put_u16(out + 34, r.flags);
  detail::put_u32(out + kRecordCrcOffset,
                  crc32c(out, kRecordCrcOffset));
}

/// Decodes one record; returns false on CRC mismatch (torn or corrupt).
inline bool decode_record(const unsigned char* p, LogRecord* out) noexcept {
  if (crc32c(p, kRecordCrcOffset) != detail::get_u32(p + kRecordCrcOffset)) {
    return false;
  }
  out->lsn = detail::get_u64(p);
  out->id = detail::get_u64(p + 8);
  out->key = detail::get_u64(p + 16);
  out->arg = detail::get_u64(p + 24);
  out->op = detail::get_u16(p + 32);
  out->flags = detail::get_u16(p + 34);
  return true;
}

/// Why the trusted prefix ended.
enum class ScanEnd : std::uint8_t {
  kEof = 0,        ///< clean end: file is exactly header + N records
  kTorn = 1,       ///< partial record or CRC mismatch (crash tail)
  kLsnGap = 2,     ///< complete, checksummed record with a non-consecutive LSN
  kBadHeader = 3,  ///< magic/shape mismatch; nothing trusted
};

struct ScanResult {
  LogHeader header{};
  std::vector<LogRecord> records;  ///< the trusted prefix, in LSN order
  ScanEnd end = ScanEnd::kEof;
  std::size_t valid_bytes = 0;   ///< header + trusted records
  std::size_t torn_bytes = 0;    ///< bytes past the trusted prefix
  std::uint64_t last_lsn = 0;    ///< 0 when the file holds no records

  bool header_ok() const noexcept { return end != ScanEnd::kBadHeader; }
};

/// Scans a whole log image. `first_lsn` is the LSN the first record must
/// carry (fresh logs start at 1; a segment continuing after recovery would
/// pass last_lsn + 1). Never throws; a torn or gapped tail is reported, not
/// an error — deciding whether a gap is fatal is the caller's policy
/// (recovery discards, si_logdump -strict fails).
inline ScanResult scan_log(const unsigned char* data, std::size_t len,
                           std::uint64_t first_lsn = 1) {
  ScanResult r;
  if (!decode_header(data, len, &r.header)) {
    r.end = ScanEnd::kBadHeader;
    r.torn_bytes = len;
    return r;
  }
  std::size_t off = kHeaderSize;
  std::uint64_t expect = first_lsn;
  r.end = ScanEnd::kEof;
  while (off + kRecordSize <= len) {
    LogRecord rec;
    if (!decode_record(data + off, &rec)) {
      r.end = ScanEnd::kTorn;
      break;
    }
    if (rec.lsn != expect) {
      r.end = ScanEnd::kLsnGap;
      break;
    }
    r.records.push_back(rec);
    r.last_lsn = rec.lsn;
    ++expect;
    off += kRecordSize;
  }
  if (r.end == ScanEnd::kEof && off < len) r.end = ScanEnd::kTorn;
  r.valid_bytes = off;
  r.torn_bytes = len - off;
  return r;
}

}  // namespace si::durability
