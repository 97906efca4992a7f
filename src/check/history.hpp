// History recording for the SI checker (DESIGN.md section "Correctness
// tooling").
//
// A HistoryRecorder captures the transactional history of a run as a flat
// event log: begin / read(addr,val) / write(addr,val) / commit / abort, each
// stamped with a monotonically increasing logical sequence number (an atomic
// counter, the recording-order analogue of the POWER timebase) plus an
// optional virtual-time stamp from the simulator. The offline verifier
// (check/verify.hpp) replays the log and decides whether the history is
// admissible under Snapshot Isolation.
//
// The recorder is attached to a backend through its substrate config
// (RealSubstrateConfig / SimSubstrateConfig::recorder, or
// RuntimeConfig::recorder); a null pointer means recording is off and the
// hooks cost a single predictable branch.
//
// Ordering guarantee: inside the deterministic simulator every hook runs
// with no intervening fiber switch between a data access taking effect and
// its event being stamped, so the log's sequence order *is* the execution
// order and the verifier's verdict is exact. On the real-thread backends the
// stamp and the access are two separate instructions, so multi-threaded real
// histories are diagnostic only; single-threaded ones remain exact.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace si::check {

enum class EventKind : std::uint8_t {
  kInit,    ///< pre-run declaration of a location's initial value
  kBegin,   ///< transaction begin (one per attempt)
  kRead,    ///< value returned to the transaction body
  kWrite,   ///< value the transaction wrote (pending until its commit)
  kCommit,  ///< the attempt's writes became the committed state
  kAbort,   ///< the attempt rolled back; its writes never committed
};

/// One history entry. POD so logs can be compared and serialized bytewise.
struct Event {
  std::uint64_t seq = 0;  ///< global logical stamp; total order of the log
  double vtime = 0.0;     ///< simulator virtual time (0 on real backends)
  std::int32_t tid = -1;  ///< recording thread, -1 for kInit
  EventKind kind = EventKind::kInit;
  bool ro = false;          ///< kBegin: declared read-only
  std::uint32_t len = 0;    ///< access length in bytes
  std::uintptr_t addr = 0;  ///< accessed address (never dereferenced offline)
  std::uint64_t value = 0;  ///< encode_value() of the bytes read/written

  friend bool operator==(const Event&, const Event&) = default;
};

/// 64-bit value fingerprint: accesses up to 8 bytes are kept verbatim
/// (zero-extended), larger ones are FNV-1a hashed. Collisions can only hide
/// a violation, never invent one.
inline std::uint64_t encode_value(const void* bytes, std::size_t len) noexcept {
  if (len <= 8) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes, len);
    return v;
  }
  const auto* p = static_cast<const unsigned char*>(bytes);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

class HistoryRecorder {
 public:
  explicit HistoryRecorder(int max_threads)
      : per_thread_(static_cast<std::size_t>(max_threads)) {
    for (auto& buf : per_thread_) buf.reserve(1024);
  }

  /// Declares a location's pre-run value so the verifier can judge reads
  /// that precede the first committed write. Call before the run starts
  /// (single-threaded phase only).
  void init(const void* addr, std::size_t len, const void* bytes) {
    Event e;
    e.seq = next_seq();
    e.kind = EventKind::kInit;
    e.addr = reinterpret_cast<std::uintptr_t>(addr);
    e.len = static_cast<std::uint32_t>(len);
    e.value = encode_value(bytes, len);
    init_events_.push_back(e);
  }

  void begin(int tid, bool ro, double vtime = 0.0) {
    Event e = stamp(tid, EventKind::kBegin, vtime);
    e.ro = ro;
    push(tid, e);
  }

  void read(int tid, const void* addr, std::size_t len, const void* bytes,
            double vtime = 0.0) {
    push(tid, access(tid, EventKind::kRead, addr, len, bytes, vtime));
  }

  void write(int tid, const void* addr, std::size_t len, const void* bytes,
             double vtime = 0.0) {
    push(tid, access(tid, EventKind::kWrite, addr, len, bytes, vtime));
  }

  void commit(int tid, double vtime = 0.0) {
    push(tid, stamp(tid, EventKind::kCommit, vtime));
  }

  void abort(int tid, double vtime = 0.0) {
    push(tid, stamp(tid, EventKind::kAbort, vtime));
  }

  /// All recorded events in logical (seq) order.
  std::vector<Event> merged() const;

  std::size_t events_recorded() const;

  /// Resets the log (not thread-safe; call between runs).
  void clear();

 private:
  std::uint64_t next_seq() {
    return seq_.fetch_add(1, std::memory_order_relaxed);
  }

  Event stamp(int tid, EventKind kind, double vtime) {
    Event e;
    e.seq = next_seq();
    e.vtime = vtime;
    e.tid = tid;
    e.kind = kind;
    return e;
  }

  Event access(int tid, EventKind kind, const void* addr, std::size_t len,
               const void* bytes, double vtime) {
    Event e = stamp(tid, kind, vtime);
    e.addr = reinterpret_cast<std::uintptr_t>(addr);
    e.len = static_cast<std::uint32_t>(len);
    e.value = encode_value(bytes, len);
    return e;
  }

  void push(int tid, const Event& e) {
    assert(tid >= 0 && static_cast<std::size_t>(tid) < per_thread_.size());
    per_thread_[static_cast<std::size_t>(tid)].push_back(e);
  }

  std::atomic<std::uint64_t> seq_{1};
  std::vector<Event> init_events_;
  std::vector<std::vector<Event>> per_thread_;
};

/// Renders an event log (or fragment) as one line per event, for failure
/// dumps and replay comparison.
std::string dump(const std::vector<Event>& events);

/// Hand-assembles histories for unit tests and documentation; addresses are
/// opaque numbers (the verifier never dereferences them).
class HistoryBuilder {
 public:
  HistoryBuilder& init(std::uintptr_t addr, std::uint64_t value,
                       std::uint32_t len = 8) {
    Event e;
    e.seq = seq_++;
    e.addr = addr;
    e.len = len;
    e.value = value;
    ev_.push_back(e);
    return *this;
  }
  HistoryBuilder& begin(int tid, bool ro = false) {
    Event e = stamp(tid, EventKind::kBegin);
    e.ro = ro;
    ev_.push_back(e);
    return *this;
  }
  HistoryBuilder& read(int tid, std::uintptr_t addr, std::uint64_t value,
                       std::uint32_t len = 8) {
    ev_.push_back(access(tid, EventKind::kRead, addr, value, len));
    return *this;
  }
  HistoryBuilder& write(int tid, std::uintptr_t addr, std::uint64_t value,
                        std::uint32_t len = 8) {
    ev_.push_back(access(tid, EventKind::kWrite, addr, value, len));
    return *this;
  }
  HistoryBuilder& commit(int tid) {
    ev_.push_back(stamp(tid, EventKind::kCommit));
    return *this;
  }
  HistoryBuilder& abort(int tid) {
    ev_.push_back(stamp(tid, EventKind::kAbort));
    return *this;
  }
  const std::vector<Event>& events() const noexcept { return ev_; }

 private:
  Event stamp(int tid, EventKind kind) {
    Event e;
    e.seq = seq_++;
    e.tid = tid;
    e.kind = kind;
    return e;
  }
  Event access(int tid, EventKind kind, std::uintptr_t addr,
               std::uint64_t value, std::uint32_t len) {
    Event e = stamp(tid, kind);
    e.addr = addr;
    e.len = len;
    e.value = value;
    return e;
  }

  std::uint64_t seq_ = 1;
  std::vector<Event> ev_;
};

}  // namespace si::check
