// Transaction-lifecycle tracer: per-thread lock-free ring buffers of
// fixed-size records (DESIGN.md section 8).
//
// Design constraints, in order:
//  * zero allocation and no locks on the hot path — emit() writes one slot of
//    the calling thread's preallocated ring and bumps a relaxed atomic
//    cursor; nothing else;
//  * thread-safe by partitioning, not by synchronisation — a thread only ever
//    emits into its own buffer (cross-thread events such as hw-kill are
//    stamped into the *initiator's* buffer with the victim in the arg field),
//    so concurrent emitters never share a slot. The cursor is atomic only so
//    other threads can read emitted()/dropped() counters mid-run;
//  * bounded memory — the ring keeps the most recent `capacity` records per
//    thread and counts what it overwrote (dropped());
//  * off by default — every emit site tests a nullable pointer first, so a
//    run without a Tracer in its ObsConfig pays one branch per event.
//
// Timestamps are nanoseconds as double: virtual time inside the simulator
// (deterministic, hence byte-stable traces), wall-clock monotonic time
// (wall_ns()) on real threads. Both substrates share one record format, so
// every exporter and summary works on either. The logical epoch is a
// per-thread transaction-attempt counter, incremented by each kBegin: all
// events of one attempt carry the same (tid, epoch) pair.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace si::obs {

/// Transaction-lifecycle event taxonomy (DESIGN.md section 8). The first ten
/// kinds are emitted by the protocol cores through substrate hooks; the two
/// kHw* kinds come from the execution layer itself (src/p8htm on real
/// threads, src/sim in the simulator) and mark the instant a hardware
/// transaction's rollback happened / a kill was initiated — which the cores
/// only discover later, at their next poll point. The kReq* kinds come from
/// the serving layer (src/serve): its shard workers own the same tid slots
/// as the backend threads they run on, so request events interleave with the
/// transaction lifecycle of the work they caused.
enum class TraceEventKind : std::uint8_t {
  kBegin = 0,          ///< attempt starts; arg: TxStartInfo bits
  kSuspend,            ///< hardware transaction suspended (publish window)
  kResume,             ///< resumed after the suspended publish
  kSafetyWaitEnter,    ///< quiescence wait starts (Algorithm 1 line 16)
  kStragglerRetire,    ///< one straggler left the wait set; arg: its tid
  kSafetyWaitExit,     ///< quiescence wait done (possibly by abort unwind)
  kCommit,             ///< attempt committed
  kAbort,              ///< attempt aborted; arg: AbortCause
  kSglAcquire,         ///< single global lock acquired (fall-back path)
  kSglDrainDone,       ///< SGL holder finished draining in-flight tx
  kSglWait,            ///< blocked on the SGL (about to park on the futex)
  kSglWake,            ///< woken after sleeping on the SGL; arg: wake-ups
  kHwRollback,         ///< execution layer rolled a tx back; arg: cause<<16|victim
  kHwKill,             ///< kill initiated against another thread; arg: victim tid
  kReqDequeue,         ///< serve: shard worker took a batch; arg: queue depth
  kReqComplete,        ///< serve: request completed; arg: (app op << 8) | Status
  kKindCount_,
};

std::string_view to_string(TraceEventKind kind) noexcept;

/// kBegin arg bits: which path the attempt runs on.
inline constexpr std::uint32_t kBeginRo = 1u;   ///< read-only fast path
inline constexpr std::uint32_t kBeginSgl = 2u;  ///< single-global-lock path

/// One ring slot. POD, 32 bytes, compared bytewise by tests.
struct TraceRecord {
  double ts_ns = 0.0;       ///< virtual ns (sim) or wall_ns() (real)
  std::uint64_t epoch = 0;  ///< per-thread attempt counter at emit time
  std::uint32_t arg = 0;    ///< kind-specific payload (see TraceEventKind)
  std::int32_t tid = -1;    ///< emitting thread
  TraceEventKind kind = TraceEventKind::kBegin;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Monotonic wall-clock nanoseconds since the first call in this process.
/// The one timebase every real-thread emitter shares, so records from the
/// substrate and from the P8-HTM emulation interleave correctly.
///
/// On x86-64 this reads the TSC (~7 ns vs ~28 ns for steady_clock, and the
/// cores stamp several events per transaction), scaled by a once-per-process
/// calibration against steady_clock; constant/nonstop TSC — standard on
/// anything current — keeps it monotonic across frequency changes and cores.
#if defined(__x86_64__)
inline double wall_ns() noexcept {
  struct Calib {
    std::uint64_t tsc0;
    double ns_per_tick;
    Calib() noexcept : tsc0(__builtin_ia32_rdtsc()) {
      const auto t0 = std::chrono::steady_clock::now();
      double elapsed = 0;
      do {  // ~200 us window: calibrates to well under 1% of tick rate
        elapsed = std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      } while (elapsed < 2e5);
      ns_per_tick =
          elapsed / static_cast<double>(__builtin_ia32_rdtsc() - tsc0);
    }
  };
  static const Calib c;
  return static_cast<double>(__builtin_ia32_rdtsc() - c.tsc0) * c.ns_per_tick;
}
#else
inline double wall_ns() noexcept {
  static const auto base = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - base)
      .count();
}
#endif

class Tracer {
 public:
  /// `capacity` (slots per thread) is rounded up to a power of two.
  explicit Tracer(int max_threads, std::size_t capacity = 1u << 14)
      : cap_(round_pow2(capacity)),
        bufs_(static_cast<std::size_t>(max_threads)) {
    for (auto& b : bufs_) b.slots.resize(cap_);
  }

  /// Records one event for `tid`. Must be called by the thread that owns
  /// `tid`'s buffer (or, for kHw* events, by the initiating thread under its
  /// OWN tid). Wait-free: one slot store plus a relaxed cursor bump.
  void emit(int tid, TraceEventKind kind, double ts_ns,
            std::uint32_t arg = 0) noexcept {
    ThreadBuf& b = bufs_[static_cast<std::size_t>(tid)];
    if (kind == TraceEventKind::kBegin) ++b.epoch;
    const std::uint64_t c = b.cursor.load(std::memory_order_relaxed);
    TraceRecord& r = b.slots[c & (cap_ - 1)];
    r.ts_ns = ts_ns;
    r.epoch = b.epoch;
    r.arg = arg;
    r.tid = tid;
    r.kind = kind;
    b.cursor.store(c + 1, std::memory_order_relaxed);
  }

  int threads() const noexcept { return static_cast<int>(bufs_.size()); }
  std::size_t capacity() const noexcept { return cap_; }

  /// Events emitted by `tid` so far (readable from any thread mid-run).
  std::uint64_t emitted(int tid) const noexcept {
    return bufs_[static_cast<std::size_t>(tid)].cursor.load(
        std::memory_order_relaxed);
  }

  /// Events overwritten by ring wrap-around (oldest-first loss).
  std::uint64_t dropped(int tid) const noexcept {
    const std::uint64_t c = emitted(tid);
    return c > cap_ ? c - cap_ : 0;
  }

  /// Retained records of `tid`, oldest first. Call only after the emitting
  /// thread quiesced: slot payloads are plain stores (see file comment).
  std::vector<TraceRecord> drain(int tid) const {
    const ThreadBuf& b = bufs_[static_cast<std::size_t>(tid)];
    const std::uint64_t c = b.cursor.load(std::memory_order_relaxed);
    const std::uint64_t n = c < cap_ ? c : cap_;
    std::vector<TraceRecord> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = c - n; i < c; ++i) {
      out.push_back(b.slots[i & (cap_ - 1)]);
    }
    return out;
  }

 private:
  static std::size_t round_pow2(std::size_t v) noexcept {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  /// Padded so adjacent threads' cursors never share a cache line.
  struct alignas(128) ThreadBuf {
    std::atomic<std::uint64_t> cursor{0};
    std::uint64_t epoch = 0;  ///< owner-thread only
    std::vector<TraceRecord> slots;
  };

  std::size_t cap_;
  std::vector<ThreadBuf> bufs_;
};

inline std::string_view to_string(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kBegin: return "begin";
    case TraceEventKind::kSuspend: return "suspend";
    case TraceEventKind::kResume: return "resume";
    case TraceEventKind::kSafetyWaitEnter: return "safety-wait-enter";
    case TraceEventKind::kStragglerRetire: return "straggler-retire";
    case TraceEventKind::kSafetyWaitExit: return "safety-wait-exit";
    case TraceEventKind::kCommit: return "commit";
    case TraceEventKind::kAbort: return "abort";
    case TraceEventKind::kSglAcquire: return "sgl-acquire";
    case TraceEventKind::kSglDrainDone: return "sgl-drain-done";
    case TraceEventKind::kSglWait: return "sgl-wait";
    case TraceEventKind::kSglWake: return "sgl-wake";
    case TraceEventKind::kHwRollback: return "hw-rollback";
    case TraceEventKind::kHwKill: return "hw-kill";
    case TraceEventKind::kReqDequeue: return "req-dequeue";
    case TraceEventKind::kReqComplete: return "req-complete";
    default: return "?";
  }
}

}  // namespace si::obs
