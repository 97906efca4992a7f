// Observability facade the protocol cores talk to.
//
// ObsConfig bundles the two optional sinks (Tracer, Metrics) behind one
// nullable pointer in each substrate config, mirroring the HistoryRecorder
// hook (DESIGN.md section 7): cores guard every site with
//
//   double t0 = 0;
//   if (const auto* o = sub_.obs()) { t0 = sub_.obs_now(); o->tx_begin(...); }
//
// so the disabled cost is one branch. The lifecycle methods below are the
// single place that decides which trace events and which histogram updates a
// protocol state change produces — the four cores just name the transition.
//
// Hooks are pure bookkeeping by contract: they never block, allocate, or
// touch substrate time/scheduling. Under the simulator that is what keeps
// the event schedule — and therefore committed state and the trace itself —
// byte-identical with tracing on or off (asserted by equivalence_test).
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace si::obs {

struct ObsConfig {
  Tracer* tracer = nullptr;
  Metrics* metrics = nullptr;

  bool enabled() const noexcept {
    return tracer != nullptr || metrics != nullptr;
  }

  // --- transaction lifecycle -------------------------------------------------

  void tx_begin(int tid, double now, bool ro, bool sgl = false) const noexcept {
    if (tracer) {
      std::uint32_t arg = 0;
      if (ro) arg |= kBeginRo;
      if (sgl) arg |= kBeginSgl;
      tracer->emit(tid, TraceEventKind::kBegin, now, arg);
    }
  }

  /// `begin_ns` is the tx_begin timestamp of the winning attempt; `attempts`
  /// counts all attempts including this one (1 = committed first try).
  void tx_commit(int tid, double now, double begin_ns,
                 std::uint32_t attempts) const noexcept {
    if (tracer) tracer->emit(tid, TraceEventKind::kCommit, now, attempts);
    if (metrics) {
      auto& m = metrics->of(tid);
      m.commit_latency.record(delta_ns(begin_ns, now));
      m.retries.record(attempts);
    }
  }

  void tx_abort(int tid, double now, si::util::AbortCause cause) const noexcept {
    if (tracer) {
      tracer->emit(tid, TraceEventKind::kAbort, now,
                   static_cast<std::uint32_t>(cause));
    }
    if (metrics) metrics->of(tid).taxonomy.bump(taxonomy_of(cause));
  }

  // --- suspended publish window ---------------------------------------------

  void suspend(int tid, double now) const noexcept {
    if (tracer) tracer->emit(tid, TraceEventKind::kSuspend, now);
  }

  void resume(int tid, double now) const noexcept {
    if (tracer) tracer->emit(tid, TraceEventKind::kResume, now);
  }

  // --- safety wait (quiescence, Algorithm 1) --------------------------------

  void wait_enter(int tid, double now, std::uint32_t stragglers) const noexcept {
    if (tracer) {
      tracer->emit(tid, TraceEventKind::kSafetyWaitEnter, now, stragglers);
    }
  }

  void straggler_retire(int tid, double now, int straggler) const noexcept {
    if (tracer) {
      tracer->emit(tid, TraceEventKind::kStragglerRetire, now,
                   static_cast<std::uint32_t>(straggler));
    }
  }

  /// `enter_ns` is the matching wait_enter timestamp.
  void wait_exit(int tid, double now, double enter_ns) const noexcept {
    if (tracer) tracer->emit(tid, TraceEventKind::kSafetyWaitExit, now);
    if (metrics) metrics->of(tid).safety_wait.record(delta_ns(enter_ns, now));
  }

  // --- serving layer (src/serve) --------------------------------------------

  /// A shard worker took a batch; `depth` is the queue depth it saw
  /// (batch included). One event per batch, not per request.
  void req_dequeue(int tid, double now, std::uint32_t depth) const noexcept {
    if (tracer) tracer->emit(tid, TraceEventKind::kReqDequeue, now, depth);
    if (metrics) metrics->of(tid).queue_depth.record(depth);
  }

  /// A request completed; `enqueue_ns` is its Service::submit timestamp, so
  /// the recorded latency covers queueing + execution. The trace arg packs
  /// the app opcode above the status byte ((op << 8) | status), so per-op
  /// latency breakdowns (point ops vs range scans) fall out of the trace.
  void req_complete(int tid, double now, double enqueue_ns, std::uint16_t op,
                    std::uint32_t status) const noexcept {
    if (tracer) {
      tracer->emit(tid, TraceEventKind::kReqComplete, now,
                   static_cast<std::uint32_t>(op) << 8 | (status & 0xFF));
    }
    if (metrics) {
      metrics->of(tid).request_latency.record(delta_ns(enqueue_ns, now));
    }
  }

  // --- single-global-lock fall-back -----------------------------------------

  void sgl_acquire(int tid, double now) const noexcept {
    if (tracer) tracer->emit(tid, TraceEventKind::kSglAcquire, now);
    if (metrics) {
      metrics->of(tid).taxonomy.bump(TaxonomyCounter::kSglFallback);
    }
  }

  void sgl_drain_done(int tid, double now) const noexcept {
    if (tracer) tracer->emit(tid, TraceEventKind::kSglDrainDone, now);
  }

  /// About to block on the SGL (slim-lock park, or the sim's modelled wait).
  void sgl_wait(int tid, double now) const noexcept {
    if (tracer) tracer->emit(tid, TraceEventKind::kSglWait, now);
  }

  /// Woken after sleeping on the SGL; `wakeups` counts the futex wake-ups
  /// slept through in the blocking section that just ended.
  void sgl_wake(int tid, double now, std::uint32_t wakeups) const noexcept {
    if (tracer) tracer->emit(tid, TraceEventKind::kSglWake, now, wakeups);
  }

  /// Metrics-only (the commit event already closes the span in the trace);
  /// `acquire_ns` is the matching sgl_acquire timestamp.
  void sgl_release(int tid, double now, double acquire_ns) const noexcept {
    if (metrics) metrics->of(tid).sgl_hold.record(delta_ns(acquire_ns, now));
  }

  // --- adaptation events (metrics-only) ---------------------------------------
  //
  // This one deliberately emits no trace event: it is a taxonomy counter
  // for the live endpoint, and keeping it out of the trace keeps the
  // checked-in trace schema and the golden sim traces byte-stable.

  /// A read-only transaction was admitted in SGL shared mode during a drain
  /// instead of waiting for the lock (DESIGN.md section 11).
  void ro_shared_admit(int tid) const noexcept {
    if (metrics) {
      metrics->of(tid).taxonomy.bump(TaxonomyCounter::kSharedRoAdmit);
    }
  }

 private:
  static std::uint64_t delta_ns(double from, double to) noexcept {
    const double d = to - from;
    return d > 0 ? static_cast<std::uint64_t>(d) : 0;
  }
};

/// Balances safety-wait enter/exit around the quiescence phase. The exit
/// event fires from the destructor, so an abort unwinding out of the wait
/// (e.g. the ROT commit failing after quiescence) still closes the span
/// before the core's catch block emits the abort — every enter has a
/// matching exit, which the exporter and the trace schema rely on.
template <typename Substrate>
class WaitSpanGuard {
 public:
  WaitSpanGuard(const Substrate& sub, int tid, std::uint32_t stragglers)
      : sub_(sub), tid_(tid), obs_(sub.obs()) {
    if (obs_) {
      enter_ns_ = sub_.obs_now();
      obs_->wait_enter(tid_, enter_ns_, stragglers);
    }
  }

  WaitSpanGuard(const WaitSpanGuard&) = delete;
  WaitSpanGuard& operator=(const WaitSpanGuard&) = delete;

  ~WaitSpanGuard() {
    if (obs_) obs_->wait_exit(tid_, sub_.obs_now(), enter_ns_);
  }

  void straggler_retired(int straggler) const noexcept {
    if (obs_) obs_->straggler_retire(tid_, sub_.obs_now(), straggler);
  }

 private:
  const Substrate& sub_;
  int tid_;
  const ObsConfig* obs_;
  double enter_ns_ = 0.0;
};

}  // namespace si::obs
