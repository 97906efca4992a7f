// SimSubstrate: the protocol cores on the discrete-event simulator
// (src/sim/). Every primitive charges its modelled latency as a virtual-time
// wait, spin loops become wait(quiesce_poll) polls, fences cost lat.fence,
// and the abort backoff injects seeded jitter (DESIGN.md section 5b) so
// lockstep fibers cannot kill each other forever.
//
// The simulation is single-threaded — fibers interleave only at wait
// points — so the state array, SGL and subscription flags are plain data.
// Wait placement is part of the observable schedule: each substrate op
// charges exactly one combined wait where the pre-refactor sim backends did,
// which keeps seeded schedules (and the fuzzer's seed replays) byte-stable.
#pragma once

#include <cstdint>
#include <vector>

#include "check/history.hpp"
#include "protocol/substrate.hpp"
#include "sim/engine.hpp"
#include "util/backoff.hpp"
#include "util/slim_lock.hpp"
#include "util/stats.hpp"

namespace si::protocol {

struct SimSubstrateConfig {
  /// > 0 enables the straggler-killing policy: a completed transaction that
  /// has safety-waited longer than this (virtual ns) on one straggler kills
  /// its hardware transaction.
  double straggler_kill_after_ns = 0;

  /// Optional history recording; events are stamped with virtual time, so
  /// multi-threaded sim histories are exact (no wait point separates an
  /// access from its stamp).
  si::check::HistoryRecorder* recorder = nullptr;

  /// Optional tracing/metrics sinks (obs/obs.hpp), stamped with virtual
  /// time — which makes same-seed sim traces byte-identical. The hooks are
  /// pure bookkeeping (no eng_.wait), so enabling them cannot perturb the
  /// schedule.
  si::obs::ObsConfig obs{};

  /// Mirror of RealSubstrateConfig: which lock the SGL models. Both modes
  /// charge identical virtual-time waits (the schedule is part of the
  /// observable contract); kSlim additionally models the futex wake-up
  /// bookkeeping (sgl_sleep_wakeups, kSglWait/kSglWake) and is what enables
  /// shared-mode read-only admission below.
  si::util::SglImpl sgl_impl = si::util::SglImpl::kSlim;

  /// Admit SI-HTM's read-only path in shared mode during an SGL holder's
  /// drain phase. Ignored (always off) under kTtas.
  bool sgl_shared_ro = true;
};

class SimSubstrate {
 public:
  using Config = SimSubstrateConfig;

  /// Spins an optimistic read (Silo) waits on a locked line before aborting.
  /// Each spin costs a full quiesce_poll of virtual time, so the bound is
  /// far tighter than RealSubstrate's; seeded schedules depend on it.
  static constexpr int kLockedReadSpins = 64;

  explicit SimSubstrate(si::sim::SimEngine& eng, SimSubstrateConfig cfg = {})
      : eng_(eng),
        cfg_(cfg),
        states_(static_cast<std::size_t>(eng.threads()), kStateInactive),
        subscribed_(static_cast<std::size_t>(eng.threads()), 0),
        gl_shared_by_(static_cast<std::size_t>(eng.threads()), 0),
        jitter_(eng.threads()) {
    // Mirror of RealSubstrate: the engine emits hw-rollback / hw-kill trace
    // events itself, so both substrates yield the same event taxonomy.
    eng_.set_tracer(cfg_.obs.tracer);
    eng_.set_metrics(cfg_.obs.metrics);
  }

  // --- identity / bookkeeping ---------------------------------------------

  int tid() const { return eng_.current_tid(); }
  int n_threads() const { return eng_.threads(); }
  si::util::ThreadStats& stats(int t) { return eng_.stats(t); }
  si::check::HistoryRecorder* recorder() const { return cfg_.recorder; }
  double rec_now() const { return eng_.now(); }
  const si::obs::ObsConfig* obs() const {
    return cfg_.obs.enabled() ? &cfg_.obs : nullptr;
  }
  double obs_now() const { return eng_.now(); }

  // --- hardware transactions ----------------------------------------------

  void pre_begin(HwMode mode) {
    eng_.wait(mode == HwMode::kRot ? lat().rot_begin : lat().tx_begin);
  }
  void hw_begin(HwMode mode) {
    eng_.tx_begin(mode == HwMode::kRot ? si::sim::SimTxMode::kRot
                                       : si::sim::SimTxMode::kHtm);
    // The engine doesn't expose the running mode; shadow it for the
    // read-tracking decision below. Only consulted inside transaction
    // bodies, so staleness after an abort is harmless.
    cur_mode_ = mode;
  }
  void hw_commit() {
    eng_.wait(lat().tx_commit);
    eng_.tx_commit();
  }
  void check_killed() { eng_.check_killed(); }
  [[noreturn]] void self_abort(si::util::AbortCause cause) {
    eng_.self_abort(cause);
  }
  void kill_tx_of(int t, si::util::AbortCause cause) {
    eng_.kill_thread_tx(t, cause);
  }

  // --- memory --------------------------------------------------------------

  void tx_read(void* dst, const void* src, std::size_t n) {
    // ROT reads are untracked (invisible to later writers); regular HTM
    // tracks them.
    eng_.access(dst, src, n, /*is_write=*/false,
                /*tracked=*/cur_mode_ == HwMode::kHtm,
                si::util::AbortCause::kConflictRead);
  }
  void tx_write(void* dst, const void* src, std::size_t n) {
    eng_.access(dst, src, n, /*is_write=*/true, /*tracked=*/true,
                si::util::AbortCause::kConflictWrite);
  }
  void plain_read(void* dst, const void* src, std::size_t n) {
    eng_.access(dst, src, n, /*is_write=*/false, /*tracked=*/false,
                si::util::AbortCause::kConflictRead);
  }
  void plain_write(void* dst, const void* src, std::size_t n) {
    eng_.access(dst, src, n, /*is_write=*/true, /*tracked=*/false,
                si::util::AbortCause::kConflictWrite);
  }

  // --- state array + logical time -----------------------------------------

  std::uint64_t state(int t) const {
    return states_[static_cast<std::size_t>(t)];
  }
  std::uint64_t timestamp() { return ++clock_ + 1; }  // values > 1

  void announce(std::uint64_t ts) {
    states_[static_cast<std::size_t>(tid())] = ts;
    eng_.wait(lat().state_publish + lat().fence);  // store + sync()
  }
  void set_inactive() {
    states_[static_cast<std::size_t>(tid())] = kStateInactive;
  }
  void release_inactive() {
    eng_.wait(lat().fence + lat().state_publish);  // lwsync + store
    set_inactive();
  }
  void release_fence() { eng_.wait(lat().fence); }
  void publish_completed() {
    eng_.wait(lat().suspend_resume + lat().state_publish + lat().fence);
    states_[static_cast<std::size_t>(tid())] = kStateCompleted;
    eng_.check_killed();  // conflicts during the suspended window
  }
  void snapshot_states(std::uint64_t* out) {
    for (int c = 0; c < n_threads(); ++c) out[c] = state(c);
    eng_.wait(lat().state_scan * n_threads());
  }

  // --- waiting --------------------------------------------------------------

  struct Poller {
    SimSubstrate& s;
    void poll() { s.eng_.wait(s.lat().quiesce_poll); }
  };
  Poller poller() { return {*this}; }

  /// Settles st.wait_cycles from elapsed virtual time at scope exit (the
  /// real substrate counts spin iterations via tick() instead).
  struct WaitScope {
    SimSubstrate& s;
    si::util::ThreadStats& st;
    double start;
    void reset() {}
    void tick() {}
    void poll() { s.eng_.wait(s.lat().quiesce_poll); }
    ~WaitScope() {
      st.wait_cycles += static_cast<std::uint64_t>(s.eng_.now() - start);
    }
  };
  WaitScope wait_scope(si::util::ThreadStats& st) {
    return {*this, st, eng_.now()};
  }

  struct DrainScope {
    SimSubstrate& s;
    void reset() {}
    void poll() { s.eng_.wait(s.lat().quiesce_poll); }
  };
  DrainScope drain_scope(si::util::ThreadStats&) { return {*this}; }

  /// Virtual-time threshold; no rearm — once a straggler is over the
  /// threshold it is re-killed at every poll until it retires, which is
  /// idempotent.
  struct StragglerGuard {
    SimSubstrate& s;
    double since;
    bool armed() const { return s.cfg_.straggler_kill_after_ns > 0; }
    bool should_kill() const {
      return s.eng_.now() - since > s.cfg_.straggler_kill_after_ns;
    }
    void rearm() {}
  };
  StragglerGuard straggler_guard() { return {*this, eng_.now()}; }

  void abort_backoff(int attempt) {
    eng_.wait(jitter_.delay(tid(), attempt, lat().abort_penalty));
  }

  // --- single global lock ---------------------------------------------------

  bool gl_locked() const { return gl_owner_ != -1; }

  /// Update-mode acquire. The contended wait is identical under kSlim and
  /// kTtas (wait placement is part of the observable schedule — see file
  /// comment); kSlim additionally books the sleep/wake-up the futex build
  /// would have performed, as pure bookkeeping that cannot perturb the
  /// schedule.
  void gl_lock() {
    if (gl_owner_ != -1 && slim()) {
      if (const auto* o = obs()) o->sgl_wait(tid(), obs_now());
      eng_.wait_until([this] { return gl_owner_ == -1; }, lat().quiesce_poll);
      ++stats(tid()).sgl_sleep_wakeups;
      if (const auto* o = obs()) o->sgl_wake(tid(), obs_now(), 1);
    } else {
      eng_.wait_until([this] { return gl_owner_ == -1; }, lat().quiesce_poll);
    }
    gl_owner_ = tid();
    eng_.wait(lat().sgl_acquire);
  }

  /// Update -> exclusive: drains shared read-only joiners. Charges no
  /// virtual time of its own when nobody is inside (the common case), so
  /// schedules without shared admission are unchanged.
  void gl_upgrade() {
    gl_upgraded_ = true;
    if (gl_shared_ == 0) return;
    if (slim()) {
      if (const auto* o = obs()) o->sgl_wait(tid(), obs_now());
      eng_.wait_until([this] { return gl_shared_ == 0; }, lat().quiesce_poll);
      ++stats(tid()).sgl_sleep_wakeups;
      if (const auto* o = obs()) o->sgl_wake(tid(), obs_now(), 1);
    } else {
      eng_.wait_until([this] { return gl_shared_ == 0; }, lat().quiesce_poll);
    }
  }

  bool gl_try_shared() {
    if (!slim() || !cfg_.sgl_shared_ro || gl_upgraded_) return false;
    ++gl_shared_;
    gl_shared_by_[static_cast<std::size_t>(tid())] = 1;
    return true;
  }
  void gl_unlock_shared() {
    gl_shared_by_[static_cast<std::size_t>(tid())] = 0;
    --gl_shared_;
  }
  /// True while thread `t` holds the SGL in shared mode. The holder's drain
  /// loop skips such threads — their overlap is bounded by gl_upgrade()'s
  /// shared-count wait instead of the state array (DESIGN.md section 11).
  /// Always false when shared admission is off, so seed schedules are
  /// byte-identical.
  bool gl_in_shared(int t) const {
    return gl_shared_by_[static_cast<std::size_t>(t)] != 0;
  }

  void gl_wait_unlocked(si::util::ThreadStats& st) {
    if (gl_owner_ == -1) return;
    if (slim()) {
      if (const auto* o = obs()) o->sgl_wait(tid(), obs_now());
      eng_.wait_until([this] { return gl_owner_ == -1; }, lat().quiesce_poll);
      ++st.sgl_sleep_wakeups;
      if (const auto* o = obs()) o->sgl_wake(tid(), obs_now(), 1);
    } else {
      eng_.wait_until([this] { return gl_owner_ == -1; }, lat().quiesce_poll);
    }
  }

  void gl_unlock() {
    gl_owner_ = -1;
    gl_upgraded_ = false;
  }
  void gl_subscribe() { subscribed_[static_cast<std::size_t>(tid())] = 1; }
  void gl_unsubscribe() { subscribed_[static_cast<std::size_t>(tid())] = 0; }
  void gl_kill_subscribers(si::util::AbortCause cause) {
    // The store to the lock word invalidates every subscriber.
    for (int c = 0; c < n_threads(); ++c) {
      if (c != tid() && subscribed_[static_cast<std::size_t>(c)] != 0) {
        eng_.kill_thread_tx(c, cause);
      }
    }
  }

  // --- latency hooks --------------------------------------------------------

  void charge_instr_read(std::size_t lines) {
    eng_.wait(lat().instr_read_extra * static_cast<double>(lines));
  }
  void charge_occ(std::size_t entries) {
    eng_.wait(lat().occ_commit_per_entry * static_cast<double>(entries));
  }
  void charge_read(std::size_t lines) {
    eng_.wait((lat().mem_access + lat().occ_read_extra) *
              static_cast<double>(lines));
  }
  void charge_write_buffer() { eng_.wait(lat().mem_access); }

  si::sim::SimEngine& engine() noexcept { return eng_; }
  std::vector<si::util::ThreadStats>& thread_stats() {
    return eng_.thread_stats();
  }

 private:
  const si::sim::SimLatencies& lat() const { return eng_.config().lat; }
  bool slim() const { return cfg_.sgl_impl == si::util::SglImpl::kSlim; }

  si::sim::SimEngine& eng_;
  SimSubstrateConfig cfg_;
  std::vector<std::uint64_t> states_;
  std::vector<unsigned char> subscribed_;
  std::vector<unsigned char> gl_shared_by_;
  si::util::JitterBackoff jitter_;
  std::uint64_t clock_ = 1;
  int gl_owner_ = -1;
  int gl_shared_ = 0;        ///< shared-mode (read-only overlap) joiners
  bool gl_upgraded_ = false; ///< holder moved update -> exclusive
  HwMode cur_mode_ = HwMode::kRot;
};

static_assert(Substrate<SimSubstrate>);

}  // namespace si::protocol
