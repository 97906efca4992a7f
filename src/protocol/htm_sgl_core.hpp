// Plain-HTM baseline, transcribed once: every transaction runs as a regular
// (read- and write-tracked) hardware transaction with a single-global-lock
// fall-back, the standard lock-elision scheme the paper calls "HTM" in
// section 4.
//
// Unlike SI-HTM, the SGL is subscribed *early*: each transaction reads the
// lock word at begin, so a later acquisition of the lock invalidates the
// subscribed line and kills every in-flight transaction (these show up as
// the paper's "non-transactional" aborts).
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/obs.hpp"
#include "p8htm/abort.hpp"
#include "protocol/substrate.hpp"
#include "util/stats.hpp"

namespace si::protocol {

struct HtmSglCoreConfig {
  int retries = 10;
};

template <Substrate S>
class HtmSglCore {
 public:
  using Config = HtmSglCoreConfig;

  /// Access handle for one attempt (hardware path or SGL path).
  class Tx {
   public:
    template <typename T>
    T read(const T* addr) {
      T out;
      read_bytes(&out, addr, sizeof(T));
      return out;
    }
    template <typename T>
    void write(T* addr, const T& value) {
      write_bytes(addr, &value, sizeof(T));
    }
    void read_bytes(void* dst, const void* src, std::size_t n) {
      if (hw_) {
        sub_.tx_read(dst, src, n);
      } else {
        sub_.plain_read(dst, src, n);
      }
      if (auto* r = sub_.recorder()) r->read(sub_.tid(), src, n, dst, sub_.rec_now());
    }
    void write_bytes(void* dst, const void* src, std::size_t n) {
      if (hw_) {
        sub_.tx_write(dst, src, n);
      } else {
        sub_.plain_write(dst, src, n);
      }
      if (auto* r = sub_.recorder()) r->write(sub_.tid(), dst, n, src, sub_.rec_now());
    }

    Tx(S& sub, bool hw) : sub_(sub), hw_(hw) {}

   private:
    S& sub_;
    bool hw_;
  };

  HtmSglCore(S& sub, HtmSglCoreConfig cfg = {}) : sub_(sub), cfg_(cfg) {}

  /// Runs `body` as one serializable transaction. `is_ro` is accepted for
  /// interface parity but ignored: plain HTM has no read-only fast path.
  template <typename Body>
  void execute(bool is_ro, Body&& body) {
    (void)is_ro;
    const int tid = sub_.tid();
    si::util::ThreadStats& st = sub_.stats(tid);

    for (int attempt = 0; attempt < cfg_.retries; ++attempt) {
      // Don't waste an attempt on a held SGL: sleep (slim lock) until free.
      sub_.gl_wait_unlocked(st);
      sub_.pre_begin(HwMode::kHtm);
      rec_begin(tid);
      const double ot0 = obs_begin(tid, /*sgl=*/false);
      sub_.hw_begin(HwMode::kHtm);
      bool committed = true;
      si::util::AbortCause cause = si::util::AbortCause::kNone;
      try {
        // Early subscription: track the lock word, then check its value.
        // The registration is ordered against an acquirer's kill sweep — we
        // either get killed by the sweep or observe the lock as taken here.
        sub_.gl_subscribe();
        if (sub_.gl_locked()) {
          sub_.self_abort(si::util::AbortCause::kKilledBySgl);
        }
        Tx tx(sub_, /*hw=*/true);
        body(tx);
        sub_.hw_commit();
        rec_commit(tid);
        obs_commit(tid, ot0, static_cast<std::uint32_t>(attempt + 1));
      } catch (const si::p8::TxAbort& abort) {
        // No substrate wait inside the catch (see sihtm_core.hpp).
        rec_abort(tid);
        obs_abort(tid, abort.cause);
        st.record_abort(abort.cause);
        committed = false;
        cause = abort.cause;
      }
      sub_.gl_unsubscribe();
      if (committed) {
        ++st.commits;
        return;
      }
      if (cause == si::util::AbortCause::kCapacity) {
        break;  // persistent failure: retrying cannot help, take the SGL
      }
      sub_.abort_backoff(attempt);
    }

    sub_.gl_lock();
    // Nothing ever joins this protocol's SGL in shared mode (there is no
    // read-only overlap path), so the upgrade is immediate; it still runs so
    // the body's plain writes execute in exclusive mode like every holder.
    sub_.gl_upgrade();
    double t_acq = 0;
    if (const auto* o = sub_.obs()) {
      t_acq = sub_.obs_now();
      o->sgl_acquire(tid, t_acq);
    }
    // Abort every subscribed transaction, as the store to the lock word does
    // on real hardware. Early subscription means there is nothing to drain —
    // the kill sweep IS this protocol's quiescence — so the drain-done event
    // follows immediately.
    sub_.gl_kill_subscribers(si::util::AbortCause::kKilledBySgl);
    if (const auto* o = sub_.obs()) o->sgl_drain_done(tid, sub_.obs_now());
    rec_begin(tid);
    const double ot0 = obs_begin(tid, /*sgl=*/true);
    Tx tx(sub_, /*hw=*/false);
    body(tx);
    rec_commit(tid);
    obs_commit(tid, ot0, static_cast<std::uint32_t>(cfg_.retries + 1));
    sub_.gl_unlock();
    if (const auto* o = sub_.obs()) o->sgl_release(tid, sub_.obs_now(), t_acq);
    ++st.commits;
    ++st.sgl_commits;
  }

  S& substrate() noexcept { return sub_; }

 private:
  void rec_begin(int tid) {
    if (auto* r = sub_.recorder()) r->begin(tid, /*ro=*/false, sub_.rec_now());
  }
  void rec_commit(int tid) {
    if (auto* r = sub_.recorder()) r->commit(tid, sub_.rec_now());
  }
  void rec_abort(int tid) {
    if (auto* r = sub_.recorder()) r->abort(tid, sub_.rec_now());
  }

  double obs_begin(int tid, bool sgl) {
    if (const auto* o = sub_.obs()) {
      const double now = sub_.obs_now();
      o->tx_begin(tid, now, /*ro=*/false, sgl);
      return now;
    }
    return 0;
  }
  void obs_commit(int tid, double t0, std::uint32_t attempts) {
    if (const auto* o = sub_.obs()) o->tx_commit(tid, sub_.obs_now(), t0, attempts);
  }
  void obs_abort(int tid, si::util::AbortCause cause) {
    if (const auto* o = sub_.obs()) o->tx_abort(tid, sub_.obs_now(), cause);
  }

  S& sub_;
  HtmSglCoreConfig cfg_;
};

}  // namespace si::protocol
