// AIMD admission controller for the serving layer (DESIGN.md sections 9
// and 11).
//
// Replaces the static per-shard admit watermark with a feedback loop over
// the telemetry the obs layer already collects: each epoch the controller
// diffs the merged request_latency histogram (and the retries histogram,
// whose mean is attempts-per-commit and therefore encodes the abort rate)
// against the previous epoch's snapshot and moves the watermark
//
//  * additively up   (+add_step, capped at queue capacity) while the
//    epoch's p99 stays at or under target and aborts are quiet — probing
//    for capacity the way TCP probes for bandwidth;
//  * multiplicatively down (*cut_factor, floored at min_watermark) the
//    moment the epoch p99 spikes past target or the abort rate crosses
//    abort_cut_pct — shedding load before the queue-delay tail compounds.
//
// The controller itself is single-threaded arithmetic with no locks; the
// Service owns one instance and drives it from a dedicated epoch-tick
// thread, fanning the decision out to every shard queue's atomic watermark.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/histogram.hpp"

namespace si::serve {

struct AimdConfig {
  bool enabled = false;  ///< off = the static watermark behaviour, unchanged

  std::uint64_t target_p99_ns = 1'000'000;  ///< epoch p99 goal (1 ms default)
  std::uint32_t epoch_us = 5'000;           ///< controller tick period

  std::size_t min_watermark = 8;   ///< floor a cut can never go below
  std::size_t add_step = 16;       ///< additive raise per good epoch
  double cut_factor = 0.5;         ///< multiplicative decrease on a bad epoch
  double abort_cut_pct = 75.0;     ///< abort-rate (% of attempts) that cuts
};

/// Controller state, exposed verbatim in si_serve -json output and the
/// si-bench-v1 serve records.
struct AimdState {
  std::size_t watermark = 0;
  std::uint64_t epochs = 0;  ///< controller ticks evaluated
  std::uint64_t raises = 0;  ///< additive increases applied
  std::uint64_t cuts = 0;    ///< multiplicative decreases applied
  std::uint64_t last_p99_ns = 0;   ///< request-latency p99 of the last epoch
  std::uint64_t last_p50_ns = 0;   ///< ... and p50 (feeds the retry hint)
  double last_abort_pct = 0.0;     ///< abort rate of the last epoch
};

class AimdController {
 public:
  AimdController(const AimdConfig& cfg, std::size_t capacity,
                 std::size_t initial_watermark)
      : cfg_(cfg), capacity_(capacity) {
    st_.watermark = clamp(initial_watermark == 0 ? capacity : initial_watermark);
  }

  /// One epoch tick. `latency_delta` / `retries_delta` are this epoch's
  /// histogram windows (cumulative snapshot minus the previous one).
  /// Returns the new watermark.
  std::size_t on_epoch(const si::util::Histogram& latency_delta,
                       const si::util::Histogram& retries_delta) {
    ++st_.epochs;
    if (latency_delta.count() == 0) {
      // Idle epoch: nothing to judge, so drift the watermark back up — this
      // is what re-opens admission after the overload that caused the cuts
      // has passed, even when rejected clients stopped offering load.
      raise();
      return st_.watermark;
    }
    st_.last_p99_ns = latency_delta.quantile(0.99);
    st_.last_p50_ns = latency_delta.quantile(0.50);
    st_.last_abort_pct = abort_pct(retries_delta);
    if (st_.last_p99_ns > cfg_.target_p99_ns ||
        st_.last_abort_pct >= cfg_.abort_cut_pct) {
      cut();
    } else {
      raise();
    }
    return st_.watermark;
  }

  const AimdState& state() const noexcept { return st_; }

  /// The retries histogram records attempts per committed transaction, so
  /// its mean m implies an abort rate of (m - 1) / m of all attempts.
  static double abort_pct(const si::util::Histogram& retries_delta) noexcept {
    const double m = retries_delta.mean();
    return m <= 1.0 ? 0.0 : (m - 1.0) / m * 100.0;
  }

 private:
  void raise() {
    const std::size_t next = clamp(st_.watermark + cfg_.add_step);
    if (next != st_.watermark) {
      st_.watermark = next;
      ++st_.raises;
    }
  }

  void cut() {
    const std::size_t next =
        clamp(static_cast<std::size_t>(static_cast<double>(st_.watermark) *
                                       cfg_.cut_factor));
    if (next != st_.watermark) {
      st_.watermark = next;
      ++st_.cuts;
    }
  }

  std::size_t clamp(std::size_t wm) const noexcept {
    if (wm < cfg_.min_watermark) wm = cfg_.min_watermark;
    if (wm > capacity_) wm = capacity_;
    return wm;
  }

  AimdConfig cfg_;
  std::size_t capacity_;
  AimdState st_;
};

}  // namespace si::serve
