// Epoch time-series over the live metrics: the data model behind the admin
// endpoint's /series dump and the si_top dashboard.
//
// The serving layer's epoch thread (serve/service.hpp — the same thread that
// drives the AIMD controller when admission control is on) owns the one
// previous snapshot: each tick it diffs the cumulative obs::Metrics against
// it (MetricsSnapshot::subtract) and hands that window to both AIMD and this
// aggregator, together with the service-level cumulative counters
// (EpochExternals). The aggregator diffs the counters, reads the window's
// histograms and taxonomy, and pushes one EpochRecord per tick into a fixed
// ring.
//
// The ring keeps the last `capacity` epochs for dashboards, but the totals
// (epochs pushed, completed requests covered) accumulate forever, so the
// reconciliation invariant "sum of per-epoch completed == final
// ServiceCounters.completed" survives ring wrap and is checkable after a
// drain (scripts/check_metrics.py --reconcile).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/taxonomy.hpp"

namespace si::obs {

/// Cumulative service-level inputs sampled by the caller at each tick,
/// alongside the MetricsSnapshot. Counters are monotonic totals; watermark
/// and conns are point-in-time gauges.
struct EpochExternals {
  double now_s = 0.0;  ///< seconds since service start
  std::uint64_t completed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;  ///< busy + full + stopped
  std::uint64_t failed = 0;
  std::size_t watermark = 0;        ///< current admission watermark (gauge)
  std::uint64_t conns = 0;          ///< front-end connections accepted (total)
  std::uint64_t flushes = 0;        ///< reactor writev flushes (total)
  std::uint64_t bytes_out = 0;      ///< reactor bytes written (total)

  // Durability tier (zeros when -durability off; DESIGN.md §14).
  std::uint64_t log_appends = 0;    ///< WAL records appended (total)
  std::uint64_t log_bytes = 0;      ///< WAL record bytes appended (total)
  std::uint64_t log_fsyncs = 0;     ///< group-commit fsync calls (total)
  std::uint64_t durable_lsn = 0;    ///< sum of per-shard durable LSNs (gauge)
};

/// One epoch's view: counter deltas over the window plus gauges at its end.
struct EpochRecord {
  std::uint64_t seq = 0;  ///< 0-based epoch index since service start
  double t_s = 0.0;       ///< window end, seconds since service start
  double dt_s = 0.0;      ///< window length, seconds

  std::uint64_t completed = 0;  ///< requests completed this epoch
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  double goodput = 0.0;  ///< completed / dt_s (0 when dt_s == 0)

  std::uint64_t req_p50_ns = 0;  ///< request latency over this window
  std::uint64_t req_p99_ns = 0;
  std::uint64_t req_p999_ns = 0;
  std::uint64_t queue_depth_p99 = 0;

  std::uint64_t commits = 0;  ///< backend transactions committed this epoch
  std::uint64_t aborts[kTaxonomyCounters] = {};  ///< taxonomy deltas

  std::uint64_t watermark = 0;  ///< admission watermark at window end
  std::uint64_t conns = 0;      ///< front-end connections accepted so far
  std::uint64_t flushes = 0;    ///< reactor flushes this epoch
  std::uint64_t bytes_out = 0;  ///< reactor bytes written this epoch

  std::uint64_t log_appends = 0;  ///< WAL records appended this epoch
  std::uint64_t log_bytes = 0;    ///< WAL bytes appended this epoch
  std::uint64_t log_fsyncs = 0;   ///< group-commit fsyncs this epoch
  std::uint64_t durable_lsn = 0;  ///< durable-LSN sum at window end (gauge)
};

/// Fixed ring of the most recent epochs plus run-length totals. Guarded by a
/// mutex: the writer is the service's epoch thread (a few pushes per second),
/// readers are the admin endpoint and tests — nowhere near the data plane.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity = 256)
      : cap_(capacity < 1 ? 1 : capacity) {}

  void push(const EpochRecord& r) {
    std::lock_guard<std::mutex> g(mu_);
    if (ring_.size() < cap_) {
      ring_.push_back(r);
    } else {
      ring_[head_] = r;
      head_ = (head_ + 1) % cap_;
    }
    ++epochs_;
    completed_total_ += r.completed;
  }

  /// Retained records, oldest first.
  std::vector<EpochRecord> dump() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<EpochRecord> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  std::size_t capacity() const noexcept { return cap_; }

  /// Epochs pushed since start/reset (>= dump().size(); counts wrapped ones).
  std::uint64_t epochs() const {
    std::lock_guard<std::mutex> g(mu_);
    return epochs_;
  }

  /// Sum of per-epoch completed deltas over *all* pushed epochs, including
  /// records the ring has since dropped — the reconciliation total.
  std::uint64_t completed_total() const {
    std::lock_guard<std::mutex> g(mu_);
    return completed_total_;
  }

  void reset() {
    std::lock_guard<std::mutex> g(mu_);
    ring_.clear();
    head_ = 0;
    epochs_ = 0;
    completed_total_ = 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<EpochRecord> ring_;  ///< grows to cap_, then circular at head_
  std::size_t head_ = 0;           ///< oldest record once the ring is full
  std::size_t cap_;
  std::uint64_t epochs_ = 0;
  std::uint64_t completed_total_ = 0;
};

/// Turns a stream of (metrics window, cumulative EpochExternals) samples
/// into EpochRecords. Single caller at a time (the epoch thread); the only
/// cross-thread surface is the TimeSeries it pushes into.
class EpochAggregator {
 public:
  explicit EpochAggregator(TimeSeries* out) : out_(out) {}

  /// `window` is the metrics delta over this epoch (the caller diffs the
  /// snapshots); `ext` is diffed against the previous call (or against zero
  /// on the first call, so epoch 0 covers start→first-tick). Pushes the
  /// record and returns it.
  EpochRecord on_epoch(const MetricsSnapshot& window,
                       const EpochExternals& ext) {
    EpochRecord r;
    r.seq = seq_++;
    r.t_s = ext.now_s;
    r.dt_s = ext.now_s > prev_ext_.now_s ? ext.now_s - prev_ext_.now_s : 0.0;

    r.completed = delta(ext.completed, prev_ext_.completed);
    r.accepted = delta(ext.accepted, prev_ext_.accepted);
    r.rejected = delta(ext.rejected, prev_ext_.rejected);
    r.failed = delta(ext.failed, prev_ext_.failed);
    r.goodput = r.dt_s > 0 ? static_cast<double>(r.completed) / r.dt_s : 0.0;

    r.req_p50_ns = window.request_latency.quantile(0.50);
    r.req_p99_ns = window.request_latency.quantile(0.99);
    r.req_p999_ns = window.request_latency.quantile(0.999);
    r.queue_depth_p99 = window.queue_depth.quantile(0.99);
    r.commits = window.commit_latency.count();
    for (int i = 0; i < kTaxonomyCounters; ++i) {
      r.aborts[i] = window.taxonomy.count(i);
    }

    r.watermark = static_cast<std::uint64_t>(ext.watermark);
    r.conns = ext.conns;
    r.flushes = delta(ext.flushes, prev_ext_.flushes);
    r.bytes_out = delta(ext.bytes_out, prev_ext_.bytes_out);

    r.log_appends = delta(ext.log_appends, prev_ext_.log_appends);
    r.log_bytes = delta(ext.log_bytes, prev_ext_.log_bytes);
    r.log_fsyncs = delta(ext.log_fsyncs, prev_ext_.log_fsyncs);
    r.durable_lsn = ext.durable_lsn;

    prev_ext_ = ext;
    if (out_ != nullptr) out_->push(r);
    return r;
  }

  /// Re-baselines (next on_epoch diffs the counters against zero) and
  /// clears the ring — phase hygiene for warm-up/measure splits.
  void reset() {
    prev_ext_ = EpochExternals{};
    seq_ = 0;
    if (out_ != nullptr) out_->reset();
  }

 private:
  /// Saturating: a torn cumulative pair clamps to zero instead of wrapping.
  static std::uint64_t delta(std::uint64_t cur, std::uint64_t prev) noexcept {
    return cur > prev ? cur - prev : 0;
  }

  TimeSeries* out_;
  EpochExternals prev_ext_{};
  std::uint64_t seq_ = 0;
};

}  // namespace si::obs
