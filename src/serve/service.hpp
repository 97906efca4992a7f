// Sharded transactional request-serving service (DESIGN.md section 9).
//
// Service<App> turns any runtime backend (runtime/runtime.hpp: HTM+SGL,
// SI-HTM, P8TM, Silo, raw-ROT) plus an application (kv_app.hpp,
// tpcc_app.hpp) into a request server:
//
//   client threads ──submit()──▶ per-shard RequestQueue (MPSC, bounded)
//                                     │  batch drain
//                               shard worker thread (tid = shard index)
//                                     │  rt.execute(...) per request
//                               completion callback + telemetry
//
// Shard workers are the *only* threads that execute transactions, so the
// backend sees a fixed thread population of `shards` registered tids — the
// same shape as the benchmark driver — while any number of client threads
// push requests. Requests route to a shard by key hash (or an explicit
// shard override), so a given key is always served by the same worker; that
// is the hook later scaling work (sharded state, routing) plugs into.
//
// Telemetry goes through the existing observability layer: per-request
// enqueue→complete latency and per-batch queue depth land in obs::Metrics
// histograms, kReqDequeue/kReqComplete events in the obs::Tracer, both
// under the worker's tid — so si_trace and the si-bench-v1 JSON emitter
// report serving runs with no extra plumbing.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "durability/wal.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "runtime/runtime.hpp"
#include "serve/aimd.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "util/backoff.hpp"
#include "util/histogram.hpp"

namespace si::serve {

struct TelemetryConfig {
  bool enabled = false;
  std::uint32_t epoch_us = 250'000;  ///< tick period when AIMD is off
  std::size_t ring = 256;            ///< epochs retained for /series
};

/// Durability tier (DESIGN.md section 14): per-shard write-ahead log plus
/// the group-commit daemon that batches fsyncs and releases held acks.
struct DurabilityConfig {
  si::durability::DurabilityMode mode = si::durability::DurabilityMode::kOff;
  std::string dir;  ///< log directory (required unless mode == kOff)
  /// Group-commit tick: the daemon flushes every shard log and answers the
  /// held acks at least this often. The shard workers also ring the
  /// daemon's doorbell every `batch` logged updates, so a saturated shard
  /// never waits the full tick.
  std::uint32_t group_commit_us = 200;
  std::uint32_t batch = 64;          ///< early-flush doorbell threshold

  bool enabled() const noexcept {
    return mode != si::durability::DurabilityMode::kOff;
  }
};

struct ServiceConfig {
  int shards = 2;                   ///< worker threads = backend tids 0..shards-1
  std::size_t queue_capacity = 1024;  ///< per-shard ring size (rounded to pow2)
  /// Admission-control watermark per shard; 0 = capacity (hard bound only).
  /// With `aimd.enabled` this is only the starting point — the controller
  /// retunes every shard's watermark each epoch (serve/aimd.hpp).
  std::size_t admit_watermark = 0;
  std::size_t batch_max = 32;       ///< max requests drained per worker pass

  /// Adaptive admission control. When enabled the service runs one epoch
  /// thread that diffs the obs::Metrics request-latency / retries histograms
  /// and moves the watermark AIMD-style; if no Metrics sink was supplied the
  /// service instantiates a private one so the loop always has telemetry.
  AimdConfig aimd{};

  /// Live time-series aggregation (obs/timeseries.hpp). When enabled the
  /// epoch thread also diffs each tick's MetricsSnapshot into an EpochRecord
  /// ring that the admin endpoint serves at /series. Shares the AIMD epoch
  /// thread and tick when admission control is on (epoch_us is then ignored
  /// in favour of aimd.epoch_us); runs its own cadence otherwise. Like AIMD,
  /// enabling it forces a private Metrics sink if the caller supplied none.
  TelemetryConfig telemetry{};

  /// Write-ahead logging + group commit; off by default (the service is a
  /// cache until the knob is turned).
  DurabilityConfig durability{};

  /// Backend selection, history recording and obs sinks, forwarded verbatim.
  /// `runtime.max_threads` must be >= shards (it is raised if not).
  si::runtime::RuntimeConfig runtime{};
};

/// Aggregated view over the per-shard logs (serve/telemetry.hpp renders it;
/// all zeros when durability is off). Cumulative counters except the LSN
/// sums and acks_held, which are point-in-time gauges.
struct DurabilityStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t appended_lsn = 0;  ///< sum over shards
  std::uint64_t durable_lsn = 0;   ///< sum over shards
  /// Completions waiting for their flush: the held-ack lists plus the
  /// batch the daemon is answering.
  std::uint64_t acks_held = 0;
};

struct ServiceCounters {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_busy = 0;     ///< admission watermark refusals
  std::uint64_t rejected_full = 0;     ///< hard ring-capacity refusals
  std::uint64_t rejected_stopped = 0;  ///< submitted after stop() began
  std::uint64_t completed = 0;
  /// Completed with Status::kFailed: a bad opcode, or a write whose shard
  /// log failed before it became durable (answered at the next flush).
  std::uint64_t failed = 0;
};

struct SubmitResult {
  Admit admit = Admit::kAccepted;
  std::size_t depth = 0;           ///< shard depth observed at submit time
  std::uint64_t retry_hint_us = 0; ///< suggested client backoff when rejected

  bool accepted() const noexcept { return admit == Admit::kAccepted; }
};

/// Detects `static bool App::logged_op(std::uint16_t)` — the hook an app
/// implements to opt its update opcodes into the WAL (DESIGN.md §14). Apps
/// without it compile out the logging branch and refuse -durability.
template <typename T, typename = void>
struct HasLoggedOp : std::false_type {};
template <typename T>
struct HasLoggedOp<
    T, std::void_t<decltype(T::logged_op(std::declval<std::uint16_t>()))>>
    : std::true_type {};

/// `App` must provide `execute(si::runtime::Runtime&, int tid,
/// const Request&, Response&)`, thread-safe across distinct tids.
template <typename App>
class Service {
 public:
  Service(App& app, ServiceConfig cfg)
      : cfg_(fixup(std::move(cfg))),
        app_(app),
        own_metrics_(make_own_metrics()),
        rt_(cfg_.runtime) {
    queues_.reserve(static_cast<std::size_t>(cfg_.shards));
    for (int s = 0; s < cfg_.shards; ++s) {
      queues_.push_back(std::make_unique<RequestQueue>(cfg_.queue_capacity,
                                                       cfg_.admit_watermark));
    }
    if (cfg_.durability.enabled()) open_logs();
    if (cfg_.telemetry.enabled) {
      series_ = std::make_unique<si::obs::TimeSeries>(cfg_.telemetry.ring);
      aggregator_ = std::make_unique<si::obs::EpochAggregator>(series_.get());
      start_ns_ = si::obs::wall_ns();
    }
    if (cfg_.durability.enabled()) {
      gc_thread_ = std::thread([this] { group_commit_loop(); });
    }
    if (cfg_.aimd.enabled || cfg_.telemetry.enabled) {
      epoch_prev_ = cfg_.runtime.obs.metrics->snapshot();  // before any work
    }
    workers_.reserve(static_cast<std::size_t>(cfg_.shards));
    for (int s = 0; s < cfg_.shards; ++s) {
      workers_.emplace_back([this, s] { worker_loop(s); });
    }
    if (cfg_.aimd.enabled || cfg_.telemetry.enabled) {
      epoch_thread_ = std::thread([this] { epoch_loop(); });
    }
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  ~Service() { stop(); }

  int shards() const noexcept { return cfg_.shards; }
  const ServiceConfig& config() const noexcept { return cfg_; }
  si::runtime::Runtime& runtime() noexcept { return rt_; }

  /// Routes `req` to its key's shard. Stamps the enqueue time. On rejection
  /// the completion is NOT invoked; the caller answers the client (the TCP
  /// front end sends Status::kRejected with the hint).
  SubmitResult submit(Request req) { return submit_to(shard_of(req.key), req); }

  /// Same, with an explicit shard (tests, shard-aware clients).
  SubmitResult submit_to(int shard, Request req) {
    // A request enqueued after the workers drained and exited would never
    // run (breaking completed == accepted, and making call() spin forever),
    // so refuse once shutdown has begun. Best-effort: a submit racing the
    // stop() call itself may still be accepted, and then drains normally.
    if (stopping_.load(std::memory_order_acquire)) {
      SubmitResult r;
      r.admit = Admit::kStopped;
      rejected_stopped_.fetch_add(1, std::memory_order_relaxed);
      return r;
    }
    RequestQueue& q = *queues_[static_cast<std::size_t>(shard)];
    req.enqueue_ns = si::obs::wall_ns();
    const Admit admit = q.try_push(req);
    SubmitResult r;
    r.admit = admit;
    r.depth = q.approx_depth();
    switch (admit) {
      case Admit::kAccepted:
        accepted_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Admit::kBusy:
        rejected_busy_.fetch_add(1, std::memory_order_relaxed);
        r.retry_hint_us = retry_hint_us(r.depth);
        break;
      case Admit::kFull:
        rejected_full_.fetch_add(1, std::memory_order_relaxed);
        r.retry_hint_us = retry_hint_us(q.capacity());
        break;
      case Admit::kStopped:  // handled by the early return above
        break;
    }
    return r;
  }

  /// Synchronous convenience wrapper: submits and spins until the request
  /// completes (in-process callers only). Returns false when rejected.
  bool call(Request req, Response* out) {
    struct Slot {
      Response resp;
      std::atomic<bool> done{false};
    } slot;
    req.done = [](void* ctx, const Response& resp) {
      auto* s = static_cast<Slot*>(ctx);
      s->resp = resp;
      s->done.store(true, std::memory_order_release);
    };
    req.ctx = &slot;
    if (!submit(std::move(req)).accepted()) return false;
    si::util::Backoff bo;
    while (!slot.done.load(std::memory_order_acquire)) bo.pause();
    if (out != nullptr) *out = slot.resp;
    return true;
  }

  /// Rejects further submissions (Admit::kStopped) and joins the workers
  /// after they drained every already-accepted request, so completed ==
  /// accepted at return. With durability on, the group-commit daemon then
  /// runs one final pass over every shard — flush + fsync the buffered log
  /// tail, answer every held ack — before it is joined, so a clean SIGTERM
  /// drain is always recoverable with zero replay loss. Either way every
  /// accepted request's completion has fired by the time stop() returns
  /// (the TCP front end relies on that ordering: Service::stop() precedes
  /// reactor teardown).
  void stop() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) return;
    if (epoch_thread_.joinable()) epoch_thread_.join();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    if (gc_thread_.joinable()) {
      // After the last worker exits no append can race the final flush; the
      // daemon's exit path flushes every log and answers every held ack.
      {
        std::lock_guard<std::mutex> g(gc_mu_);
        gc_stop_ = true;
      }
      gc_cv_.notify_one();
      gc_thread_.join();
    }
    // Final drain epoch: the workers completed every accepted request before
    // exiting, and no thread records into the metrics any more, so this
    // record captures the tail exactly — after it, the sum of per-epoch
    // completed deltas equals ServiceCounters.completed (zero drift).
    if (aggregator_ != nullptr) push_epoch(next_window());
  }

  /// Last published controller state (zeros when AIMD is disabled). Exact
  /// once stop() returned; a copy of the latest completed epoch mid-run.
  AimdState aimd_state() const {
    std::lock_guard<std::mutex> g(aimd_mu_);
    return aimd_state_;
  }

  /// The epoch time-series ring (null unless cfg.telemetry.enabled).
  const si::obs::TimeSeries* timeseries() const noexcept {
    return series_.get();
  }

  /// The metrics sink the backend records into (caller-supplied or the
  /// service's private one); null when neither AIMD nor telemetry forced
  /// one and the caller supplied none.
  si::obs::Metrics* metrics() const noexcept {
    return cfg_.runtime.obs.metrics;
  }

  /// Registers a provider for the front-end columns of each epoch record
  /// (connections accepted, flushes, bytes out — cumulative totals). The
  /// TCP front end owns those counters, so the service pulls them through
  /// this hook each tick. Call any time; the epoch thread reads it under a
  /// lock. Pass nullptr to detach (the reactor pool's stats die with it —
  /// detach before tearing the pool down).
  void set_front_end_stats(
      std::function<void(std::uint64_t* conns, std::uint64_t* flushes,
                         std::uint64_t* bytes_out)>
          fn) {
    std::lock_guard<std::mutex> g(fe_mu_);
    fe_stats_ = std::move(fn);
  }

  ServiceCounters counters() const noexcept {
    ServiceCounters c;
    c.accepted = accepted_.load(std::memory_order_relaxed);
    c.rejected_busy = rejected_busy_.load(std::memory_order_relaxed);
    c.rejected_full = rejected_full_.load(std::memory_order_relaxed);
    c.rejected_stopped = rejected_stopped_.load(std::memory_order_relaxed);
    c.completed = completed_.load(std::memory_order_relaxed);
    c.failed = failed_.load(std::memory_order_relaxed);
    return c;
  }

  std::size_t queue_depth(int shard) const noexcept {
    return queues_[static_cast<std::size_t>(shard)]->approx_depth();
  }

  /// Highest LSN known durable on `shard` (0 with durability off). Any
  /// completion whose Response::lsn is <= this value has stable storage
  /// backing it — the group-commit latency test asserts callbacks only ever
  /// observe durable_lsn(shard) >= resp.lsn.
  std::uint64_t durable_lsn(int shard) const noexcept {
    if (logs_.empty()) return 0;
    return logs_[static_cast<std::size_t>(shard)]->durable_lsn();
  }

  /// Highest LSN appended on `shard` (0 with durability off).
  std::uint64_t appended_lsn(int shard) const noexcept {
    if (logs_.empty()) return 0;
    return logs_[static_cast<std::size_t>(shard)]->appended_lsn();
  }

  /// Aggregated log-plane counters (all zeros with durability off). Racy
  /// snapshot, same tolerance as the metrics histograms.
  DurabilityStats durability_stats() const noexcept {
    DurabilityStats d;
    for (const auto& log : logs_) {
      const si::durability::ShardLogStats s = log->stats();
      d.appends += s.appends;
      d.bytes += s.bytes;
      d.flushes += s.flushes;
      d.fsyncs += s.fsyncs;
      d.io_errors += s.io_errors;
      d.appended_lsn += s.appended_lsn;
      d.durable_lsn += s.durable_lsn;
    }
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      std::lock_guard<std::mutex> g(held_[i].mu);
      d.acks_held += held_[i].acks.size();
    }
    d.acks_held += answering_.load(std::memory_order_relaxed);
    return d;
  }

  int shard_of(std::uint64_t key) const noexcept {
    // splitmix64 finalizer: decorrelates adjacent keys from shard index.
    std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<int>(h % static_cast<std::uint64_t>(cfg_.shards));
  }

 private:
  static ServiceConfig fixup(ServiceConfig cfg) {
    if (cfg.shards < 1) cfg.shards = 1;
    if (cfg.batch_max < 1) cfg.batch_max = 1;
    if (cfg.runtime.max_threads < cfg.shards) {
      cfg.runtime.max_threads = cfg.shards;
    }
    if (cfg.aimd.epoch_us < 100) cfg.aimd.epoch_us = 100;
    if (cfg.aimd.min_watermark < 1) cfg.aimd.min_watermark = 1;
    if (cfg.telemetry.epoch_us < 100) cfg.telemetry.epoch_us = 100;
    if (cfg.telemetry.ring < 1) cfg.telemetry.ring = 1;
    if (cfg.durability.group_commit_us < 50) cfg.durability.group_commit_us = 50;
    if (cfg.durability.batch < 1) cfg.durability.batch = 1;
    return cfg;
  }

  /// Creates a private Metrics sink when the epoch thread (AIMD and/or the
  /// time-series aggregator) needs telemetry and the caller supplied none.
  /// Runs in the ctor initializer list *before* rt_ so the patched
  /// cfg_.runtime.obs reaches the backend.
  std::unique_ptr<si::obs::Metrics> make_own_metrics() {
    const bool needed = cfg_.aimd.enabled || cfg_.telemetry.enabled;
    if (!needed || cfg_.runtime.obs.metrics != nullptr) {
      return nullptr;
    }
    auto m = std::make_unique<si::obs::Metrics>(cfg_.runtime.max_threads);
    cfg_.runtime.obs.metrics = m.get();
    return m;
  }

  /// Queueing-delay estimate for the client's retry backoff: ~1 us per
  /// queued request (conservative for the emulated backends), floored at the
  /// service-time p50 the AIMD epoch loop last observed — retrying sooner
  /// than one median request time cannot succeed. Before any telemetry
  /// lands (or with AIMD off) the floor falls back to 50 us.
  std::uint64_t retry_hint_us(std::size_t depth) const noexcept {
    const std::uint64_t p50_us =
        observed_p50_us_.load(std::memory_order_relaxed);
    const std::uint64_t floor_us = p50_us > 0 ? p50_us : 50;
    const std::uint64_t hint = static_cast<std::uint64_t>(depth);
    return hint < floor_us ? floor_us : hint;
  }

  /// Epoch thread: on each tick, take the one metrics window (next_window)
  /// and feed it to (a) the AIMD controller, which judges the epoch and fans
  /// the watermark out to every shard queue, and (b) the time-series
  /// aggregator, as an EpochRecord — whichever of the two is enabled. One
  /// thread and one window serve both consumers, so the /series epochs line
  /// up with the controller's decisions.
  void epoch_loop() {
    std::optional<AimdController> ctl;
    if (cfg_.aimd.enabled) {
      ctl.emplace(cfg_.aimd, queues_[0]->capacity(), queues_[0]->watermark());
    }
    // AIMD's tick wins when both are on: the controller's cadence is part of
    // its control loop.
    const auto epoch = std::chrono::microseconds(
        cfg_.aimd.enabled ? cfg_.aimd.epoch_us : cfg_.telemetry.epoch_us);
    while (!stopping_.load(std::memory_order_acquire)) {
      // Sleep in slices so stop() never waits a full epoch on the join.
      auto left = epoch;
      while (left.count() > 0 && !stopping_.load(std::memory_order_acquire)) {
        const auto slice = left < std::chrono::microseconds(500)
                               ? left
                               : std::chrono::microseconds(500);
        std::this_thread::sleep_for(slice);
        left -= slice;
      }
      if (stopping_.load(std::memory_order_acquire)) break;
      const si::obs::MetricsSnapshot window = next_window();
      if (ctl) {
        const std::size_t wm =
            ctl->on_epoch(window.request_latency, window.retries);
        for (auto& q : queues_) q->set_watermark(wm);
        if (window.request_latency.count() > 0) {
          std::uint64_t p50_us = ctl->state().last_p50_ns / 1000;
          if (p50_us == 0) p50_us = 1;
          observed_p50_us_.store(p50_us, std::memory_order_relaxed);
        }
        {
          std::lock_guard<std::mutex> g(aimd_mu_);
          aimd_state_ = ctl->state();
        }
      }
      if (aggregator_ != nullptr) push_epoch(window);
    }
    if (ctl) {
      std::lock_guard<std::mutex> g(aimd_mu_);
      aimd_state_ = ctl->state();
    }
  }

  /// The one epoch delta: diffs a fresh cumulative metrics snapshot against
  /// the previous tick's and advances that baseline. Snapshot reads race the
  /// recording workers by design (obs/metrics.hpp); the saturating subtract
  /// keeps a torn window non-negative. Called by the epoch thread, and once
  /// more by stop() after joining it, so the final drain window continues
  /// from the same baseline.
  si::obs::MetricsSnapshot next_window() {
    si::obs::MetricsSnapshot cur = cfg_.runtime.obs.metrics->snapshot();
    si::obs::MetricsSnapshot window = cur;
    window.subtract(epoch_prev_);
    epoch_prev_ = cur;
    return window;
  }

  /// Samples the cumulative service counters and pushes one epoch record
  /// for `window`. Called from the epoch thread, and once more from stop()
  /// after the workers joined (the final drain record).
  void push_epoch(const si::obs::MetricsSnapshot& window) {
    si::obs::EpochExternals ext;
    ext.now_s =
        (si::obs::wall_ns() - start_ns_) / 1e9;
    ext.completed = completed_.load(std::memory_order_relaxed);
    ext.accepted = accepted_.load(std::memory_order_relaxed);
    ext.rejected = rejected_busy_.load(std::memory_order_relaxed) +
                   rejected_full_.load(std::memory_order_relaxed) +
                   rejected_stopped_.load(std::memory_order_relaxed);
    ext.failed = failed_.load(std::memory_order_relaxed);
    ext.watermark = queues_[0]->watermark();
    {
      std::lock_guard<std::mutex> g(fe_mu_);
      if (fe_stats_) fe_stats_(&ext.conns, &ext.flushes, &ext.bytes_out);
    }
    if (!logs_.empty()) {
      const DurabilityStats d = durability_stats();
      ext.log_appends = d.appends;
      ext.log_bytes = d.bytes;
      ext.log_fsyncs = d.fsyncs;
      ext.durable_lsn = d.durable_lsn;
    }
    aggregator_->on_epoch(window, ext);
  }

  void worker_loop(int tid) {
    rt_.register_thread(tid);
    RequestQueue& q = *queues_[static_cast<std::size_t>(tid)];
    std::vector<Request> batch(cfg_.batch_max);
    const si::obs::ObsConfig& obs = cfg_.runtime.obs;
    int idle = 0;
    for (;;) {
      const std::size_t n = q.pop_batch(batch.data(), cfg_.batch_max);
      if (n == 0) {
        // Drain-then-exit: stopping_ is checked only on an empty queue, so
        // every accepted request completes before the worker leaves.
        if (stopping_.load(std::memory_order_acquire) && q.empty()) break;
        if (++idle < 64) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        continue;
      }
      idle = 0;
      if (obs.enabled()) {
        obs.req_dequeue(tid, si::obs::wall_ns(),
                        static_cast<std::uint32_t>(q.approx_depth() + n));
      }
      for (std::size_t i = 0; i < n; ++i) serve_one(tid, batch[i], obs);
    }
  }

  void serve_one(int tid, const Request& req, const si::obs::ObsConfig& obs) {
    Response resp;
    resp.id = req.id;
    app_.execute(rt_, tid, req, &resp);
    resp.latency_ns = si::obs::wall_ns() - req.enqueue_ns;
    if (resp.latency_ns < 0) resp.latency_ns = 0;
    if (obs.enabled()) {
      obs.req_complete(tid, req.enqueue_ns + resp.latency_ns, req.enqueue_ns,
                       req.op, static_cast<std::uint32_t>(resp.status));
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (resp.status == Status::kFailed) {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    // Ack gating (DESIGN.md §14): a committed update is appended to the
    // shard's WAL and its completion is held until the group-commit daemon's
    // next flush covers it. Read-only ops, failed requests and -durability
    // off keep the immediate-ack path.
    if constexpr (HasLoggedOp<App>::value) {
      if (!logs_.empty() && resp.status == Status::kOk &&
          App::logged_op(req.op)) {
        resp.lsn = logs_[static_cast<std::size_t>(tid)]->append(
            req.id, req.key, req.arg, req.op);
        if (req.done != nullptr) hold_ack(tid, req, resp);
        // The group-commit doorbell (DurabilityConfig::batch) rings here,
        // after SI-HTM's safety wait, where a batched fsync piggybacks at no
        // added latency (DESIGN.md §14).
        const std::uint64_t n =
            logged_since_flush_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (n % cfg_.durability.batch == 0) gc_cv_.notify_one();
        return;
      }
    }
    if (req.done != nullptr) req.done(req.ctx, resp);
  }

  /// A completed response waiting for the flush that covers its LSN.
  struct HeldAck {
    std::uint64_t lsn = 0;
    double enqueue_ns = 0.0;
    Response resp{};
    CompletionFn done = nullptr;
    void* ctx = nullptr;
  };

  /// One shard's held acks, in append order: the shard worker pushes, the
  /// group-commit daemon swaps the whole list out.
  struct alignas(128) HeldAcks {
    std::mutex mu;
    std::vector<HeldAck> acks;  ///< guarded by mu
  };

  /// Holds a completed-but-not-yet-durable response until the daemon's next
  /// flush. Called right after the append, so every ack the daemon swaps out
  /// has its record in that flush or an earlier one. If the daemon falls
  /// behind (fsync stall) the worker waits here once `held_cap_` acks are
  /// held, which is the correct backpressure: it cannot ack and must not
  /// run ahead unboundedly.
  void hold_ack(int tid, const Request& req, const Response& resp) {
    HeldAcks& h = held_[static_cast<std::size_t>(tid)];
    for (;;) {
      {
        std::lock_guard<std::mutex> g(h.mu);
        if (h.acks.size() < held_cap_) {
          h.acks.push_back({resp.lsn, req.enqueue_ns, resp, req.done, req.ctx});
          return;
        }
      }
      gc_cv_.notify_one();
      std::this_thread::yield();
    }
  }

  /// Opens one ShardLog per shard (worker tid == shard index == log index).
  /// Throws on an unopenable directory/file or a shard-layout mismatch —
  /// serving without the log the operator asked for would silently ack
  /// non-durable writes.
  void open_logs() {
    if constexpr (!HasLoggedOp<App>::value) {
      throw std::invalid_argument(
          "durability enabled but the app has no logged_op hook");
    }
    if (cfg_.durability.dir.empty()) {
      throw std::invalid_argument("durability enabled but no log dir");
    }
    logs_.reserve(static_cast<std::size_t>(cfg_.shards));
    for (int s = 0; s < cfg_.shards; ++s) {
      auto log = std::make_unique<si::durability::ShardLog>();
      std::string err;
      if (!log->open(cfg_.durability.dir, static_cast<std::uint32_t>(s),
                     static_cast<std::uint32_t>(cfg_.shards),
                     cfg_.durability.mode, &err)) {
        throw std::runtime_error("wal: " + err);
      }
      logs_.push_back(std::move(log));
    }
    held_ = std::make_unique<HeldAcks[]>(static_cast<std::size_t>(cfg_.shards));
    // At least a full request ring's worth of completions between ticks, or
    // workers would stall on their own drain during shutdown.
    held_cap_ = std::max<std::size_t>(8192, cfg_.queue_capacity);
  }

  /// Group-commit daemon: on every tick (or early doorbell) flush every
  /// shard log — one write + at most one fsync per shard per tick, amortised
  /// over every commit in the window — and answer the acks it covers. The
  /// exit path runs one final pass after the workers quiesced, so stop()
  /// drains with zero held acks and a clean, fully-fsynced log tail.
  void group_commit_loop() {
    const auto tick = std::chrono::microseconds(cfg_.durability.group_commit_us);
    std::vector<HeldAck> batch;
    std::unique_lock<std::mutex> lk(gc_mu_);
    while (!gc_stop_) {
      gc_cv_.wait_for(lk, tick);
      lk.unlock();
      logged_since_flush_.store(0, std::memory_order_relaxed);
      flush_and_answer(batch);
      lk.lock();
    }
    lk.unlock();
    flush_and_answer(batch);
  }

  /// One pass per shard: swap its held acks out, flush its log, answer them.
  /// Workers append before they hold, so every swapped ack's record is in
  /// this flush or an earlier one: OK when the durable LSN covers it, and
  /// otherwise the log has failed (durability/wal.hpp) and it is answered
  /// Status::kFailed — never OK, and never later than this tick.
  void flush_and_answer(std::vector<HeldAck>& batch) {
    si::obs::Metrics* metrics = cfg_.runtime.obs.metrics;
    for (int s = 0; s < cfg_.shards; ++s) {
      {
        HeldAcks& h = held_[static_cast<std::size_t>(s)];
        std::lock_guard<std::mutex> g(h.mu);
        batch.swap(h.acks);  // the worker gets the drained, reserved buffer
        answering_.store(batch.size(), std::memory_order_relaxed);
      }
      si::durability::ShardLog& log = *logs_[static_cast<std::size_t>(s)];
      log.flush();
      const std::uint64_t durable = log.durable_lsn();
      const double now = si::obs::wall_ns();
      for (HeldAck& ack : batch) {
        if (ack.lsn <= durable) {
          if (metrics != nullptr) {
            const double d = now - ack.enqueue_ns;
            metrics->of(s).durable_ack.record(
                d > 0 ? static_cast<std::uint64_t>(d) : 0);
          }
        } else {
          ack.resp.status = Status::kFailed;
          failed_.fetch_add(1, std::memory_order_relaxed);
        }
        ack.done(ack.ctx, ack.resp);
      }
      batch.clear();
      answering_.store(0, std::memory_order_relaxed);
    }
  }

  ServiceConfig cfg_;
  App& app_;
  /// Declared before rt_: make_own_metrics() patches cfg_.runtime.obs.
  std::unique_ptr<si::obs::Metrics> own_metrics_;
  si::runtime::Runtime rt_;
  std::vector<std::unique_ptr<RequestQueue>> queues_;
  std::atomic<bool> stopping_{false};
  mutable std::mutex aimd_mu_;
  AimdState aimd_state_;  ///< guarded by aimd_mu_
  std::atomic<std::uint64_t> observed_p50_us_{0};
  std::unique_ptr<si::obs::TimeSeries> series_;        ///< telemetry only
  std::unique_ptr<si::obs::EpochAggregator> aggregator_;
  /// The epoch thread's one previous snapshot (next_window()).
  si::obs::MetricsSnapshot epoch_prev_;
  double start_ns_ = 0.0;  ///< service birth, obs::wall_ns clock
  mutable std::mutex fe_mu_;
  std::function<void(std::uint64_t*, std::uint64_t*, std::uint64_t*)>
      fe_stats_;  ///< guarded by fe_mu_
  alignas(128) std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_stopped_{0};
  alignas(128) std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  // Durability tier (empty/idle when cfg_.durability.mode == kOff).
  std::vector<std::unique_ptr<si::durability::ShardLog>> logs_;
  std::unique_ptr<HeldAcks[]> held_;  ///< one per shard
  std::size_t held_cap_ = 0;          ///< per-shard backpressure bound
  std::atomic<std::size_t> answering_{0};  ///< the daemon's current batch
  std::atomic<std::uint64_t> logged_since_flush_{0};
  std::mutex gc_mu_;
  std::condition_variable gc_cv_;
  bool gc_stop_ = false;  ///< guarded by gc_mu_
  std::thread gc_thread_;

  std::thread epoch_thread_;  ///< runs when AIMD and/or telemetry is enabled
  std::vector<std::thread> workers_;  ///< last member: joins before teardown
};

}  // namespace si::serve
