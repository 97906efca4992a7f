// The run of one workload: setup -> warm-up -> open loop -> closed loop ->
// re-read -> stop -> checks -> (durable workload) recovery -> more setups.
//
// Runner<App, Model> owns the client, the oracle and the wrappers; the
// serving stack itself (App, serve::Service, serve::ReactorPool) is built
// through its public constructors for every setup repetition.
#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "client.hpp"
#include "durability/recover.hpp"
#include "model.hpp"
#include "obs/trace.hpp"
#include "process.hpp"
#include "serve/reactor.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "wrappers.hpp"

namespace perfbench {

inline constexpr int kShards = 2;
inline constexpr int kConns = 4;
/// In flight per connection. With 16, kv-read's closed-loop rate switched
/// between levels ~30% apart for seconds at a time and its goodput spread
/// over runs doubled.
inline constexpr int kClosedDepth = 32;
inline constexpr int kChunks = 20;  ///< goodput and latency windows per phase
inline constexpr double kDrainTimeoutS = 3.0;
inline constexpr std::size_t kQueueCapacity = 8192;  ///< per shard
/// A closed phase stops at this multiple of its planned share of --seconds
/// even if its count is not reached, so a host that steals much of the CPU
/// cannot push a run past its time limit.
inline constexpr double kClosedLimit = 1.5;
inline constexpr double kOpenShare = 0.4;  ///< of --seconds; the rest is closed
inline constexpr std::size_t kRereadRanges = 1000;
inline constexpr std::size_t kTraceFileRequests = 2000;

// Wire opcodes; KvApp shares get/put/del with MapApp.
inline constexpr std::uint16_t kGet = si::serve::MapOps::kGet;
inline constexpr std::uint16_t kPut = si::serve::MapOps::kPut;
inline constexpr std::uint16_t kDel = si::serve::MapOps::kDel;
inline constexpr std::uint16_t kRange = si::serve::MapOps::kRange;

/// Latency classes: responses are never pooled across them.
enum Cls { kClsGet = 0, kClsWrite = 1, kClsScan = 2, kClsCount = 3 };
inline Cls cls_of(std::uint16_t op) {
  return op == kGet ? kClsGet : op == kRange ? kClsScan : kClsWrite;
}
inline bool is_write(std::uint16_t op) { return op == kPut || op == kDel; }

struct Op {
  std::uint16_t op = kGet;
  std::uint64_t key = 0;
  std::uint64_t arg = 0;
};

template <typename App, typename Model>
class Runner {
 public:
  using AppConfig = std::remove_cvref_t<decltype(std::declval<App>().config())>;
  using Svc = si::serve::Service<TimedApp<App>>;
  using Front = TimedService<Svc>;
  using Pool = si::serve::ReactorPool<Front>;

  Runner(const Options& opt, AppConfig acfg)
      : opt_(opt), w_(*opt.workload), acfg_(acfg), model_(acfg),
        min_key_(Model::kMinKey), max_key_(model_.max_key()),
        probe_expect_(model_.get(min_key_)), probe_(probe_slots(opt)),
        pending_(std::size_t{1} << 17) {}

  Result run() {
    const ProcSample run_start = sample_process();
    double t = si::obs::wall_ns();
    std::string phases = "phase seconds:";
    auto mark = [&](const char* name) {
      const double now = si::obs::wall_ns();
      phases += std::string(" ") + name + "=" + std::to_string((now - t) * 1e-9);
      t = now;
    };
    const int setups_after = opt_.setups / 2;
    if (!setup(opt_.setups - setups_after)) return finish_early();
    mark("setup");

    const double open_s = opt_.seconds * kOpenShare;
    const auto closed_n = static_cast<std::uint64_t>(
        w_.closed_per_s * opt_.seconds * (1 - kOpenShare));
    if (opt_.faults.corrupt_get) probe_.arm_corrupt_get(next_id_);
    if (opt_.faults.swallow_write) probe_.arm_swallow_write(next_id_);
    const std::uint64_t warm_n = std::max<std::uint64_t>(1000, closed_n / 12);
    if (w_.durable) {
      // Every id the run can use, zeroed now: grown on demand, the table
      // doubled at a random point of the run and moved peak_rss_mb by 3%.
      acked_.assign(next_id_ + warm_n + closed_n +
                        static_cast<std::uint64_t>(w_.open_rate * open_s * 1.1) +
                        (max_key_ - min_key_ + 1) + 1024,
                    0);
    }
    closed_phase(kWarm, warm_n, false);
    mark("warm-up");

    const ProcSample load_start = sample_process();
    const si::serve::DurabilityStats d0 = stack_->svc->durability_stats();
    const std::uint64_t attempted0 = res_.attempted;
    const double t_load0 = si::obs::wall_ns();
    open_phase(open_s);
    mark("open");
    if (opt_.trace) analyze_spans();
    closed_phase(kClosed, closed_n, opt_.trace);
    mark("closed");
    const double t_load1 = si::obs::wall_ns();
    const ProcSample load_end = sample_process();
    const si::serve::DurabilityStats d1 = stack_->svc->durability_stats();
    const std::uint64_t load_reqs = res_.attempted - attempted0;
    // Taken here, so the checks' log scan and recovery app do not count.
    peak_rss_mb_ = peak_rss_mb();

    reread_phase();
    mark("re-read");
    stop_stack();
    collect_server_counters(d0, d1, (t_load1 - t_load0) * 1e-9);
    mark("stop");
    if (w_.durable) check_and_recover();
    teardown();
    mark("checks");
    if (!more_setups(setups_after)) return finish_early();
    mark("setup-after");

    const ProcSample run_end = sample_process();
    report(load_start, load_end, load_reqs);
    res_.notes.push_back(phases);
    res_.notes.push_back("steal share over the run: " +
                         std::to_string(steal_frac(run_start, run_end)));
    finalize();
    if (opt_.trace) write_trace_file();
    return std::move(res_);
  }

 private:
  enum Phase : std::uint8_t { kProbe, kWarm, kOpen, kClosed, kReread };

  struct Pending {
    std::uint64_t id = 0;
    std::uint64_t key = 0;
    std::uint64_t expect = 0;
    double intended = 0;
    double sent = 0;
    std::uint16_t op = 0;
    std::uint8_t phase = 0;
    std::uint8_t conn = 0;
    bool check = false;
  };

  struct Stack {
    std::unique_ptr<App> app;
    std::unique_ptr<TimedApp<App>> timed;
    std::unique_ptr<Svc> svc;
    std::unique_ptr<Front> front;
    std::unique_ptr<Pool> pool;
    bool started = false;
    bool stopped = false;
    std::vector<pid_t> svc_threads;   ///< group commit (when durable), workers
    std::vector<pid_t> pool_threads;  ///< reactors

    void stop() {
      if (stopped) return;
      stopped = true;
      if (started) pool->drain_begin();
      if (svc) svc->stop();
      if (started) pool->finish();
    }
    ~Stack() { stop(); }
  };

  /// Span slots: in a traced run, the last 2^19 open-loop requests (at most
  /// ~60 MB); enough in-flight requests for the fault self-tests; none
  /// otherwise.
  static std::size_t probe_slots(const Options& opt) {
    if (opt.trace) return std::size_t{1} << 19;
    if (opt.faults.swallow_write) return std::size_t{1} << 16;
    return 1;
  }

  // ---------------------------------------------------------------- setup

  std::unique_ptr<Stack> build_stack(const std::string& log_dir) {
    auto st = std::make_unique<Stack>();
    st->app = std::make_unique<App>(acfg_, kShards);
    st->timed = std::make_unique<TimedApp<App>>(*st->app, probe_);
    si::serve::ServiceConfig scfg;
    scfg.shards = kShards;
    // The default 1024-slot shard rings refused requests in 1-2 of 10
    // kv-read runs, when the host stalled the server for 40-60 ms at
    // 100k req/s. Deeper rings let such a stall show as latency, which the
    // p999 diagnostics report, instead of as failed operations.
    scfg.queue_capacity = kQueueCapacity;
    scfg.runtime.backend = si::runtime::Backend::kSiHtm;
    scfg.runtime.max_threads = kShards;
    if (w_.durable) {
      // Buffered, not fsync: acks are still held until the group-commit
      // daemon has written their records, but no fdatasync waits on the
      // host's shared disk, whose latency swung write_p50_us by up to 150%
      // between runs of the same code.
      std::filesystem::create_directories(log_dir);
      scfg.durability.mode = si::durability::DurabilityMode::kBuffered;
      scfg.durability.dir = log_dir;
    }
    const std::vector<pid_t> t0 = thread_ids();
    st->svc = std::make_unique<Svc>(*st->timed, scfg);
    const std::vector<pid_t> t1 = thread_ids();
    st->svc_threads = new_threads(t0, t1);
    st->front = std::make_unique<Front>(*st->svc, probe_);
    si::serve::ReactorConfig rcfg;
    rcfg.reactors = 1;
    rcfg.port = 0;
    st->pool = std::make_unique<Pool>(*st->front, rcfg);
    std::string err;
    if (!st->pool->start(&err)) {
      res_.notes.push_back("reactor start failed: " + err);
      return nullptr;
    }
    st->started = true;
    st->pool_threads = new_threads(t1, thread_ids());
    return st;
  }

  /// Builds the stack and times it from app construction to the answer to
  /// a first request (a get whose answer is the seeded value).
  bool setup_once() {
    const std::string dir = opt_.workdir + "/logs-" + w_.name + "-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(setup_times_.size());
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    log_dir_ = dir;
    const double t0 = si::obs::wall_ns();
    stack_ = build_stack(dir);
    if (stack_ == nullptr) return false;
    client_ = std::make_unique<Client>();
    std::string err;
    if (!client_->connect(stack_->pool->port(), kConns, &err)) {
      res_.notes.push_back("connect failed: " + err);
      return false;
    }
    Op probe;
    probe.key = min_key_;
    send_request(0, probe, 0, kProbe, true);
    flush_stamped();
    if (!drain()) return false;
    setup_times_.push_back((si::obs::wall_ns() - t0) * 1e-9);
    return true;
  }

  void teardown() {
    client_.reset();
    stack_.reset();
    std::error_code ec;
    std::filesystem::remove_all(log_dir_, ec);
  }

  /// Sets the stack up `n` times; the last one serves the run.
  bool setup(int n) {
    for (int i = 0; i < n; ++i) {
      if (i > 0) teardown();
      if (!setup_once()) return false;
    }
    pin_threads();
    return true;
  }

  /// Further setups after the run, so that setup_s, the median of all of
  /// them, samples the host at both ends of the run and not only in the
  /// first second.
  bool more_setups(int n) {
    unpin_client();
    for (int i = 0; i < n; ++i) {
      const bool ok = setup_once();
      teardown();
      if (!ok) return false;
    }
    std::string d = "setup_s: median of " + std::to_string(setup_times_.size()) +
                    " setups" + spread(setup_times_);
    res_.notes.push_back(d);
    return true;
  }

  /// One CPU per busy thread: the client, the reactor and each shard worker
  /// (the group-commit thread, which mostly sleeps, shares the reactor's),
  /// so that no two of them take turns on one CPU.
  /// Threads inherit their creator's CPUs, so the client is unpinned again
  /// (unpin_client) before it builds any further stack.
  void pin_threads() {
    const std::vector<int> cpus = allowed_cpus();
    if (cpus.size() < 2) {
      res_.notes.push_back("threads not pinned: only one CPU");
      return;
    }
    cpus_ = cpus;
    auto cpu = [&](std::size_t i) {
      return std::vector<int>{cpus[i % cpus.size()]};
    };
    bool ok = pin_thread(0, cpu(0));
    for (pid_t t : stack_->pool_threads) ok = pin_thread(t, cpu(1)) && ok;
    std::size_t next = 2;
    for (std::size_t i = 0; i < stack_->svc_threads.size(); ++i) {
      const bool gc = w_.durable && i == 0;
      ok = pin_thread(stack_->svc_threads[i], gc ? cpu(1) : cpu(next++)) && ok;
    }
    if (!ok) res_.notes.push_back("pinning threads failed");
  }

  void unpin_client() {
    if (!cpus_.empty()) pin_thread(0, cpus_);
  }

  Result finish_early() {
    res_.correct = false;
    client_.reset();
    stack_.reset();
    std::error_code ec;
    std::filesystem::remove_all(log_dir_, ec);
    finalize();
    return std::move(res_);
  }

  // ------------------------------------------------------------ requests

  Pending& pend(std::uint64_t id) { return pending_[id & (pending_.size() - 1)]; }

  std::uint64_t draw_key(si::util::Xoshiro256& rng, int conn) const {
    const std::uint64_t n = max_key_ - min_key_ + 1;
    if (conn < 0) return min_key_ + rng.below(n);
    const auto c = static_cast<std::uint64_t>(conn);
    const std::uint64_t first = min_key_ + (c + kConns - min_key_ % kConns) % kConns;
    const std::uint64_t count = (max_key_ - first) / kConns + 1;
    return first + kConns * rng.below(count);
  }

  /// One request of the workload's mix. Keys of point operations belong to
  /// connection `conn` (any connection when conn < 0).
  Op draw(si::util::Xoshiro256& rng, int conn) const {
    Op o;
    const std::uint64_t r = rng.below(100);
    if (r < w_.get_pct) {
      o.op = kGet;
    } else if (r < w_.get_pct + w_.range_pct) {
      o.op = kRange;
      o.key = min_key_ + rng.below(max_key_ - min_key_ + 2 - w_.span);
      o.arg = o.key + w_.span - 1;
      return o;
    } else {
      o.op = rng.below(2) == 0 ? kPut : kDel;
    }
    o.key = draw_key(rng, conn);
    if (o.op == kPut) o.arg = rng() | 1;  // 0 reads as "absent"
    return o;
  }

  static int conn_of(std::uint64_t key) {
    return static_cast<int>(key % static_cast<std::uint64_t>(kConns));
  }

  /// Encodes one request and applies it to the model. Ranges under load
  /// are only checked for plausibility (they read keys other connections
  /// are writing); `exact_range` asks for the model's exact answer.
  void send_request(int conn, const Op& o, double intended, Phase phase,
             bool exact_range) {
    const std::uint64_t id = next_id_++;
    Pending& p = pend(id);
    if (p.id != 0) {
      harness_error("more requests in flight than the pending table holds");
      return;
    }
    p.id = id;
    p.key = o.key;
    p.op = o.op;
    p.phase = phase;
    p.conn = static_cast<std::uint8_t>(conn);
    p.intended = intended;
    p.check = o.op != kRange || exact_range;
    if (phase == kProbe) {
      p.expect = probe_expect_;  // a fresh stack, whatever the model holds now
    } else {
      p.expect = o.op == kRange ? (exact_range ? model_.range(o.key, o.arg) : 0)
                                : model_.apply(o.op, o.key, o.arg);
    }
    client_->enqueue(conn, id, o.op, o.key, o.arg);
    unsent_.push_back(id);
    ++inflight_[static_cast<std::size_t>(conn)];
    ++outstanding_;
    ++res_.attempted;
  }

  /// Sends everything encoded since the last flush; the send time is
  /// stamped just before the batch goes to the kernel.
  void flush_stamped() {
    if (unsent_.empty()) return;
    const double now = si::obs::wall_ns();
    const bool traced = probe_.tracing();
    for (std::uint64_t id : unsent_) {
      Pending& p = pend(id);
      p.sent = now;
      if (p.intended == 0) p.intended = now;
      if (traced) {
        Stamps& s = probe_.slot(id);
        s.intended = p.intended;
        s.sent = now;
        s.recv = 0;
      }
    }
    unsent_.clear();
    if (!client_->flush()) harness_error("send failed");
  }

  void on_reply(std::uint64_t id, int status, std::uint64_t value, double now) {
    Pending& slot = pend(id);
    if (slot.id != id) {
      ++res_.wrong;
      note_wrong("response for unknown id " + std::to_string(id));
      return;
    }
    const Pending p = slot;
    slot.id = 0;
    --outstanding_;
    --inflight_[p.conn];
    ++replies_;
    if (status != static_cast<int>(si::serve::Status::kOk)) {
      if (status == static_cast<int>(si::serve::Status::kRejected)) {
        ++res_.rejected;
      } else {
        ++status_failed_;
      }
      if (is_write(p.op)) model_.taint(p.key);  // the model assumed it ran
      if (p.phase == kClosed) closed_tick(now, false);
      return;
    }
    if (p.op == kRange && !p.check) {
      if ((value >> 32) > w_.scan_cap) {
        ++res_.wrong;
        note_wrong("range over its cap: " + std::to_string(value >> 32));
      }
    } else if (!model_.tainted(p.key) && value != p.expect) {
      ++res_.wrong;
      note_wrong("op " + std::to_string(p.op) + " key " + std::to_string(p.key) +
                 " returned " + std::to_string(value) + ", model says " +
                 std::to_string(p.expect));
    }
    if (w_.durable && is_write(p.op)) {
      if (id >= acked_.size()) acked_.resize(id * 2 + 1024, 0);
      acked_[id] = 1;
      ++acked_writes_;
    }
    if (opt_.trace) {
      Stamps& s = probe_.slot(id);
      if (s.id == id) {
        s.recv = now;
        s.hits = static_cast<std::uint32_t>(value >> 32);
      }
    }
    switch (p.phase) {
      case kOpen:
        open_lat_[cls_of(p.op)].push_back((now - p.intended) * 1e-3);
        open_win_[cls_of(p.op)].push_back(static_cast<std::uint8_t>(std::min<double>(
            kChunks - 1, (p.intended - open_start_) / open_window_ns_)));
        gen_lag_.push_back((p.sent - p.intended) * 1e-3);
        if (p.op == kRange) {
          range_hits_ += value >> 32;
          ++ranges_;
        }
        break;
      case kClosed:
        if (opt_.trace) closed_lat_.push_back((now - p.sent) * 1e-3);
        closed_tick(now, true);
        break;
      default:
        break;
    }
  }

  void note_wrong(std::string msg) {
    if (res_.wrong <= 5) res_.notes.push_back("WRONG: " + std::move(msg));
  }

  void harness_error(const std::string& msg) {
    res_.correct = false;
    res_.notes.push_back("harness error: " + msg);
  }

  bool poll(int timeout_ms) {
    const bool ok = client_->poll(
        timeout_ms, [this](std::uint64_t id, int status, std::uint64_t value,
                           double now) { on_reply(id, status, value, now); });
    if (!ok) harness_error("connection to the server broke");
    return ok;
  }

  /// Waits for every outstanding response. Requests with no answer after
  /// kDrainTimeoutS without progress are lost.
  bool drain() {
    double last = si::obs::wall_ns();
    std::uint64_t seen = replies_;
    while (outstanding_ > 0) {
      if (!poll(10)) break;
      if (replies_ != seen) {
        seen = replies_;
        last = si::obs::wall_ns();
      } else if (si::obs::wall_ns() - last > kDrainTimeoutS * 1e9) {
        break;
      }
    }
    if (outstanding_ == 0) return true;
    for (Pending& p : pending_) {
      if (p.id == 0) continue;
      ++res_.lost;
      if (is_write(p.op)) model_.taint(p.key);
      if (res_.lost <= 5) {
        res_.notes.push_back("LOST: request " + std::to_string(p.id) + " op " +
                             std::to_string(p.op));
      }
      p.id = 0;
    }
    outstanding_ = 0;
    for (auto& n : inflight_) n = 0;
    return false;
  }

  // --------------------------------------------------------------- phases

  /// Poisson arrivals at the workload's fixed rate for `seconds`; latency
  /// counts from each request's intended send time.
  void open_phase(double seconds) {
    probe_.set_tracing(opt_.trace);
    si::util::Xoshiro256 rng(opt_.seed * 0x9E3779B97F4A7C15ULL + 1);
    const double rate_per_ns = w_.open_rate * 1e-9;
    auto gap = [&] {
      const double u = (static_cast<double>(rng() >> 11) + 0.5) * 0x1p-53;
      return -std::log(u) / rate_per_ns;
    };
    // Sized up front so the samples' growth does not move the peak RSS.
    const auto expected = static_cast<std::size_t>(w_.open_rate * seconds * 1.05);
    gen_lag_.reserve(expected);
    const double pct[kClsCount] = {static_cast<double>(w_.get_pct),
                                   100.0 - w_.get_pct - w_.range_pct,
                                   static_cast<double>(w_.range_pct)};
    for (int c = 0; c < kClsCount; ++c) {
      const auto n =
          static_cast<std::size_t>(static_cast<double>(expected) * pct[c] / 100);
      open_lat_[c].reserve(n);
      open_win_[c].reserve(n);
    }
    open_first_id_ = next_id_;
    const double start = si::obs::wall_ns() + 1e6;
    const double end = start + seconds * 1e9;
    open_start_ = start;
    open_window_ns_ = seconds * 1e9 / kChunks;
    open_steal_.clear();
    CpuTicks ticks = cpu_ticks();
    double edge = start + open_window_ns_;
    auto close_window = [&] {
      const CpuTicks t = cpu_ticks();
      open_steal_.push_back(steal_share(ticks, t));
      ticks = t;
      edge += open_window_ns_;
    };
    double next = start + gap();
    Op o = draw(rng, -1);
    while (next < end) {
      const double now = si::obs::wall_ns();
      if (now >= edge && open_steal_.size() + 1 < kChunks) close_window();
      while (next <= now && next < end) {
        const int conn = conn_of(o.key);
        send_request(conn, o, next, kOpen, false);
        o = draw(rng, -1);
        next += gap();
      }
      flush_stamped();
      if (!poll(0)) return;
    }
    while (open_steal_.size() < kChunks) close_window();
    open_end_id_ = next_id_;
    open_seconds_ = seconds;
    drain();
    probe_.set_tracing(false);
  }

  /// Keeps up to `depth` requests in flight per connection; `next(conn, &op)`
  /// supplies them until it returns false. Returns once every request was
  /// answered or declared lost.
  template <typename Next>
  void closed_loop(Phase phase, int depth, bool exact_range, Next&& next) {
    bool more = true;
    auto top_up = [&] {
      for (int c = 0; c < kConns && more; ++c) {
        while (inflight_[static_cast<std::size_t>(c)] < depth) {
          Op o;
          if (!next(c, &o)) {
            more = false;
            break;
          }
          send_request(c, o, 0, phase, exact_range);
        }
      }
      flush_stamped();
    };
    top_up();
    double last = si::obs::wall_ns();
    std::uint64_t seen = replies_;
    while (outstanding_ > 0) {
      if (!poll(10)) return;
      top_up();
      if (replies_ != seen) {
        seen = replies_;
        last = si::obs::wall_ns();
      } else if (si::obs::wall_ns() - last > kDrainTimeoutS * 1e9) {
        break;
      }
    }
    drain();
  }

  /// kClosedDepth requests in flight per connection until `count` were sent.
  /// With `alternate`, tracing is on for every other goodput window, so the
  /// traced and untraced windows of one run give the tracing overhead.
  void closed_phase(Phase phase, std::uint64_t count, bool alternate) {
    std::vector<si::util::Xoshiro256> rngs;
    for (int c = 0; c < kConns; ++c) {
      rngs.emplace_back(opt_.seed * 0xBF58476D1CE4E5B9ULL +
                        static_cast<std::uint64_t>(phase) * 131 +
                        static_cast<std::uint64_t>(c));
    }
    if (phase == kClosed) {
      chunk_size_ = std::max<std::uint64_t>(1, count / kChunks);
      chunk_done_ = 0;
      chunk_alternate_ = alternate;
      probe_.set_tracing(false);
      chunk_t0_ = si::obs::wall_ns();
      chunk_ticks_ = cpu_ticks();
    }
    std::uint64_t drawn = 0;
    const ProcSample a = sample_process();
    const double t0 = si::obs::wall_ns();
    // A fixed count keeps the log a fixed size; the deadline only keeps a run
    // on a badly stalled host inside its time limit.
    const double deadline =
        t0 + kClosedLimit * (1 - kOpenShare) * opt_.seconds * 1e9;
    closed_loop(phase, kClosedDepth, false, [&](int c, Op* o) {
      if (drawn == count) return false;
      if (si::obs::wall_ns() > deadline) return false;
      ++drawn;
      *o = draw(rngs[static_cast<std::size_t>(c)], c);
      return true;
    });
    probe_.set_tracing(false);
    if (drawn < count) {
      res_.notes.push_back("closed loop cut short at its deadline after " +
                           std::to_string(drawn) + " requests");
    }
    if (phase == kClosed) {
      const ProcSample b = sample_process();
      const double wall = (si::obs::wall_ns() - t0) * 1e-9;
      res_.notes.push_back(
          "closed loop CPU share: client " +
          std::to_string((b.client_cpu_s - a.client_cpu_s) / wall) + ", process " +
          std::to_string((b.cpu_s - a.cpu_s) / wall) + " of " +
          std::to_string(online_cpus()) + " CPUs");
    }
  }

  /// Goodput windows of the closed phase: every chunk_size_ completions.
  void closed_tick(double now, bool ok) {
    if (ok) ++closed_ok_in_chunk_;
    if (++chunk_done_ % chunk_size_ != 0) return;
    const double rate =
        static_cast<double>(closed_ok_in_chunk_) / ((now - chunk_t0_) * 1e-9);
    const bool traced = probe_.tracing();
    const CpuTicks ticks = cpu_ticks();
    (traced ? chunk_rates_traced_ : chunk_rates_).push_back(rate);
    if (!traced) chunk_steal_.push_back(steal_share(chunk_ticks_, ticks));
    chunk_ticks_ = ticks;
    closed_ok_in_chunk_ = 0;
    chunk_t0_ = now;
    if (chunk_alternate_) probe_.set_tracing(!traced);
  }

  /// After the load, every key is read back and compared exactly with the
  /// model: one get per key, or on the ordered map a sweep of ranges
  /// scan_cap keys wide (so no scan is cut short) followed by a seeded
  /// sample of load-shaped ranges.
  void reread_phase() {
    const bool by_range = w_.range_pct > 0;
    si::util::Xoshiro256 rng(opt_.seed * 0x94D049BB133111EBULL + 7);
    std::uint64_t cursor = min_key_;
    std::size_t sampled = 0;
    closed_loop(kReread, 4 * kClosedDepth, true, [&](int, Op* o) {
      if (cursor <= max_key_) {
        if (by_range) {
          o->op = kRange;
          o->key = cursor;
          o->arg = std::min(max_key_, cursor + w_.scan_cap - 1);
          cursor = o->arg + 1;
        } else {
          o->key = cursor++;
        }
        return true;
      }
      if (!by_range || sampled == kRereadRanges) return false;
      ++sampled;
      o->op = kRange;
      o->key = min_key_ + rng.below(max_key_ - min_key_ + 2 - w_.span);
      o->arg = o->key + w_.span - 1;
      return true;
    });
  }

  void stop_stack() {
    client_.reset();
    stack_->stop();
  }

  // --------------------------------------------------------------- checks

  /// Durable check and recovery: every write acknowledged OK must be in the
  /// trusted prefix of the shard logs, and replaying those logs into a
  /// freshly seeded app must reproduce the model.
  void check_and_recover() {
    const si::serve::DurabilityStats ds = stack_->svc->durability_stats();
    io_errors_ = ds.io_errors;
    if (ds.io_errors != 0) {
      res_.correct = false;
      res_.notes.push_back("log I/O errors: " + std::to_string(ds.io_errors));
    }
    stack_.reset();  // closes the logs

    std::vector<si::durability::ShardScan> scans;
    std::string err;
    if (!si::durability::scan_dir(log_dir_, &scans, &err)) {
      harness_error("scan_dir: " + err);
      return;
    }
    std::vector<std::uint8_t> logged(next_id_, 0);
    std::uint64_t log_bytes = 0;
    for (const auto& s : scans) {
      for (const auto& rec : s.scan.records) {
        if (rec.id < logged.size()) logged[rec.id] = 1;
      }
      struct stat sb {};
      if (::stat(s.path.c_str(), &sb) == 0) {
        log_bytes += static_cast<std::uint64_t>(sb.st_size);
      }
    }
    scans.clear();
    for (std::uint64_t id = 0; id < acked_.size(); ++id) {
      if (acked_[id] != 0 && (id >= logged.size() || logged[id] == 0)) {
        ++res_.durable_missing;
      }
    }
    if (res_.durable_missing != 0) {
      res_.notes.push_back("DURABILITY: " + std::to_string(res_.durable_missing) +
                           " acknowledged writes missing from the log prefix");
    }
    log_bytes_per_write_ = acked_writes_ == 0
                               ? 0
                               : static_cast<double>(log_bytes) /
                                     static_cast<double>(acked_writes_);

    // One scan-plus-replay pass into a freshly seeded app, which must then
    // equal the model.
    auto fresh = std::make_unique<App>(acfg_, kShards);
    si::runtime::RuntimeConfig rcfg;
    rcfg.backend = si::runtime::Backend::kSiHtm;
    rcfg.max_threads = 1;
    auto rt = std::make_unique<si::runtime::Runtime>(rcfg);
    const double t0 = si::obs::wall_ns();
    si::durability::scan_dir(log_dir_, &scans, &err);
    scans.clear();
    const double t1 = si::obs::wall_ns();
    const si::durability::RecoveryReport rep =
        si::durability::recover_into(*fresh, *rt, log_dir_);
    const double t2 = si::obs::wall_ns();
    if (!rep.ok || rep.failed != 0) {
      harness_error("recovery failed: " + rep.error);
      return;
    }
    recover_scan_s_ = (t1 - t0) * 1e-9;
    recover_s_ = (t2 - t1) * 1e-9;
    std::uint64_t mismatched = 0;
    for (std::uint64_t key = min_key_; key <= max_key_; ++key) {
      if (model_.tainted(key)) continue;
      si::serve::Request req;
      req.key = key;
      req.op = kGet;
      si::serve::Response resp;
      fresh->execute(*rt, 0, req, &resp);
      if (resp.value != model_.get(key)) ++mismatched;
    }
    if (mismatched != 0) {
      res_.wrong += mismatched;
      res_.notes.push_back("RECOVERY: " + std::to_string(mismatched) +
                           " keys differ from the model after replay");
    }
  }

  // -------------------------------------------------------------- metrics

  void add_e2e(const char* name, const char* unit, double v,
               std::uint64_t n = 0) {
    res_.e2e.push_back(Metric{name, unit, v, n});
  }
  void add_layer(const std::string& name, const char* unit, double v,
                 std::uint64_t n = 0) {
    res_.layer.push_back(Metric{name, unit, v, n});
  }
  void add_extra(const std::string& name, const char* unit, double v,
                 std::uint64_t n = 0) {
    res_.extra.push_back(Metric{name, unit, v, n});
  }

  void collect_server_counters(const si::serve::DurabilityStats& d0,
                               const si::serve::DurabilityStats& d1,
                               double load_s) {
    counters_ = stack_->svc->counters();
    reactor_ = stack_->pool->stats();
    threads_ = si::util::ThreadStats{};
    for (const auto& ts : stack_->svc->runtime().thread_stats()) threads_ += ts;
    const si::serve::DurabilityStats d = stack_->svc->durability_stats();
    records_per_flush_ = ratio(d.appends, d.flushes);
    flushes_per_s_ = static_cast<double>(d1.flushes - d0.flushes) / load_s;
  }

  void report(const ProcSample& a, const ProcSample& b, std::uint64_t reqs) {
    static const char* kClsName[kClsCount] = {"get", "write", "scan"};
    const bool scans = w_.range_pct > 0;
    if (!opt_.trace) {
      add_e2e("setup_s", "s", median(setup_times_));
      // Windows the host stole from are left out (low_steal_median): steal
      // came in bursts of 10-15% that halved kv-read's goodput in a window.
      // Of the rest the median, not the upper quartile: on map-scan the
      // window rates climb through the phase by 5-30%, by a different amount
      // in every run, which moved the upper quartile twice as much.
      std::size_t kept = 0;
      add_e2e("goodput_rps", "1/s",
              low_steal_median(chunk_rates_, chunk_steal_, &kept),
              chunk_rates_.size());
      res_.notes.push_back("goodput_rps: median of " + std::to_string(kept) +
                           " of " + std::to_string(chunk_rates_.size()) +
                           " windows" + spread(chunk_rates_) +
                           "; window steal shares" + spread(chunk_steal_));
      for (int c = 0; c < kClsCount; ++c) {
        if (c == kClsScan && !scans) continue;
        const std::string name = std::string(kClsName[c]) + "_p50_us";
        const std::vector<double> wins = window_p50s(c);
        const Metric m{name, "us", low_steal_median(wins, open_steal_, &kept),
                       open_lat_[c].size()};
        (c == kClsScan ? res_.extra : res_.e2e).push_back(m);
        res_.notes.push_back(name + ": median of " + std::to_string(kept) + " of " +
                             std::to_string(wins.size()) + " window p50s" +
                             spread(wins) + "; pooled p50 " +
                             std::to_string(quantile(open_lat_[c], 0.5)));
      }
      res_.notes.push_back("open-loop window steal shares" + spread(open_steal_));
      add_e2e("peak_rss_mb", "MB", peak_rss_mb_);
      if (w_.durable) {
        add_extra("recover_s", "s", recover_s_);
        add_extra("log_bytes_per_write", "B", log_bytes_per_write_, acked_writes_);
      }
      // Validity diagnostics printed beside the gated numbers.
      res_.notes.push_back("generator lag p50/p99 us: " +
                           std::to_string(quantile(gen_lag_, 0.5)) + " / " +
                           std::to_string(quantile(gen_lag_, 0.99)) +
                           " (n=" + std::to_string(gen_lag_.size()) + ")");
      for (int c = 0; c < kClsCount; ++c) {
        if (open_lat_[c].empty()) continue;
        res_.notes.push_back(std::string(kClsName[c]) + " p99/p999 us: " +
                             std::to_string(quantile(open_lat_[c], 0.99)) + " / " +
                             std::to_string(quantile(open_lat_[c], 0.999)) +
                             " (n=" + std::to_string(open_lat_[c].size()) + ")");
      }
      return;
    }

    // client: validity and tail diagnostics.
    add_layer("gen_lag_p99_us", "us", quantile(gen_lag_, 0.99), gen_lag_.size());
    for (int c = 0; c < kClsCount; ++c) {
      if (c == kClsScan && !scans) continue;
      const std::string cls = kClsName[c];
      auto& out = c == kClsScan ? res_.extra : res_.layer;
      out.push_back(Metric{cls + "_p99_us", "us", quantile(open_lat_[c], 0.99),
                           open_lat_[c].size()});
      out.push_back(Metric{cls + "_p999_us", "us", quantile(open_lat_[c], 0.999),
                           open_lat_[c].size()});
      out.push_back(Metric{cls + "_samples", "count",
                           static_cast<double>(open_lat_[c].size())});
    }
    add_layer("closed_p50_us", "us", quantile(closed_lat_, 0.5), closed_lat_.size());

    for (Metric& m : span_metrics_) res_.layer.push_back(std::move(m));

    // serve.queue counters.
    const double refused = static_cast<double>(counters_.rejected_busy +
                                               counters_.rejected_full);
    add_layer("reject_frac", "ratio",
              refused / (static_cast<double>(counters_.accepted) + refused));
    // serve.reactor counters.
    add_layer("completions_per_wakeup", "count",
              ratio(reactor_.completions, reactor_.wakeups));
    add_layer("bytes_per_flush", "B", ratio(reactor_.bytes_out, reactor_.flushes));

    // runtime (SI-HTM on the P8-HTM emulation).
    std::uint64_t aborts = 0;
    for (auto n : threads_.aborts_by_cause) aborts += n;
    add_layer("attempts_per_commit", "ratio",
              ratio(threads_.commits + aborts, threads_.commits));
    using si::util::AbortCause;
    for (AbortCause cause :
         {AbortCause::kConflictRead, AbortCause::kConflictWrite,
          AbortCause::kCapacity, AbortCause::kKilledBySgl,
          AbortCause::kExplicit, AbortCause::kKilledAsStraggler}) {
      std::string name(si::util::to_string(cause));
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      add_layer("aborts_" + name + "_per_kcommit", "count",
                1000.0 * ratio(threads_.aborts_by_cause[static_cast<int>(cause)],
                               threads_.commits));
    }
    add_layer("sgl_commit_frac", "ratio",
              ratio(threads_.sgl_commits, threads_.commits));
    add_layer("wait_spins_per_update", "count",
              ratio(threads_.wait_cycles, threads_.commits - threads_.ro_commits));
    add_layer("fastpath_hit_rate", "ratio", threads_.fast_path.hit_rate());

    if (scans) {
      add_extra("hits_per_scan", "count", ratio(range_hits_, ranges_));
    }
    if (w_.durable) {
      add_extra("records_per_flush", "count", records_per_flush_);
      add_extra("flushes_per_s", "1/s", flushes_per_s_);
      add_extra("io_errors", "count", static_cast<double>(io_errors_));
      add_extra("recover_scan_s", "s", recover_scan_s_);
      add_extra("recover_replay_s", "s", recover_s_ - recover_scan_s_);
    }

    // process: CPU the server threads burned per request of the load phases.
    const double server_cpu =
        (b.cpu_s - a.cpu_s) - (b.client_cpu_s - a.client_cpu_s);
    add_layer("server_cpu_us_per_req", "us",
              server_cpu * 1e6 / static_cast<double>(reqs));
    add_layer("ctx_switches_per_kreq", "count",
              1000.0 * ratio(b.ctx_switches - a.ctx_switches, reqs));
    add_layer("steal_frac", "ratio", steal_frac(a, b));

    add_layer("trace_unattributed_frac", "ratio", res_.trace_unattributed_frac);
    const double traced = median(chunk_rates_traced_);
    const double plain = median(chunk_rates_);
    add_layer("trace_overhead_frac", "ratio", plain > 0 ? 1.0 - traced / plain : 0);
  }

  static std::string spread(std::vector<double> v) {
    v.erase(std::remove_if(v.begin(), v.end(), [](double x) { return std::isnan(x); }),
            v.end());
    if (v.empty()) return "";
    std::sort(v.begin(), v.end());
    return " (min " + std::to_string(v.front()) + ", max " +
           std::to_string(v.back()) + ")";
  }

  /// Exact p50 of each open-loop window of class `c`; NaN when it has none.
  std::vector<double> window_p50s(int c) const {
    std::vector<std::vector<double>> per(kChunks);
    for (std::size_t i = 0; i < open_lat_[c].size(); ++i) {
      per[open_win_[c][i]].push_back(open_lat_[c][i]);
    }
    std::vector<double> out;
    for (auto& v : per) {
      out.push_back(v.empty() ? std::nan("") : quantile(v, 0.5));
    }
    return out;
  }

  static double ratio(std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0 : static_cast<double>(a) / static_cast<double>(b);
  }

  /// Per-stage spans of the traced open loop. Each instant of a request's
  /// life from send to receive is attributed to the first stage, in
  /// pipeline order, whose span covers it; what no span covers is the
  /// unattributed remainder.
  void analyze_spans() {
    static const char* kStage[] = {"reactor_in",  "queue_admit",
                                   "queue_dwell", "runtime_exec",
                                   "durability_ack_hold", "reactor_out"};
    constexpr int kStages = 6;
    std::vector<double> in_us, out_us, admit_ns, dwell_us, depth, hold_us;
    std::vector<double> exec_ns[4];
    double self[kStages] = {};
    double lag_total = 0, req_total = 0, unattributed = 0, exec_total = 0;
    double scan_exec_ns = 0, scan_hits = 0;
    std::uint64_t complete = 0, incomplete = 0;
    for (std::uint64_t id = open_first_id_; id < open_end_id_; ++id) {
      const Stamps& s = probe_.slot(id);
      if (s.id != id || s.recv == 0) continue;  // not answered OK, or reused
      if (s.sent == 0 || s.submit_in == 0 || s.submit_out == 0 ||
          s.enqueue == 0 || s.exec_in == 0 || s.exec_out == 0 || s.done == 0) {
        ++incomplete;
        continue;
      }
      ++complete;
      if (trace_sample_.size() < kTraceFileRequests) trace_sample_.push_back(s);
      const double iv[kStages][2] = {{s.sent, s.submit_in},
                                     {s.submit_in, s.submit_out},
                                     {s.enqueue, s.exec_in},
                                     {s.exec_in, s.exec_out},
                                     {s.exec_out, s.done},
                                     {s.done, s.recv}};
      // Elementary segments between all span boundaries inside [sent, recv].
      double cut[2 * kStages];
      for (int k = 0; k < kStages; ++k) {
        cut[2 * k] = std::clamp(iv[k][0], s.sent, s.recv);
        cut[2 * k + 1] = std::clamp(iv[k][1], s.sent, s.recv);
      }
      std::sort(cut, cut + 2 * kStages);
      for (int j = 0; j + 1 < 2 * kStages; ++j) {
        const double a = cut[j], b = cut[j + 1];
        if (b <= a) continue;
        int owner = -1;
        for (int k = 0; k < kStages && owner < 0; ++k) {
          if (iv[k][0] <= a && b <= iv[k][1]) owner = k;
        }
        if (owner >= 0) {
          self[owner] += b - a;
        } else {
          unattributed += b - a;
        }
      }
      lag_total += s.sent - s.intended;
      req_total += s.recv - s.sent;
      in_us.push_back((s.submit_in - s.sent) * 1e-3);
      out_us.push_back((s.recv - s.done) * 1e-3);
      admit_ns.push_back(s.submit_out - s.submit_in);
      dwell_us.push_back((s.exec_in - s.enqueue) * 1e-3);
      depth.push_back(static_cast<double>(s.depth));
      const double ex = s.exec_out - s.exec_in;
      exec_total += ex;
      if (s.op < 4) exec_ns[s.op].push_back(ex);
      if (s.op == kRange) {
        scan_exec_ns += ex;
        scan_hits += s.hits;
      }
      if (is_write(s.op)) hold_us.push_back((s.done - s.exec_out) * 1e-3);
    }
    res_.traced_requests = complete;
    res_.traced_incomplete = incomplete;
    res_.trace_unattributed_frac = req_total > 0 ? unattributed / req_total : 0;
    auto put = [&](const std::string& name, const char* unit, double v,
                   std::uint64_t n) {
      span_metrics_.push_back(Metric{name, unit, v, n});
    };
    put("traced_requests", "count", static_cast<double>(complete), 0);
    put("traced_incomplete", "count", static_cast<double>(incomplete), 0);
    put("in_p50_us", "us", quantile(in_us, 0.5), in_us.size());
    put("out_p50_us", "us", quantile(out_us, 0.5), out_us.size());
    put("submit_ns", "ns", quantile(admit_ns, 0.5), admit_ns.size());
    put("dwell_p50_us", "us", quantile(dwell_us, 0.5), dwell_us.size());
    put("depth_p50", "count", quantile(depth, 0.5), depth.size());
    put("worker_busy_frac", "ratio",
        exec_total / (open_seconds_ * 1e9 * kShards), complete);
    static const char* kOpName[] = {"get", "put", "del"};
    for (int op = 0; op < 3; ++op) {
      put(std::string("exec_") + kOpName[op] + "_ns", "ns",
          quantile(exec_ns[op], 0.5), exec_ns[op].size());
    }
    if (w_.range_pct > 0) {
      res_.extra.push_back(Metric{"scan_ns_per_hit", "ns",
                                  scan_hits > 0 ? scan_exec_ns / scan_hits : 0,
                                  exec_ns[kRange].size()});
    }
    // Without a log the hold is the hand-off from execute to the callback.
    put("ack_hold_p50_us", "us", quantile(hold_us, 0.5), hold_us.size());
    const double n = complete > 0 ? static_cast<double>(complete) : 1;
    put("request_mean_us", "us", (req_total + lag_total) * 1e-3 / n, complete);
    put("gen_lag_mean_us", "us", lag_total * 1e-3 / n, complete);
    for (int k = 0; k < kStages; ++k) {
      put(std::string("self_") + kStage[k] + "_mean_us", "us", self[k] * 1e-3 / n,
          complete);
    }
  }

  /// Chrome trace-event file of the first traced requests: one span per
  /// stage, keyed by request id, each stage's parent the request span.
  void write_trace_file() {
    const std::string path = opt_.workdir + "/spans-" + w_.name + "-seed" +
                             std::to_string(opt_.seed) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    auto span = [&](const char* name, const char* parent, std::uint64_t id,
                    double a, double b) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"parent\":\"%s\"}}",
                   first ? "" : ",\n", name,
                   static_cast<unsigned long long>(id % 64), a * 1e-3,
                   (b - a) * 1e-3, static_cast<unsigned long long>(id), parent);
      first = false;
    };
    for (const Stamps& s : trace_sample_) {
      span("client.request", "", s.id, s.intended, s.recv);
      span("reactor.in", "client.request", s.id, s.sent, s.submit_in);
      span("queue.admit", "client.request", s.id, s.submit_in, s.submit_out);
      span("queue.dwell", "client.request", s.id, s.enqueue, s.exec_in);
      span("runtime.exec", "client.request", s.id, s.exec_in, s.exec_out);
      span("durability.ack_hold", "client.request", s.id, s.exec_out, s.done);
      span("reactor.out", "client.request", s.id, s.done, s.recv);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    res_.notes.push_back("spans of " + std::to_string(trace_sample_.size()) +
                         " requests written to " + path);
  }

  void finalize() {
    res_.failed = res_.rejected + status_failed_ + res_.lost + res_.wrong +
                  res_.durable_missing;
    if (res_.wrong != 0 || res_.lost != 0 || res_.durable_missing != 0 ||
        status_failed_ != 0) {
      res_.correct = false;
    }
    if (res_.attempted == 0) res_.attempted = 1;
  }

  const Options& opt_;
  const Workload& w_;
  AppConfig acfg_;
  Model model_;
  const std::uint64_t min_key_;
  const std::uint64_t max_key_;
  const std::uint64_t probe_expect_;  ///< seeded value of min_key_
  Probe probe_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<Client> client_;
  std::string log_dir_;

  std::vector<Pending> pending_;
  std::vector<std::uint64_t> unsent_;
  std::vector<int> inflight_ = std::vector<int>(kConns, 0);
  std::uint64_t next_id_ = 1;
  std::uint64_t outstanding_ = 0;
  std::uint64_t replies_ = 0;
  std::uint64_t status_failed_ = 0;
  std::vector<std::uint8_t> acked_;
  std::uint64_t acked_writes_ = 0;

  Result res_;
  std::vector<double> setup_times_;
  double peak_rss_mb_ = 0;
  std::vector<int> cpus_;  ///< all CPUs the process may use, once pinned
  std::vector<double> open_lat_[kClsCount];
  std::vector<std::uint8_t> open_win_[kClsCount];  ///< window of each sample
  double open_start_ = 0;
  double open_window_ns_ = 1;
  std::vector<double> gen_lag_;
  std::vector<double> closed_lat_;
  std::uint64_t range_hits_ = 0;
  std::uint64_t ranges_ = 0;
  std::uint64_t open_first_id_ = 0;
  std::uint64_t open_end_id_ = 0;
  double open_seconds_ = 0;

  std::uint64_t chunk_size_ = 1;
  std::uint64_t chunk_done_ = 0;
  std::uint64_t closed_ok_in_chunk_ = 0;
  double chunk_t0_ = 0;
  bool chunk_alternate_ = false;
  std::vector<double> chunk_rates_;
  std::vector<double> chunk_steal_;  ///< host steal share of each untraced window
  CpuTicks chunk_ticks_;
  std::vector<double> open_steal_;  ///< host steal share of each open window
  std::vector<double> chunk_rates_traced_;

  std::vector<Metric> span_metrics_;
  std::vector<Stamps> trace_sample_;
  si::serve::ServiceCounters counters_;
  si::serve::ReactorStats reactor_;
  si::util::ThreadStats threads_;
  double records_per_flush_ = 0;
  double flushes_per_s_ = 0;
  std::uint64_t io_errors_ = 0;
  double recover_scan_s_ = 0;
  double recover_s_ = 0;
  double log_bytes_per_write_ = 0;
};

}  // namespace perfbench
