// Timing wrappers around the serving stack's public seams.
//
//  * TimedApp<App> is passed to serve::Service as its App. It forwards
//    execute() and logged_op(), and on traced requests stamps the request's
//    enqueue time (set by Service::submit) and the execute() boundaries.
//  * TimedService<Svc> is passed to serve::ReactorPool as its ServiceT. It
//    forwards shards()/config()/submit(), and on traced requests stamps the
//    submit() boundaries and replaces Request::done with a trampoline that
//    stamps the completion before calling the reactor's own callback.
//
// Stamps of a request live in a preallocated slot indexed by its id, on the
// obs::wall_ns() timebase the client also uses, so every span of a request
// is measured on one clock. Untraced requests pass straight through: the
// only added work is one relaxed load and two compares per call.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/runtime.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace perfbench {

/// Stage boundaries of one request (ns, obs::wall_ns timebase). Written by
/// the thread that owns each boundary; read by the client thread only after
/// the request's response arrived and its phase ended.
struct Stamps {
  std::uint64_t id = 0;
  double intended = 0;    ///< client: when the schedule said to send
  double sent = 0;        ///< client: send() of the batch holding it
  double submit_in = 0;   ///< reactor: Service::submit entry
  double submit_out = 0;  ///< reactor: Service::submit return
  double enqueue = 0;     ///< server: Request::enqueue_ns
  double exec_in = 0;     ///< shard worker: App::execute entry
  double exec_out = 0;    ///< shard worker: App::execute return
  double done = 0;        ///< completion callback entry (worker or daemon)
  double recv = 0;        ///< client: response parsed
  std::uint32_t depth = 0;  ///< shard queue depth seen by submit
  std::uint32_t hits = 0;   ///< client: range hits in the response
  std::uint16_t op = 0;
  bool swallow = false;     ///< self-test: drop this completion
  si::serve::CompletionFn done_fn = nullptr;  ///< the reactor's callback
  void* done_ctx = nullptr;
};

class Probe {
 public:
  /// `slots` is rounded up to a power of two and must exceed the number of
  /// requests in flight at any time.
  explicit Probe(std::size_t slots) {
    std::size_t n = 1;
    while (n < slots) n <<= 1;
    slots_.resize(n);
    mask_ = n - 1;
  }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  Stamps& slot(std::uint64_t id) noexcept { return slots_[id & mask_]; }

  void set_tracing(bool on) noexcept {
    tracing_.store(on, std::memory_order_relaxed);
  }
  bool tracing() const noexcept {
    return tracing_.load(std::memory_order_relaxed);
  }

  /// Self-test faults: the first get (resp. write) with id >= the armed id
  /// is corrupted (resp. swallowed). 0 = disarmed.
  void arm_corrupt_get(std::uint64_t from_id) noexcept {
    corrupt_from_.store(from_id, std::memory_order_relaxed);
  }
  void arm_swallow_write(std::uint64_t from_id) noexcept {
    swallow_from_.store(from_id, std::memory_order_relaxed);
  }

  /// True (once) when request `id` of opcode `op` is the one to corrupt.
  bool take_corrupt(std::uint64_t id, std::uint16_t op) noexcept {
    return take(&corrupt_from_, id, op == 0);
  }
  bool take_swallow(std::uint64_t id, std::uint16_t op) noexcept {
    return take(&swallow_from_, id, op == 1 || op == 2);
  }
  bool swallow_armed() const noexcept {
    return swallow_from_.load(std::memory_order_relaxed) != 0;
  }

  /// Completion trampoline installed on traced requests.
  static void on_done(void* ctx, const si::serve::Response& resp) {
    auto* s = static_cast<Stamps*>(ctx);
    s->done = si::obs::wall_ns();
    if (s->swallow) return;
    s->done_fn(s->done_ctx, resp);
  }

 private:
  static bool take(std::atomic<std::uint64_t>* armed, std::uint64_t id,
                   bool op_matches) noexcept {
    if (!op_matches) return false;
    std::uint64_t from = armed->load(std::memory_order_relaxed);
    if (from == 0 || id < from) return false;
    return armed->compare_exchange_strong(from, 0, std::memory_order_relaxed);
  }

  std::vector<Stamps> slots_;
  std::size_t mask_ = 0;
  std::atomic<bool> tracing_{false};
  std::atomic<std::uint64_t> corrupt_from_{0};
  std::atomic<std::uint64_t> swallow_from_{0};
};

template <typename App>
class TimedApp {
 public:
  TimedApp(App& app, Probe& probe) : app_(app), probe_(probe) {}

  void execute(si::runtime::Runtime& rt, int tid,
               const si::serve::Request& req, si::serve::Response* resp) {
    if (req.done != &Probe::on_done) {
      app_.execute(rt, tid, req, resp);
    } else {
      Stamps& s = *static_cast<Stamps*>(req.ctx);
      s.enqueue = req.enqueue_ns;
      s.exec_in = si::obs::wall_ns();
      app_.execute(rt, tid, req, resp);
      s.exec_out = si::obs::wall_ns();
    }
    if (probe_.take_corrupt(req.id, req.op)) resp->value ^= 0x5A5A5A5AULL;
  }

  static bool logged_op(std::uint16_t op) noexcept { return App::logged_op(op); }

 private:
  App& app_;
  Probe& probe_;
};

template <typename Svc>
class TimedService {
 public:
  TimedService(Svc& svc, Probe& probe) : svc_(svc), probe_(probe) {}

  int shards() const noexcept { return svc_.shards(); }
  const si::serve::ServiceConfig& config() const noexcept {
    return svc_.config();
  }

  si::serve::SubmitResult submit(si::serve::Request req) {
    if (!probe_.tracing() && !probe_.swallow_armed()) return svc_.submit(req);
    Stamps& s = probe_.slot(req.id);
    s.submit_in = si::obs::wall_ns();
    s.id = req.id;
    s.op = req.op;
    s.swallow = probe_.take_swallow(req.id, req.op);
    s.done_fn = req.done;
    s.done_ctx = req.ctx;
    req.done = &Probe::on_done;
    req.ctx = &s;
    const si::serve::SubmitResult r = svc_.submit(req);
    s.submit_out = si::obs::wall_ns();
    s.depth = static_cast<std::uint32_t>(r.depth);
    return r;
  }

 private:
  Svc& svc_;
  Probe& probe_;
};

}  // namespace perfbench
