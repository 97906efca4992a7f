// Unified façade over the concurrency-control backends the paper evaluates
// (section 4) — HTM, SI-HTM, P8TM, Silo — plus the unsafe raw-ROT ablation,
// on real threads (runtime/backend.hpp lists them).
//
// Workload code written against the generic transaction-handle concept
// (`read`, `write`, `read_bytes`, `write_bytes`) runs unmodified on any
// backend; `Runtime` holds the machine make_machine built in one std::variant
// and every method dispatches with one std::visit over a generic lambda, so
// there is no virtual call on the access path.
#pragma once

#include <variant>
#include <vector>

#include "check/history.hpp"
#include "obs/obs.hpp"
#include "p8htm/topology.hpp"
#include "protocol/real_substrate.hpp"
#include "runtime/backend.hpp"
#include "util/stats.hpp"

namespace si::runtime {

struct RuntimeConfig {
  Backend backend = Backend::kSiHtm;
  si::p8::HtmConfig htm{};
  int max_threads = 80;
  int retries = 10;

  /// Forwarded to the selected backend's config (null: recording off).
  si::check::HistoryRecorder* recorder = nullptr;

  /// Forwarded to the selected backend's config (empty: tracing off).
  si::obs::ObsConfig obs{};
};

class Runtime {
 public:
  explicit Runtime(const RuntimeConfig& cfg)
      : cfg_(cfg),
        machine_(make_machine<si::protocol::RealSubstrate>(
            cfg.backend, cfg.retries,
            si::protocol::RealSubstrateConfig{.htm = cfg.htm,
                                              .max_threads = cfg.max_threads,
                                              .recorder = cfg.recorder,
                                              .obs = cfg.obs})) {}

  Backend backend() const noexcept { return cfg_.backend; }

  /// The configuration the runtime was built with. Phase hygiene: the
  /// driver's reset_phase_counters() reaches the obs sinks through here.
  const RuntimeConfig& config() const noexcept { return cfg_; }

  void register_thread(int tid) {
    std::visit([tid](auto& cc) { cc.register_thread(tid); }, machine_);
  }

  /// Runs `body(auto& tx)` as one transaction on the configured backend.
  /// The body must be a generic callable (it is instantiated once per
  /// backend transaction-handle type).
  template <typename Body>
  void execute(bool is_ro, Body&& body) {
    std::visit([is_ro, &body](auto& cc) { cc.execute(is_ro, body); },
               machine_);
  }

  std::vector<si::util::ThreadStats>& thread_stats() {
    return std::visit(
        [](auto& cc) -> std::vector<si::util::ThreadStats>& {
          return cc.thread_stats();
        },
        machine_);
  }

 private:
  RuntimeConfig cfg_;
  Machines<si::protocol::RealSubstrate> machine_;
};

}  // namespace si::runtime
