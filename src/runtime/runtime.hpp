// Unified façade over the concurrency-control backends the paper evaluates
// (section 4) — HTM, SI-HTM, P8TM, Silo — plus the unsafe raw-ROT ablation
// (SI-HTM without the safety wait; see baselines/raw_rot.hpp).
//
// Workload code written against the generic transaction-handle concept
// (`read`, `write`, `read_bytes`, `write_bytes`) runs unmodified on any
// backend; `Runtime` holds the selected backend in one std::variant and
// every method dispatches with one std::visit over a generic lambda, so there
// is no virtual call on the access path.
#pragma once

#include <stdexcept>
#include <string_view>
#include <variant>
#include <vector>

#include "baselines/htm_sgl.hpp"
#include "baselines/p8tm.hpp"
#include "baselines/raw_rot.hpp"
#include "baselines/silo.hpp"
#include "check/history.hpp"
#include "obs/obs.hpp"
#include "protocol/retry_budget.hpp"
#include "sihtm/sihtm.hpp"
#include "util/stats.hpp"

namespace si::runtime {

enum class Backend { kHtm, kSiHtm, kP8tm, kSilo, kRawRot };

std::string_view to_string(Backend b) noexcept;

/// Parses "htm" / "si-htm" / "p8tm" / "silo" / "raw-rot" (bench CLI names).
Backend backend_from_string(std::string_view name);

struct RuntimeConfig {
  Backend backend = Backend::kSiHtm;
  si::p8::HtmConfig htm{};
  int max_threads = 80;
  int retries = 10;

  /// Contention-aware retry budgets (protocol/retry_budget.hpp): forwarded
  /// to the HTM / SI-HTM / P8TM cores. Silo retries until commit and raw-ROT
  /// never falls back, so the budget does not apply to them.
  si::protocol::RetryBudgetConfig retry_budget{};

  /// Forwarded to the selected backend's config (null: recording off).
  si::check::HistoryRecorder* recorder = nullptr;

  /// Forwarded to the selected backend's config (empty: tracing off).
  si::obs::ObsConfig obs{};

  /// Post-commit hook, invoked on the committing thread after execute()
  /// returns (i.e. after the transaction committed — every backend retries
  /// internally until commit). C-style so RuntimeConfig stays trivially
  /// copyable. The durability tier (serve/service.hpp) uses it as the
  /// group-commit doorbell: the hook fires right after SI-HTM's safety wait
  /// completes, which is exactly where a batched fsync piggybacks for free
  /// (DESIGN.md section 14). Must be cheap and must not re-enter execute().
  struct CommitHook {
    void (*fn)(void* ctx, bool is_ro) = nullptr;
    void* ctx = nullptr;
  };
  CommitHook on_commit{};
};

class Runtime {
 public:
  explicit Runtime(const RuntimeConfig& cfg)
      : cfg_(cfg), backend_(make_backend(cfg)) {}

  Backend backend() const noexcept { return cfg_.backend; }

  /// The configuration the runtime was built with. Phase hygiene: the
  /// driver's reset_phase_counters() reaches the obs sinks through here.
  const RuntimeConfig& config() const noexcept { return cfg_; }

  void register_thread(int tid) {
    std::visit([tid](auto& cc) { cc.register_thread(tid); }, backend_);
  }

  /// Runs `body(auto& tx)` as one transaction on the configured backend.
  /// The body must be a generic callable (it is instantiated once per
  /// backend transaction-handle type).
  template <typename Body>
  void execute(bool is_ro, Body&& body) {
    std::visit([is_ro, &body](auto& cc) { cc.execute(is_ro, body); },
               backend_);
    if (cfg_.on_commit.fn != nullptr) cfg_.on_commit.fn(cfg_.on_commit.ctx, is_ro);
  }

  std::vector<si::util::ThreadStats>& thread_stats() {
    return std::visit(
        [](auto& cc) -> std::vector<si::util::ThreadStats>& {
          return cc.thread_stats();
        },
        backend_);
  }

 private:
  using Backends = std::variant<si::baselines::HtmSgl, si::sihtm::SiHtm,
                                si::baselines::P8tm, si::baselines::Silo,
                                si::baselines::RawRot>;

  /// Builds the selected backend. Each return is a prvalue, so the variant
  /// is constructed directly in `backend_`: no backend is copied or moved.
  static Backends make_backend(const RuntimeConfig& cfg) {
    switch (cfg.backend) {
      case Backend::kHtm:
        return Backends(std::in_place_type<si::baselines::HtmSgl>,
                        si::baselines::HtmSglConfig{
                            .htm = cfg.htm, .max_threads = cfg.max_threads,
                            .retries = cfg.retries,
                            .retry_budget = cfg.retry_budget,
                            .recorder = cfg.recorder, .obs = cfg.obs});
      case Backend::kSiHtm:
        return Backends(std::in_place_type<si::sihtm::SiHtm>,
                        si::sihtm::SiHtmConfig{
                            .htm = cfg.htm, .max_threads = cfg.max_threads,
                            .retries = cfg.retries,
                            .retry_budget = cfg.retry_budget,
                            .recorder = cfg.recorder, .obs = cfg.obs});
      case Backend::kP8tm:
        return Backends(std::in_place_type<si::baselines::P8tm>,
                        si::baselines::P8tmConfig{
                            .htm = cfg.htm, .max_threads = cfg.max_threads,
                            .retries = cfg.retries,
                            .retry_budget = cfg.retry_budget,
                            .recorder = cfg.recorder, .obs = cfg.obs});
      case Backend::kSilo:
        return Backends(std::in_place_type<si::baselines::Silo>,
                        si::baselines::SiloConfig{
                            .max_threads = cfg.max_threads,
                            .recorder = cfg.recorder, .obs = cfg.obs});
      case Backend::kRawRot:
        return Backends(std::in_place_type<si::baselines::RawRot>,
                        si::baselines::RawRotConfig{
                            .htm = cfg.htm, .max_threads = cfg.max_threads,
                            .recorder = cfg.recorder, .obs = cfg.obs});
    }
    throw std::invalid_argument("unknown backend");
  }

  RuntimeConfig cfg_;
  Backends backend_;
};

inline std::string_view to_string(Backend b) noexcept {
  switch (b) {
    case Backend::kHtm: return "HTM";
    case Backend::kSiHtm: return "SI-HTM";
    case Backend::kP8tm: return "P8TM";
    case Backend::kSilo: return "Silo";
    case Backend::kRawRot: return "raw-ROT";
  }
  return "?";
}

inline Backend backend_from_string(std::string_view name) {
  if (name == "htm" || name == "HTM") return Backend::kHtm;
  if (name == "si-htm" || name == "sihtm" || name == "SI-HTM") return Backend::kSiHtm;
  if (name == "p8tm" || name == "P8TM") return Backend::kP8tm;
  if (name == "silo" || name == "Silo") return Backend::kSilo;
  if (name == "raw-rot" || name == "rawrot" || name == "raw-ROT") return Backend::kRawRot;
  throw std::invalid_argument("unknown backend: " + std::string(name));
}

}  // namespace si::runtime
