// Abort-taxonomy counter surface: the live-diagnosis companion to the
// latency histograms in obs/metrics.hpp.
//
// The paper's capacity/abort analysis (and the hybrid-TM literature it leans
// on) argues that *which* abort dominates is the diagnosis: capacity aborts
// mean the footprint outgrew the TMCAM, conflict aborts mean contention,
// straggler/SGL kills mean the fall-back machinery is doing the work. This
// header gives every one of those events a monotonic counter that the admin
// endpoint (serve/telemetry.hpp) and `si_trace -summary` report under the
// same names, so live scrapes and offline traces agree.
//
// Concurrency contract mirrors util/histogram.hpp: each Taxonomy instance
// has at most one writer (the owning thread, via its padded ThreadMetrics
// slot), but any thread may read, copy, merge or subtract it mid-run. The
// counters are relaxed atomics so the single-writer bump compiles to a plain
// increment while concurrent snapshot reads stay well-defined.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "util/stats.hpp"

namespace si::obs {

/// One counter per live-diagnosis event class. The first five partition the
/// abort causes of util/stats.hpp (every tx_abort bumps exactly one); the
/// rest count fall-back / adaptation events that are not aborts themselves.
enum class TaxonomyCounter : std::uint8_t {
  kCapacityAbort = 0,  ///< TMCAM exhaustion (AbortCause::kCapacity)
  kConflictAbort,      ///< read/write conflicts (kConflictRead|kConflictWrite)
  kStragglerKill,      ///< victim killed as a straggler (kKilledAsStraggler)
  kSglKill,            ///< victim killed by an SGL acquirer (kKilledBySgl)
  kExplicitAbort,      ///< self-aborts (kExplicit and anything unmapped)
  kSglFallback,        ///< transactions that gave up and took the SGL
  kSharedRoAdmit,      ///< RO tx admitted in SGL shared mode during a drain
  kHwKillInit,         ///< kills *initiated* by the emulation layer (killer side)
  kCount_,
};

inline constexpr int kTaxonomyCounters =
    static_cast<int>(TaxonomyCounter::kCount_);

/// Human-facing label (si_top, si_trace -summary).
inline std::string_view to_string(TaxonomyCounter c) noexcept {
  switch (c) {
    case TaxonomyCounter::kCapacityAbort: return "capacity-abort";
    case TaxonomyCounter::kConflictAbort: return "conflict-abort";
    case TaxonomyCounter::kStragglerKill: return "straggler-kill";
    case TaxonomyCounter::kSglKill: return "sgl-kill";
    case TaxonomyCounter::kExplicitAbort: return "explicit-abort";
    case TaxonomyCounter::kSglFallback: return "sgl-fallback";
    case TaxonomyCounter::kSharedRoAdmit: return "shared-ro-admit";
    case TaxonomyCounter::kHwKillInit: return "hw-kill-initiated";
    case TaxonomyCounter::kCount_: break;
  }
  return "?";
}

/// Prometheus label value / JSON key (same words, snake_case).
inline std::string_view metric_name(TaxonomyCounter c) noexcept {
  switch (c) {
    case TaxonomyCounter::kCapacityAbort: return "capacity_abort";
    case TaxonomyCounter::kConflictAbort: return "conflict_abort";
    case TaxonomyCounter::kStragglerKill: return "straggler_kill";
    case TaxonomyCounter::kSglKill: return "sgl_kill";
    case TaxonomyCounter::kExplicitAbort: return "explicit_abort";
    case TaxonomyCounter::kSglFallback: return "sgl_fallback";
    case TaxonomyCounter::kSharedRoAdmit: return "shared_ro_admit";
    case TaxonomyCounter::kHwKillInit: return "hw_kill_initiated";
    case TaxonomyCounter::kCount_: break;
  }
  return "?";
}

/// Which taxonomy counter an abort cause lands in. Total: every cause maps
/// somewhere, so sum(first five counters) == total aborts observed.
constexpr TaxonomyCounter taxonomy_of(si::util::AbortCause cause) noexcept {
  switch (cause) {
    case si::util::AbortCause::kCapacity:
      return TaxonomyCounter::kCapacityAbort;
    case si::util::AbortCause::kConflictRead:
    case si::util::AbortCause::kConflictWrite:
      return TaxonomyCounter::kConflictAbort;
    case si::util::AbortCause::kKilledAsStraggler:
      return TaxonomyCounter::kStragglerKill;
    case si::util::AbortCause::kKilledBySgl:
      return TaxonomyCounter::kSglKill;
    default:
      return TaxonomyCounter::kExplicitAbort;
  }
}

/// Fixed array of relaxed-atomic counters with the Histogram value
/// semantics: copyable mid-run, mergeable across threads, and subtractable
/// (saturating) to turn cumulative snapshots into epoch windows.
class Taxonomy {
 public:
  Taxonomy() = default;
  Taxonomy(const Taxonomy& other) noexcept { assign(other); }
  Taxonomy& operator=(const Taxonomy& other) noexcept {
    if (this != &other) assign(other);
    return *this;
  }

  void bump(TaxonomyCounter c, std::uint64_t by = 1) noexcept {
    Word& w = counts_[static_cast<int>(c)];
    st(w, ld(w) + by);  // single-writer increment, never an RMW bus lock
  }

  std::uint64_t count(TaxonomyCounter c) const noexcept {
    return ld(counts_[static_cast<int>(c)]);
  }
  std::uint64_t count(int i) const noexcept { return ld(counts_[i]); }

  /// Sum of the five abort-partition counters (== total aborts observed).
  std::uint64_t total_aborts() const noexcept {
    std::uint64_t t = 0;
    for (int i = 0; i <= static_cast<int>(TaxonomyCounter::kExplicitAbort); ++i) {
      t += ld(counts_[i]);
    }
    return t;
  }

  void merge(const Taxonomy& other) noexcept {
    for (int i = 0; i < kTaxonomyCounters; ++i) {
      st(counts_[i], ld(counts_[i]) + ld(other.counts_[i]));
    }
  }

  /// Removes an `earlier` cumulative snapshot, leaving the window since it.
  /// Saturating like Histogram::subtract: torn mid-run snapshot pairs clamp
  /// to zero rather than wrap.
  void subtract(const Taxonomy& earlier) noexcept {
    for (int i = 0; i < kTaxonomyCounters; ++i) {
      const std::uint64_t mine = ld(counts_[i]);
      const std::uint64_t theirs = ld(earlier.counts_[i]);
      st(counts_[i], mine - (mine > theirs ? theirs : mine));
    }
  }

  void reset() noexcept {
    for (auto& w : counts_) st(w, 0);
  }

 private:
  using Word = std::atomic<std::uint64_t>;

  static std::uint64_t ld(const Word& w) noexcept {
    return w.load(std::memory_order_relaxed);
  }
  static void st(Word& w, std::uint64_t v) noexcept {
    w.store(v, std::memory_order_relaxed);
  }

  void assign(const Taxonomy& other) noexcept {
    for (int i = 0; i < kTaxonomyCounters; ++i) {
      st(counts_[i], other.ld(other.counts_[i]));
    }
  }

  Word counts_[kTaxonomyCounters] = {};
};

}  // namespace si::obs
