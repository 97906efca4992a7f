// Exact order statistics over raw samples. Every latency the benchmark
// reports is computed here from the full list of per-request values, never
// from a bucketed histogram.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `v` by linear interpolation between the
/// two nearest ranks. Reorders `v`. Returns 0 for an empty sample.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  double b = a;
  if (hi != lo) {
    b = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  }
  return a + (b - a) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Median of per-window values over the windows in which the host stole the
/// least CPU: those whose steal share is at most max(1%, the lower quartile
/// of all windows' shares). A run the host left alone keeps every window; in
/// a run it stole from in bursts, the stolen windows do not count. NaN
/// values (windows without samples) are skipped. `kept` receives how many
/// windows were used.
inline double low_steal_median(const std::vector<double>& v,
                               const std::vector<double>& steal,
                               std::size_t* kept) {
  std::vector<double> shares;
  for (std::size_t i = 0; i < v.size() && i < steal.size(); ++i) {
    if (!std::isnan(v[i])) shares.push_back(steal[i]);
  }
  const double limit = std::max(0.01, quantile(shares, 0.25));
  std::vector<double> use;
  for (std::size_t i = 0; i < v.size() && i < steal.size(); ++i) {
    if (!std::isnan(v[i]) && steal[i] <= limit) use.push_back(v[i]);
  }
  *kept = use.size();
  return median(std::move(use));
}

}  // namespace perfbench
