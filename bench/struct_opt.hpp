// -struct handling shared by the fig6/7/8 hash-map benches: the flag swaps
// the flat hash map for one of the zoo structures (src/maps) while keeping
// the figure's mix and footprint. Elements = buckets x avg_chain, so the
// low/high-contention pair carries over as large/small maps; the RO share
// becomes pure point lookups. Note the expected contrast with the hashmap
// panels: a tree lookup touches O(log n) =~ 18 lines where the figure's
// 200-node chains touch ~200, so point lookups here mostly FIT the TMCAM
// and HTM stays competitive — the zoo's capacity blow-up is range scans,
// which bench_maps sweeps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "maps/workload.hpp"
#include "util/cli.hpp"

namespace si::bench {

/// Runs the figure's two contention panels over the structure named by
/// `-struct` and returns the process exit code; returns -1 when the flag is
/// absent or "hashmap", i.e. the caller should run its original workload.
inline int run_struct_panels(si::util::Cli& cli, const std::string& fig,
                             const std::vector<si::runtime::Backend>& systems,
                             const Sweep& sweep, std::size_t avg_chain,
                             unsigned ro_pct, JsonSink* sink) {
  const std::string name = cli.get("struct", "hashmap");
  if (name == "hashmap") return -1;
  si::maps::Struct st;
  try {
    st = si::maps::struct_from_string(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s (or hashmap)\n", e.what());
    return 2;
  }

  for (const bool high_contention : {false, true}) {
    si::maps::MapWorkloadConfig wcfg;
    wcfg.structure = st;
    wcfg.elements = (high_contention ? 10 : 1000) * avg_chain;
    wcfg.lookup_pct = ro_pct;
    wcfg.range_pct = 0;
    run_panel(fig + " " + name + " " + std::to_string(ro_pct) + "% RO, " +
                  (high_contention ? "HIGH contention (small map)"
                                   : "LOW contention (large map)"),
              systems, sweep, /*tx_scale=*/1e6,
              [&](int threads) {
                return std::make_unique<si::maps::AnyMapWorkload>(wcfg,
                                                                  threads);
              },
              sink, cli.get("trace"));
  }
  return sink->flush() ? 0 : 1;
}

}  // namespace si::bench
