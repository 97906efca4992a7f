// Map-zoo bench — the workload-zoo counterpart of the fig6-8 hash-map
// sweeps: skiplist / BST / B+-tree under all four protocols on the simulated
// POWER8, plus the coarse- and fine-lock baselines on real threads.
//
//   bench_maps -quick -json BENCH_maps.json            # all three panels
//   bench_maps -struct skiplist -range 25 -width 100
//
// Default mix is the read-mostly 90/10 the paper's capacity argument lives
// on: 65% point lookups + 25% range scans (both read-only) + 10% updates.
// A range scan descends the structure and then walks ~width keys — far past
// POWER8's 64-line transactional read capacity — so HTM+SGL aborts it for
// capacity and serialises on the SGL, while SI-HTM serves the same scan
// from the non-transactional read path. That is the headline comparison
// BENCH_maps.json commits (SI-HTM > HTM on every read-mostly panel).
//
// The locked baselines spin, which would deadlock the cooperative fiber
// scheduler, so they run on real threads (runtime/driver.hpp) for -locked-ms
// wall milliseconds per point and report plain ops/s. Their rows carry
// system names "CoarseLock"/"FineLock" in the JSON so bench_to_csv.py
// --compare keys them apart from the simulated protocols.
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "maps/locked.hpp"
#include "maps/workload.hpp"
#include "runtime/driver.hpp"
#include "util/stats.hpp"

namespace {

/// One locked-baseline point: `threads` real threads hammer the mix for
/// `wall_ms`; throughput is completed ops/s (locked runs have no tx stats).
template <typename Map>
si::bench::BenchRecord run_locked_point(const si::maps::MapWorkloadConfig& cfg,
                                        si::maps::LockMode mode, int threads,
                                        double wall_ms,
                                        const std::string& panel) {
  si::maps::LockedWorkload<Map> w(cfg, mode, threads);
  const double secs = si::runtime::run_threads(
      threads,
      std::chrono::nanoseconds(static_cast<std::int64_t>(wall_ms * 1e6)),
      [](int) {},
      [&](si::runtime::WorkerContext ctx) {
        while (!ctx.should_stop()) w.step(ctx.tid);
      });
  si::bench::BenchRecord rec;
  rec.system = mode == si::maps::LockMode::kCoarse ? "CoarseLock" : "FineLock";
  rec.point = panel;
  rec.threads = threads;
  rec.commits = w.total_ops();
  rec.throughput = secs > 0 ? static_cast<double>(w.total_ops()) / secs : 0;
  return rec;
}

template <typename Map>
void run_locked_rows(const si::maps::MapWorkloadConfig& cfg,
                     const std::vector<int>& threads, double wall_ms,
                     const std::string& panel, si::bench::JsonSink* sink) {
  for (const si::maps::LockMode mode :
       {si::maps::LockMode::kCoarse, si::maps::LockMode::kFine}) {
    std::printf("%-10s", std::string(si::maps::to_string(mode)).c_str());
    for (const int n : threads) {
      const auto rec = run_locked_point<Map>(cfg, mode, n, wall_ms, panel);
      std::printf("  %dt %.2fMops/s", n, rec.throughput / 1e6);
      if (sink) sink->add(rec);
      si::bench::progress_dot();
    }
    std::printf("\n");
  }
}

void usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [-struct all|skiplist|bst|btree] [-elements N]\n"
      "          [-lookup PCT] [-range PCT] [-width N]\n"
      "          [-threads LIST] [-ms MS] [-quick] [-json FILE]\n"
      "          [-trace FILE] [-locked-threads LIST] [-locked-ms MS]\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    usage(argv[0]);
    return 0;
  }
  const auto sweep = si::bench::Sweep::from_cli(cli);
  auto sink = si::bench::JsonSink::from_cli(cli, "bench_maps");
  const std::vector<si::runtime::Backend> systems = {
      si::runtime::Backend::kHtm, si::runtime::Backend::kSiHtm,
      si::runtime::Backend::kP8tm, si::runtime::Backend::kSilo};

  const std::string which = cli.get("struct", "all");
  std::vector<si::maps::Struct> structs;
  if (which == "all") {
    structs = {si::maps::Struct::kSkiplist, si::maps::Struct::kBst,
               si::maps::Struct::kBtree};
  } else {
    try {
      structs = {si::maps::struct_from_string(which)};
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      usage(argv[0]);
      return 2;
    }
  }

  si::maps::MapWorkloadConfig base;
  base.elements = static_cast<std::size_t>(cli.get_int("elements", 10000));
  base.lookup_pct = static_cast<unsigned>(cli.get_int("lookup", 65));
  base.range_pct = static_cast<unsigned>(cli.get_int("range", 25));
  base.range_width = static_cast<std::uint64_t>(cli.get_int("width", 100));

  // Locked baselines: real threads, so sweep only what the host can run
  // honestly (spinning at 80 "threads" on a laptop measures the scheduler).
  std::vector<int> locked_threads{1, 2, 4, 8};
  locked_threads =
      si::util::parse_int_list(cli.get("locked-threads"), locked_threads);
  const double locked_ms = cli.get_double("locked-ms", 20.0);

  const unsigned ro = base.lookup_pct + base.range_pct;
  for (const si::maps::Struct st : structs) {
    si::maps::MapWorkloadConfig cfg = base;
    cfg.structure = st;
    const std::string panel =
        "maps " + std::string(si::maps::to_string(st)) + " " +
        std::to_string(ro) + "/" + std::to_string(100 - ro) + " (" +
        std::to_string(cfg.range_pct) + "% range scans)";
    si::bench::run_panel(
        panel, systems, sweep, /*tx_scale=*/1e6,
        [&](int threads) {
          return std::make_unique<si::maps::AnyMapWorkload>(cfg, threads);
        },
        &sink, cli.get("trace"));

    std::printf("-- locked baselines (real threads, %.0f ms/point) --\n",
                locked_ms);
    switch (st) {
      case si::maps::Struct::kSkiplist:
        run_locked_rows<si::maps::SkipList>(cfg, locked_threads, locked_ms,
                                            panel, &sink);
        break;
      case si::maps::Struct::kBst:
        run_locked_rows<si::maps::Bst>(cfg, locked_threads, locked_ms, panel,
                                       &sink);
        break;
      case si::maps::Struct::kBtree:
        run_locked_rows<si::maps::Btree>(cfg, locked_threads, locked_ms, panel,
                                         &sink);
        break;
    }
    std::printf("\n");
  }
  return sink.flush() ? 0 : 1;
}
