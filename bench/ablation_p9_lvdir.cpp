// Ablation: POWER9's L2 LVDIR (paper section 2.2).
//
// POWER9 adds a 512 KiB read-tracking structure per core pair, "only used by
// up to two threads at any given time". The paper argues this makes it
// "essentially incompatible with workloads with large transactions that wish
// to use SMT". This bench runs plain HTM on the large-footprint read-only
// hash-map scenario on three machines:
//   * POWER8 (no LVDIR)           — capacity aborts everywhere;
//   * POWER9 (LVDIR, 2 slots)     — great at <=2 threads/pair, starved after;
//   * SI-HTM on POWER8            — for reference: capacity-free reads at any
//                                   thread count, which is the paper's point.
#include "bench/common.hpp"
#include "hashmap/workload.hpp"

namespace {

si::util::RunStats run_machine(const si::sim::SimMachineConfig& mcfg,
                               const si::hashmap::WorkloadConfig& wcfg,
                               int threads, double virtual_ns, bool si_htm) {
  si::sim::SimEngine eng(mcfg, threads);
  si::hashmap::Workload w(wcfg, threads);
  auto machine = si::runtime::make_machine<si::protocol::SimSubstrate>(
      si_htm ? si::runtime::Backend::kSiHtm : si::runtime::Backend::kHtm, 10, eng, si::protocol::SimSubstrateConfig{});
  return std::visit(
      [&](auto& cc) {
        return eng.run(virtual_ns, [&](int tid) { w.step(cc, tid); });
      },
      machine);
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  auto sweep = si::bench::Sweep::from_cli(cli);
  if (!cli.has("threads")) sweep.threads = {1, 2, 4, 8, 16, 40};

  si::hashmap::WorkloadConfig wcfg;
  wcfg.buckets = 1000;
  wcfg.avg_chain = 200;
  wcfg.ro_pct = 90;

  std::printf("== Ablation: POWER9 L2 LVDIR read tracking ==\n");
  std::printf("hashmap 90%% RO, large footprint, low contention\n");

  struct Config {
    const char* label;
    si::sim::SimMachineConfig mcfg;
    bool si_htm;
  };
  const Config configs[] = {
      {"HTM on POWER8 (no LVDIR)", si::sim::SimMachineConfig{}, false},
      {"HTM on POWER9 (LVDIR)", si::sim::SimMachineConfig::power9(), false},
      {"SI-HTM on POWER8", si::sim::SimMachineConfig{}, true},
  };
  for (const auto& config : configs) {
    std::vector<si::util::SeriesPoint> points;
    for (int n : sweep.threads) {
      points.push_back(
          {n, run_machine(config.mcfg, wcfg, n, sweep.virtual_ns, config.si_htm)});
      si::bench::progress_dot();
    }
    si::util::print_series(std::cout, config.label, points, 1e6);
  }
  si::bench::progress_dot('\n');
  return 0;
}
