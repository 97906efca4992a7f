// Ablation: what does the safety wait (quiescence) cost?
//
// Compares SI-HTM against the UNSAFE shared raw-ROT core (SI-HTM with the
// safety wait compiled out — protocol/sihtm_core.hpp, SafetyWait=false; here
// built by make_machine as Backend::kRawRot). The raw-ROT variant admits the Fig. 3
// snapshot anomalies (it is NOT a correct SI implementation — it exists only
// to price the quiescence phase), so the gap between the two curves is the
// paper's "real performance cost of the quiescence phase" (section 4, last
// evaluation question).
//
// Run on the update-heavy hash-map scenario where the wait hurts most
// (50% updates, small footprint — cf. Fig. 8's conclusions).
#include "bench/common.hpp"
#include "hashmap/workload.hpp"

namespace {

si::util::RunStats run_with(si::runtime::Backend backend,
                            const si::hashmap::WorkloadConfig& wcfg, int threads,
                            double virtual_ns) {
  si::sim::SimMachineConfig mcfg;
  si::sim::SimEngine eng(mcfg, threads);
  si::hashmap::Workload w(wcfg, threads);
  auto machine = si::runtime::make_machine<si::protocol::SimSubstrate>(
      backend, 10, eng, si::protocol::SimSubstrateConfig{});
  return std::visit(
      [&](auto& cc) {
        return eng.run(virtual_ns, [&](int tid) { w.step(cc, tid); });
      },
      machine);
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  const auto sweep = si::bench::Sweep::from_cli(cli);

  si::hashmap::WorkloadConfig wcfg;
  wcfg.buckets = 1000;
  wcfg.avg_chain = 50;
  wcfg.ro_pct = 50;

  std::printf("== Ablation: quiescence (safety wait) cost ==\n");
  std::printf("hashmap 50%% RO, small footprint, low contention\n");
  for (const bool with_wait : {true, false}) {
    std::vector<si::util::SeriesPoint> points;
    for (int n : sweep.threads) {
      const auto stats = run_with(with_wait ? si::runtime::Backend::kSiHtm
                                            : si::runtime::Backend::kRawRot,
                                  wcfg, n, sweep.virtual_ns);
      points.push_back({n, stats});
      si::bench::progress_dot();
    }
    si::util::print_series(std::cout,
                           with_wait ? "SI-HTM (with safety wait)"
                                     : "raw ROT (UNSAFE, no wait)",
                           points, 1e6);
  }
  si::bench::progress_dot('\n');
  return 0;
}
