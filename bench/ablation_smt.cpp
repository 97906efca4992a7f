// Ablation: how much does TMCAM sharing across SMT threads cost (paper
// section 4, factor iii)?
//
// Runs the same thread counts on (a) the real machine model — 10 cores, the
// 64-entry TMCAM shared by co-located SMT threads — and (b) a hypothetical
// machine with one core per thread (every thread owns a private TMCAM).
// The gap is precisely the SMT sharing penalty that the paper identifies as
// the historical reason "HTM has been historically bad on SMT execution".
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
  if (!cli.has("threads")) sweep.threads = {10, 20, 40, 80};  // SMT-1..8

  si::hashmap::WorkloadConfig wcfg;
  wcfg.buckets = 1000;
  wcfg.avg_chain = 50;
  wcfg.ro_pct = 50;  // update-heavy: write sets contend for the TMCAM

  std::printf("== Ablation: TMCAM sharing across SMT threads ==\n");
  std::printf("hashmap 50%% RO, small footprint, low contention\n");
  for (const bool si_htm : {false, true}) {
    for (const bool shared_tmcam : {true, false}) {
      si::sim::SimMachineConfig mcfg;
      if (!shared_tmcam) {
        mcfg.topo.cores = si::p8::kMaxThreads;  // one private TMCAM each
        mcfg.topo.smt = 1;
      }
      std::vector<si::util::SeriesPoint> points;
      for (int n : sweep.threads) {
        points.push_back({n, run_machine(mcfg, wcfg, n, sweep.virtual_ns, si_htm)});
        si::bench::progress_dot();
      }
      std::string label = si_htm ? "SI-HTM" : "HTM";
      label += shared_tmcam ? " (shared TMCAM, SMT)" : " (private TMCAM each)";
      si::util::print_series(std::cout, label, points, 1e6);
    }
  }
  si::bench::progress_dot('\n');
  return 0;
}
