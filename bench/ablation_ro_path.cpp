// Ablation: what does the read-only fast path buy (paper section 4,
// factor ii)?
//
// Compares standard SI-HTM against a variant that declares every transaction
// read-write, forcing lookups through the ROT + safety-wait machinery. The
// gap isolates the benefit of running read-only transactions entirely
// non-transactionally (no begin/commit overhead, no capacity bound, no
// quiescence on commit).
#include "bench/common.hpp"
#include "hashmap/workload.hpp"

namespace {

using SiHtm = si::protocol::Machine<
    si::protocol::SiHtmCore<si::protocol::SimSubstrate>,
    si::protocol::SimSubstrate>;

/// Adapter that hides the RO flag from SI-HTM.
struct NoRoPath {
  SiHtm& inner;
  template <typename Body>
  void execute(bool /*is_ro*/, Body&& body) {
    inner.execute(false, std::forward<Body>(body));
  }
};

si::util::RunStats run_with(bool ro_path,
                            const si::hashmap::WorkloadConfig& wcfg, int threads,
                            double virtual_ns) {
  si::sim::SimMachineConfig mcfg;
  si::sim::SimEngine eng(mcfg, threads);
  si::hashmap::Workload w(wcfg, threads);
  SiHtm cc(eng);
  NoRoPath no_ro{cc};
  return eng.run(virtual_ns, [&](int tid) {
    if (ro_path) {
      w.step(cc, tid);
    } else {
      w.step(no_ro, tid);
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  const auto sweep = si::bench::Sweep::from_cli(cli);

  si::hashmap::WorkloadConfig wcfg;
  wcfg.buckets = 1000;
  wcfg.avg_chain = 200;
  wcfg.ro_pct = 90;

  std::printf("== Ablation: read-only fast path ==\n");
  std::printf("hashmap 90%% RO, large footprint, low contention\n");
  for (const bool ro_path : {true, false}) {
    std::vector<si::util::SeriesPoint> points;
    for (int n : sweep.threads) {
      const auto stats = run_with(ro_path, wcfg, n, sweep.virtual_ns);
      points.push_back({n, stats});
      si::bench::progress_dot();
    }
    si::util::print_series(std::cout,
                           ro_path ? "SI-HTM (RO fast path on)"
                                   : "SI-HTM (RO fast path off)",
                           points, 1e6);
  }
  si::bench::progress_dot('\n');
  return 0;
}
