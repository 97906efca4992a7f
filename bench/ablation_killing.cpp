// Ablation: the paper's future-work "killing alternative" (section 6) —
// instead of idling through the safety wait, completed transactions kill
// stragglers that take too long to complete.
//
// Run on TPC-C's standard mix at high contention, where long NEW-ORDER /
// DELIVERY transactions regularly make committers wait. Compares the
// evaluated SI-HTM (pure waiting) against kill thresholds of 2 us and 500 ns.
// Expected trade-off: killing shortens waits (higher committer throughput)
// but wastes the stragglers' work (higher transactional abort rate) — the
// paper anticipates "system-efficient heuristics" would arbitrate this.
#include "bench/common.hpp"
#include "tpcc/workload.hpp"

namespace {

si::util::RunStats run_policy(const si::tpcc::DbConfig& dcfg, int threads,
                              double virtual_ns, double kill_after_ns) {
  si::sim::SimMachineConfig mcfg;
  si::sim::SimEngine eng(mcfg, threads);
  si::tpcc::Workload w(dcfg, si::tpcc::Mix::standard(), threads);
  using si::protocol::SimSubstrate;
  si::protocol::Machine<si::protocol::SiHtmCore<SimSubstrate>, SimSubstrate> cc(
      eng, {.straggler_kill_after_ns = kill_after_ns});
  return eng.run(virtual_ns, [&](int tid) { w.step(cc, tid); });
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  auto sweep = si::bench::Sweep::from_cli(cli);
  if (!cli.has("ms")) sweep.virtual_ns = 5e6;
  if (!cli.has("threads")) sweep.threads = {4, 8, 16, 40};

  si::tpcc::DbConfig dcfg;
  dcfg.warehouses = 1;  // high contention
  dcfg.items = 2000;
  dcfg.customers_per_district = 300;
  dcfg.initial_orders_per_district = 200;
  dcfg.order_ring_bits = 12;

  std::printf("== Ablation: straggler-killing policy (future work, sec. 6) ==\n");
  std::printf("TPC-C standard mix, 1 warehouse (high contention)\n");
  const struct {
    const char* label;
    double kill_after_ns;
  } policies[] = {
      {"SI-HTM (wait, as evaluated)", 0},
      {"SI-HTM + kill stragglers >2us", 2000},
      {"SI-HTM + kill stragglers >500ns", 500},
  };
  for (const auto& policy : policies) {
    std::vector<si::util::SeriesPoint> points;
    for (int n : sweep.threads) {
      points.push_back(
          {n, run_policy(dcfg, n, sweep.virtual_ns, policy.kill_after_ns)});
      si::bench::progress_dot();
    }
    si::util::print_series(std::cout, policy.label, points, 1e4);
  }
  si::bench::progress_dot('\n');
  return 0;
}
