// Simulator explorer: sweep thread counts on the modelled 10-core SMT-8
// POWER8 for a chosen workload and backend, printing a throughput/abort
// curve. This is the interactive companion of the bench/ figure harnesses.
//
//   ./examples/sim_explorer -workload hashmap -backend si-htm
//       -threads 1,2,4,8,16,32,40,80 -ms 2 -buckets 1000 -chain 200 -ro 90
//   ./examples/sim_explorer -workload tpcc -backend htm -warehouses 1
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "hashmap/workload.hpp"
#include "protocol/sim_substrate.hpp"
#include "runtime/backend.hpp"
#include "sim/engine.hpp"
#include "tpcc/workload.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

template <typename MakeWorkload>
si::util::RunStats run_point(si::runtime::Backend backend, int threads,
                             double duration_ns, MakeWorkload&& make_workload) {
  si::sim::SimMachineConfig mcfg;
  si::sim::SimEngine eng(mcfg, threads);
  auto workload = make_workload(threads);
  auto machine = si::runtime::make_machine<si::protocol::SimSubstrate>(
      backend, 10, eng, si::protocol::SimSubstrateConfig{});
  return std::visit(
      [&](auto& cc) {
        return eng.run(duration_ns,
                       [&](int tid) { workload->step(cc, tid); });
      },
      machine);
}

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: %s [-workload hashmap|tpcc] [-backend htm|si-htm|p8tm|silo|raw-rot]\n"
        "          [-threads 1,2,4,...] [-ms VIRTUAL_MILLIS]\n"
        "          hashmap: [-buckets N] [-chain N] [-ro PCT]\n"
        "          tpcc:    [-warehouses W] [-mix standard|read-dominated]\n",
        cli.program().c_str());
    return 0;
  }
  const std::string workload = cli.get("workload", "hashmap");
  const std::string name = cli.get("backend", "si-htm");
  si::runtime::Backend backend;
  try {
    backend = si::runtime::backend_from_string(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const auto thread_counts =
      si::util::parse_int_list(cli.get("threads"), {1, 2, 4, 8, 16, 32, 40, 80});
  const double duration_ns = cli.get_double("ms", 2.0) * 1e6;

  std::vector<si::util::SeriesPoint> points;
  for (int n : thread_counts) {
    si::util::RunStats stats;
    if (workload == "hashmap") {
      si::hashmap::WorkloadConfig wcfg;
      wcfg.buckets = static_cast<std::size_t>(cli.get_int("buckets", 1000));
      wcfg.avg_chain = static_cast<std::size_t>(cli.get_int("chain", 200));
      wcfg.ro_pct = static_cast<unsigned>(cli.get_int("ro", 90));
      stats = run_point(backend, n, duration_ns, [&](int threads) {
        return std::make_unique<si::hashmap::Workload>(wcfg, threads);
      });
    } else {
      si::tpcc::DbConfig dcfg;
      dcfg.warehouses = static_cast<int>(cli.get_int("warehouses", 10));
      dcfg.items = static_cast<int>(cli.get_int("items", 2000));
      dcfg.customers_per_district = static_cast<int>(cli.get_int("customers", 300));
      dcfg.initial_orders_per_district = static_cast<int>(cli.get_int("orders", 200));
      const auto mix = cli.get("mix", "standard") == "read-dominated"
                           ? si::tpcc::Mix::read_dominated()
                           : si::tpcc::Mix::standard();
      stats = run_point(backend, n, duration_ns, [&](int threads) {
        return std::make_unique<si::tpcc::Workload>(dcfg, mix, threads);
      });
    }
    points.push_back({n, stats});
    std::fprintf(stderr, ".");
  }
  std::fprintf(stderr, "\n");

  std::printf("sim_explorer: workload=%s on the modelled 10-core SMT-8 POWER8\n",
              workload.c_str());
  si::util::print_series(std::cout, name, points, 1e6);
  return 0;
}
