// Figure 10 — TPC-C, read-dominated mix (-s 4 -d 4 -o 80 -p 4 -r 8), low and
// high contention; HTM vs SI-HTM vs P8TM vs Silo.
//
// Paper's findings this harness should reproduce in shape:
//  * SI-HTM improves peak throughput by ~27% over the best alternative
//    (P8TM) and ~300% over plain HTM;
//  * SI-HTM scales gracefully to SMT-2 and degrades at SMT-4/8 as core
//    resources are shared;
//  * the gap to P8TM comes from P8TM's software read tracking on update
//    transactions, which SI-HTM's weaker (SI) guarantee avoids entirely.
#include "bench/common.hpp"
#include "tpcc/workload.hpp"

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  auto sweep = si::bench::Sweep::from_cli(cli);
  // TPC-C transactions are ~10x longer than hash-map ones; simulate a longer
  // windows by default so low thread counts still commit enough work.
  if (!cli.has("ms")) sweep.virtual_ns = 5e6;
  auto sink = si::bench::JsonSink::from_cli(cli, "fig10_tpcc_readdom");
  const std::vector<si::runtime::Backend> systems = {
      si::runtime::Backend::kHtm, si::runtime::Backend::kSiHtm,
      si::runtime::Backend::kP8tm, si::runtime::Backend::kSilo};

  for (const bool high_contention : {false, true}) {
    si::tpcc::DbConfig dcfg;
    dcfg.warehouses = high_contention ? 1 : 10;
    dcfg.items = static_cast<int>(cli.get_int("items", 1000));
    dcfg.customers_per_district = static_cast<int>(cli.get_int("customers", 300));
    dcfg.initial_orders_per_district = static_cast<int>(cli.get_int("orders", 200));
    dcfg.order_ring_bits = 10;  // 1024-order window per district (memory-friendly)
    si::bench::run_panel(
        std::string("Fig.10 TPC-C read-dominated mix (-s4 -d4 -o80 -p4 -r8), ") +
            (high_contention ? "HIGH contention (1 warehouse)"
                             : "LOW contention (10 warehouses)"),
        systems, sweep, /*tx_scale=*/1e4,
        [&](int threads) {
          return std::make_unique<si::tpcc::Workload>(
              dcfg, si::tpcc::Mix::read_dominated(), threads);
        },
        &sink, cli.get("trace"));
  }
  return sink.flush() ? 0 : 1;
}
