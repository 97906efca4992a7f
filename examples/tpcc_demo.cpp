// TPC-C on any backend: loads a scaled database, runs a transaction mix for
// a while, and verifies the TPC-C consistency conditions afterwards.
//
//   ./examples/tpcc_demo -backend si-htm -threads 8 -seconds 2
//                        -warehouses 4 -mix standard|read-dominated
#include <chrono>
#include <cstdio>

#include "runtime/driver.hpp"
#include "runtime/runtime.hpp"
#include "tpcc/workload.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: %s [-backend htm|si-htm|p8tm|silo] [-threads N] [-seconds S]\n"
        "          [-warehouses W] [-mix standard|read-dominated]\n",
        cli.program().c_str());
    return 0;
  }

  si::runtime::RuntimeConfig rcfg;
  rcfg.backend = si::runtime::backend_from_string(cli.get("backend", "si-htm"));
  const int threads = static_cast<int>(cli.get_int("threads", 4));
  rcfg.max_threads = std::max(threads, 1);
  si::runtime::Runtime rt(rcfg);

  si::tpcc::DbConfig dcfg;
  dcfg.warehouses = static_cast<int>(cli.get_int("warehouses", 2));
  dcfg.items = static_cast<int>(cli.get_int("items", 10000));
  dcfg.customers_per_district = static_cast<int>(cli.get_int("customers", 600));
  dcfg.initial_orders_per_district = static_cast<int>(cli.get_int("orders", 300));
  const si::tpcc::Mix mix = cli.get("mix", "standard") == "read-dominated"
                                ? si::tpcc::Mix::read_dominated()
                                : si::tpcc::Mix::standard();

  std::printf("tpcc_demo: backend=%s threads=%d warehouses=%d mix=%s\n",
              std::string(si::runtime::to_string(rcfg.backend)).c_str(), threads,
              dcfg.warehouses, cli.get("mix", "standard").c_str());
  std::printf("  loading database...\n");
  si::tpcc::Workload workload(dcfg, mix, threads);

  const auto duration =
      std::chrono::duration<double>(cli.get_double("seconds", 1.0));
  const auto stats = si::runtime::run_timed(
      rt, threads, std::chrono::duration_cast<std::chrono::nanoseconds>(duration),
      [&](int tid) { workload.step(rt, tid); });

  std::printf("  throughput      : %.0f tx/s\n", stats.throughput());
  std::printf("  commits         : %llu (ro %llu, sgl %llu)\n",
              static_cast<unsigned long long>(stats.totals.commits),
              static_cast<unsigned long long>(stats.totals.ro_commits),
              static_cast<unsigned long long>(stats.totals.sgl_commits));
  std::printf("  aborts          : %.2f%% (tx %.2f%%, non-tx %.2f%%, capacity %.2f%%)\n",
              stats.abort_pct(),
              stats.abort_pct(si::util::AbortClass::kTransactional),
              stats.abort_pct(si::util::AbortClass::kNonTransactional),
              stats.abort_pct(si::util::AbortClass::kCapacity));

  const bool ytd_ok = workload.db().check_ytd_consistency();
  const bool oid_ok = workload.db().check_order_id_consistency();
  std::printf("  consistency     : w_ytd=sum(d_ytd) %s, order ids %s\n",
              ytd_ok ? "OK" : "VIOLATED", oid_ok ? "OK" : "VIOLATED");
  std::printf("  delivery backlog: %lld undelivered orders\n",
              static_cast<long long>(workload.db().total_new_order_queue_length()));
  return ytd_ok && oid_ok ? 0 : 1;
}
