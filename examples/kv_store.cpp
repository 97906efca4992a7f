// A concurrent key-value store built on the transactional hash map, runnable
// on any of the four concurrency controls.
//
//   ./examples/kv_store -backend si-htm -threads 8 -seconds 2 -ro 90
//                       -buckets 1000 -chain 50
//
// Prints throughput and the paper-style abort breakdown, so this example
// doubles as a tiny interactive version of the hash-map benchmark.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "hashmap/workload.hpp"
#include "runtime/driver.hpp"
#include "runtime/runtime.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: %s [-backend htm|si-htm|p8tm|silo] [-threads N] [-seconds S]\n"
        "          [-ro PCT] [-buckets N] [-chain N]\n",
        cli.program().c_str());
    return 0;
  }

  si::runtime::RuntimeConfig rcfg;
  rcfg.backend = si::runtime::backend_from_string(cli.get("backend", "si-htm"));
  const int threads = static_cast<int>(cli.get_int("threads", 4));
  rcfg.max_threads = std::max(threads, 1);
  si::runtime::Runtime rt(rcfg);

  si::hashmap::WorkloadConfig wcfg;
  wcfg.buckets = static_cast<std::size_t>(cli.get_int("buckets", 1000));
  wcfg.avg_chain = static_cast<std::size_t>(cli.get_int("chain", 50));
  wcfg.ro_pct = static_cast<unsigned>(cli.get_int("ro", 90));
  si::hashmap::Workload workload(wcfg, threads);

  std::printf("kv_store: backend=%s threads=%d buckets=%zu chain=%zu ro=%u%%\n",
              std::string(si::runtime::to_string(rcfg.backend)).c_str(), threads,
              wcfg.buckets, wcfg.avg_chain, wcfg.ro_pct);
  std::printf("  seeded %zu keys\n", workload.map().count());

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
  std::printf("  aborts          : %.2f%% (transactional %.2f%%, "
              "non-transactional %.2f%%, capacity %.2f%%)\n",
              stats.abort_pct(),
              stats.abort_pct(si::util::AbortClass::kTransactional),
              stats.abort_pct(si::util::AbortClass::kNonTransactional),
              stats.abort_pct(si::util::AbortClass::kCapacity));
  std::printf("  final size      : %zu keys\n", workload.map().count());
  return 0;
}
