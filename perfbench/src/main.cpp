// served_bench: the served-request benchmark binary.
//
//   served_bench --workload kv-read --seed 1 --seconds 10 --trace 0
//                --workdir DIR [--source-id REV]
//   served_bench --selftest --workdir DIR
//
// Prints provenance, every metric by name with its unit, diagnostics, and as
// the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Exits 1 when an oracle, durability or harness check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "process.hpp"

namespace perfbench {
namespace {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    Workload kv;
    kv.app = AppKind::kKv;
    kv.buckets = 1000;
    kv.seed_elements = 20000;  // ~16k live 128-B nodes over 40k keys
    kv.key_space = 40000;
    kv.setups = 25;

    Workload read = kv;
    read.name = "kv-read";
    read.get_pct = 95;
    read.open_rate = 100000;
    read.closed_per_s = 900000;
    v.push_back(read);

    Workload durable = kv;
    durable.name = "kv-durable-write";
    durable.get_pct = 50;
    durable.open_rate = 40000;
    durable.closed_per_s = 400000;
    durable.durable = true;
    v.push_back(durable);

    Workload scan;
    scan.name = "map-scan";
    scan.app = AppKind::kMap;
    scan.seed_elements = 1000000;
    scan.key_space = 2000000;
    scan.scan_cap = 128;
    scan.span = 256;
    scan.get_pct = 60;
    scan.range_pct = 30;
    scan.open_rate = 10000;
    scan.closed_per_s = 48000;
    scan.setups = 3;  // ~2 s each: seeding a million skiplist keys
    v.push_back(scan);
    return v;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Result run(const Options& opt) {
  try {
    return opt.workload->app == AppKind::kKv ? run_kv(opt) : run_map(opt);
  } catch (const std::exception& e) {
    Result r;
    r.correct = false;
    r.attempted = 1;
    r.failed = 1;
    r.notes.push_back(std::string("harness error: ") + e.what());
    return r;
  }
}

void print_result(const Options& opt, const Result& r, double steal) {
  std::printf("provenance: source=%s build=%s flags=\"%s\" nproc=%ld "
              "cpu=\"%s\" kernel=%s steal_frac=%.4f\n",
              opt.source_id.c_str(), PB_BUILD_TYPE, PB_CXX_FLAGS, online_cpus(),
              cpu_model().c_str(), kernel_release().c_str(), steal);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  const auto& metrics = opt.trace ? r.layer : r.e2e;
  auto print_metric = [](const Metric& m, const char* tag) {
    if (m.samples > 0) {
      std::printf("  %-34s %14.4f %-6s (n=%llu)%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples), tag);
    } else {
      std::printf("  %-34s %14.4f %-6s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), tag);
    }
  };
  for (const Metric& m : metrics) print_metric(m, "");
  for (const Metric& m : r.extra) print_metric(m, " [this workload only]");
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  std::printf("check: correct=%d attempted=%llu failed=%llu wrong=%llu lost=%llu "
              "rejected=%llu durable_missing=%llu\n",
              r.correct ? 1 : 0, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong),
              static_cast<unsigned long long>(r.lost),
              static_cast<unsigned long long>(r.rejected),
              static_cast<unsigned long long>(r.durable_missing));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The benchmark's own checks: the oracle catches a planted wrong value and
/// a swallowed ack, and the traced stages of a short run add up to the
/// request time. Each case runs the real stack for about a second.
int selftest(const Options& base) {
  int failures = 0;
  auto expect = [&](const char* what, bool ok, const Result& r) {
    std::printf("selftest %-40s %s (wrong=%llu lost=%llu durable_missing=%llu "
                "traced=%llu incomplete=%llu unattributed=%.5f)\n",
                what, ok ? "PASS" : "FAIL",
                static_cast<unsigned long long>(r.wrong),
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.durable_missing),
                static_cast<unsigned long long>(r.traced_requests),
                static_cast<unsigned long long>(r.traced_incomplete),
                r.trace_unattributed_frac);
    if (!ok) {
      ++failures;
      for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());
    }
  };
  Options o = base;
  o.seconds = 1;
  o.setups = 1;

  o.workload = find_workload("kv-read");
  o.faults = Faults{};
  o.faults.corrupt_get = true;
  Result r = run(o);
  expect("planted wrong value is caught", !r.correct && r.wrong == 1 && r.lost == 0,
         r);

  o.workload = find_workload("kv-durable-write");
  o.faults = Faults{};
  o.faults.swallow_write = true;
  r = run(o);
  expect("swallowed ack is caught",
         !r.correct && r.lost == 1 && r.wrong == 0 && r.durable_missing == 0, r);

  o.workload = find_workload("kv-read");
  o.faults = Faults{};
  o.trace = true;
  r = run(o);
  expect("traced stages cover the request",
         r.correct && r.traced_requests > 1000 && r.traced_incomplete == 0 &&
             std::fabs(r.trace_unattributed_frac) < 0.01,
         r);

  std::printf("selftest: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: served_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--source-id REV]\n"
               "       served_bench --selftest --workdir DIR\n"
               "workloads: kv-read kv-durable-write map-scan\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--selftest") {
      self = true;
      continue;
    }
    if (v == nullptr) return usage();
    ++i;
    if (a == "--workload") {
      opt.workload = find_workload(v);
      if (opt.workload == nullptr) return usage();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--workdir") {
      opt.workdir = v;
    } else if (a == "--source-id") {
      opt.source_id = v;
    } else {
      return usage();
    }
  }
  if (opt.workdir.empty()) return usage();
  std::filesystem::create_directories(opt.workdir);
  if (self) return selftest(opt);
  if (opt.workload == nullptr || !(opt.seconds > 0)) return usage();
  opt.setups = opt.workload->setups;
  const ProcSample a = sample_process();
  const Result r = run(opt);
  print_result(opt, r, steal_frac(a, sample_process()));
  return r.correct ? 0 : 1;
}
