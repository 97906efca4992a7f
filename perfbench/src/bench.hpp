// Shared types of the served-request benchmark (see perfbench/README.md).
//
// One process builds the real serving stack through its public constructors
// (app -> serve::Service -> serve::ReactorPool on an ephemeral loopback port)
// and drives it over TCP with the binary wire protocol from a single client
// thread. Everything the benchmark measures about a layer it measures from
// outside that layer: wrappers around the public calls (wrappers.hpp), the
// public counters, and the process's own accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class AppKind { kKv, kMap };

/// One traffic mix. Names are the ones BENCHMARK.json lists.
struct Workload {
  const char* name = "";
  AppKind app = AppKind::kKv;
  unsigned get_pct = 0;    ///< share of gets
  unsigned range_pct = 0;  ///< share of range scans; the rest is put/del 50/50
  double open_rate = 0;    ///< open-loop arrivals per second (absolute)
  /// Closed-loop requests per measured second. Fixed per workload so the
  /// closed phase, the log it writes and the recovery that replays it have a
  /// fixed size for a given --seconds.
  double closed_per_s = 0;
  bool durable = false;  ///< DurabilityMode::kBuffered, default group commit
  int setups = 0;        ///< setup repetitions; setup_s is their median
  std::uint64_t seed_elements = 0;
  std::uint64_t key_space = 0;
  std::size_t buckets = 0;   ///< KvApp only
  std::size_t scan_cap = 0;  ///< MapApp only
  std::uint64_t span = 0;    ///< keys covered by one range request
};

/// Fault injection for the self-tests. The wrappers apply these, never the
/// server: a correct oracle must catch both.
struct Faults {
  bool corrupt_get = false;    ///< flip bits of one get response value
  bool swallow_write = false;  ///< drop one write's completion callback
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setups = 1;        ///< the workload's count; the self-tests use 1
  std::string workdir;   ///< working directory for logs and traces
  std::string source_id; ///< revision of the code under test (provenance)
  Faults faults;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::uint64_t samples = 0;  ///< for percentiles: how many values it is of
};

/// What one run produced. `e2e` is filled on untraced runs, `layer` on
/// traced runs; both always carry the correctness accounting. Every workload
/// reports the same `e2e` and `layer` sets, so figures that exist on one
/// workload only (scans, the log, recovery) go to `extra`: printed by name
/// with their unit, but left out of the JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;     ///< responses that disagree with the model
  std::uint64_t lost = 0;      ///< requests never answered
  std::uint64_t rejected = 0;  ///< answered Status::kRejected
  std::uint64_t durable_missing = 0;  ///< acked writes not in the log prefix
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> extra;
  std::vector<std::string> notes;  ///< human-readable diagnostics
  /// Self-test hook: per-request span accounting of the traced open loop.
  std::uint64_t traced_requests = 0;
  std::uint64_t traced_incomplete = 0;
  double trace_unattributed_frac = 0;
};

Result run_kv(const Options& opt);
Result run_map(const Options& opt);

}  // namespace perfbench
