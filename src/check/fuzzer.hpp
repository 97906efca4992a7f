// Deterministic schedule fuzzer for the simulated concurrency controls.
//
// One schedule = one SimEngine run whose fiber interleaving is perturbed by
// seeded virtual-time jitter (SimMachineConfig::schedule_jitter_ns): every
// wait point becomes a reproducible coin toss over which fiber runs next.
// The workload is a small ledger + notepad chosen to make SI violations
// visible to the offline verifier:
//
//  * "transfer" transactions move a few units between two ledger cells —
//    under SI, first-committer-wins makes the total conserved;
//  * "note" transactions write globally unique values to two note cells and
//    re-read one of them (read-own-writes);
//  * read-only scans sum the ledger and read every note — a torn scan (the
//    Fig. 3 snapshot anomaly) shows up as an empty snapshot intersection.
//
// Each schedule is a pure function of its seed: replaying a failing seed
// (run_schedule with keep_history) reproduces the identical event log.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "check/history.hpp"
#include "check/verify.hpp"
#include "maps/bst.hpp"
#include "maps/btree.hpp"
#include "maps/maps.hpp"
#include "maps/skiplist.hpp"
#include "protocol/sim_substrate.hpp"
#include "runtime/backend.hpp"
#include "sim/engine.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"

namespace si::check {

/// Which workload a schedule drives: the classic ledger + notepad, or one of
/// the concurrent-map structures (src/maps/) hammered through the same
/// seeded-schedule machinery.
enum class FuzzStruct { kLedger, kSkiplist, kBst, kBtree };

inline std::string_view to_string(FuzzStruct s) noexcept {
  switch (s) {
    case FuzzStruct::kLedger: return "ledger";
    case FuzzStruct::kSkiplist: return "skiplist";
    case FuzzStruct::kBst: return "bst";
    case FuzzStruct::kBtree: return "btree";
  }
  return "?";
}

inline FuzzStruct fuzz_struct_from_string(std::string_view name) {
  if (name == "ledger") return FuzzStruct::kLedger;
  if (name == "skiplist") return FuzzStruct::kSkiplist;
  if (name == "bst") return FuzzStruct::kBst;
  if (name == "btree") return FuzzStruct::kBtree;
  throw std::invalid_argument("unknown fuzz struct: " + std::string(name) +
                              " (want ledger|skiplist|bst|btree)");
}

struct FuzzConfig {
  /// Any simulated backend. kRawRot is SI-HTM minus the safety wait (the
  /// UNSAFE ablation of bench/ablation_quiescence.cpp): tests drive it to
  /// assert the checker *catches* the resulting anomalies.
  si::runtime::Backend backend = si::runtime::Backend::kSiHtm;
  FuzzStruct structure = FuzzStruct::kLedger;
  int threads = 4;
  int map_elements = 32;             ///< map structs: keys pre-seeded
  std::uint64_t map_key_space = 64;  ///< map structs: key domain [1, N]
  int ledger_cells = 6;
  int note_cells = 4;
  unsigned ro_pct = 40;    ///< % of steps that are read-only scans
  unsigned note_pct = 35;  ///< % of steps that are note writes (rest: transfers)
  double virtual_ns = 40000;  ///< virtual deadline of one schedule
  double jitter_ns = 150;     ///< schedule perturbation per wait point
  double straggler_kill_after_ns = 0;  ///< SI-HTM killing policy (0 = off)
  int retries = 8;
  bool keep_history = false;  ///< retain the full event log in the report
};

/// Outcome of one seeded schedule. `invariants_ok` is the workload's own
/// offline invariant: ledger conservation for the ledger workload, key
/// conservation + strict sortedness + structural integrity for the maps.
struct ScheduleReport {
  std::uint64_t seed = 0;
  bool invariants_ok = true;
  std::uint64_t straggler_kills = 0;  ///< aborts from the killing policy
  VerifyResult verify;
  std::vector<Event> history;  ///< only if FuzzConfig::keep_history

  bool ok() const noexcept { return invariants_ok && verify.ok(); }
};

struct FuzzSummary {
  int schedules = 0;
  int failures = 0;
  std::uint64_t straggler_kills = 0;  ///< total across all schedules
  std::vector<std::uint64_t> failing_seeds;
  ScheduleReport first_failure;  ///< replayed with full history

  bool ok() const noexcept { return failures == 0; }
};

/// Ledger + notepad workload (file comment). All cells are one line each and
/// 8 bytes wide, so every recorded value is verbatim, never hashed, and a
/// single access can never tear across lines.
class FuzzWorkload {
 public:
  static constexpr std::uint64_t kInitialBalance = 100;

  FuzzWorkload(const FuzzConfig& cfg, std::uint64_t seed)
      : cfg_(cfg),
        ledger_(static_cast<std::size_t>(cfg.ledger_cells)),
        notes_(static_cast<std::size_t>(cfg.note_cells)),
        note_counters_(static_cast<std::size_t>(cfg.threads), 0) {
    for (auto& c : ledger_) c.v = kInitialBalance;
    for (int t = 0; t < cfg.threads; ++t) {
      rngs_.emplace_back(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(t));
    }
  }

  /// Declares every cell's starting value (call before the run).
  void record_init(HistoryRecorder& rec) const {
    for (const auto& c : ledger_) rec.init(&c.v, sizeof c.v, &c.v);
    for (const auto& c : notes_) rec.init(&c.v, sizeof c.v, &c.v);
  }

  /// One transaction on thread `tid`. All random choices are drawn before
  /// the body so retried attempts replay the same logical transaction.
  template <typename CC>
  void step(CC& cc, int tid) {
    auto& rng = rngs_[static_cast<std::size_t>(tid)];
    const std::uint64_t pick = rng.below(100);

    if (pick < cfg_.ro_pct) {
      cc.execute(true, [&](auto& tx) {
        std::uint64_t sum = 0;
        for (const auto& c : ledger_) sum += tx.read(&c.v);
        for (const auto& c : notes_) sum ^= tx.read(&c.v);
        (void)sum;  // consistency is judged offline by the verifier
      });
      return;
    }

    if (pick < cfg_.ro_pct + cfg_.note_pct) {
      // Globally unique note values: (tid+1) in the top bits, a per-thread
      // counter below — the verifier can attribute every read exactly.
      auto& counter = note_counters_[static_cast<std::size_t>(tid)];
      const std::uint64_t val =
          (static_cast<std::uint64_t>(tid) + 1) << 48 | ++counter << 1;
      const auto a = rng.below(notes_.size());
      const auto b = rng.below(notes_.size());
      cc.execute(false, [&](auto& tx) {
        tx.write(&notes_[a].v, val);
        if (b != a) tx.write(&notes_[b].v, val | 1);
        (void)tx.read(&notes_[a].v);  // exercises read-own-writes
      });
      return;
    }

    const auto a = rng.below(ledger_.size());
    auto b = rng.below(ledger_.size() - 1);
    if (b >= a) ++b;  // distinct cells
    const std::uint64_t delta = 1 + rng.below(3);
    cc.execute(false, [&](auto& tx) {
      const std::uint64_t va = tx.read(&ledger_[a].v);
      const std::uint64_t vb = tx.read(&ledger_[b].v);
      tx.write(&ledger_[a].v, va - delta);
      tx.write(&ledger_[b].v, vb + delta);
    });
  }

  /// Rewrites heap addresses in `events` to stable logical ids (ledger cell
  /// i -> 0x10*(i+1), note j -> 0x1000+0x10*j) so that kept histories from
  /// two replays of the same seed compare byte-identical even though the
  /// allocator placed the cells elsewhere.
  void normalize(std::vector<Event>& events) const {
    std::map<std::uintptr_t, std::uintptr_t> remap;
    for (std::size_t i = 0; i < ledger_.size(); ++i) {
      remap[reinterpret_cast<std::uintptr_t>(&ledger_[i].v)] = 0x10 * (i + 1);
    }
    for (std::size_t j = 0; j < notes_.size(); ++j) {
      remap[reinterpret_cast<std::uintptr_t>(&notes_[j].v)] = 0x1000 + 0x10 * j;
    }
    for (auto& e : events) {
      const auto it = remap.find(e.addr);
      if (it != remap.end()) e.addr = it->second;
    }
  }

  /// First-committer-wins makes transfers atomic read-modify-writes, so the
  /// total is invariant under any correct SI backend (wrap-around included).
  bool invariants_ok() const {
    std::uint64_t sum = 0;
    for (const auto& c : ledger_) sum += c.v;
    return sum == kInitialBalance * ledger_.size();
  }

 private:
  struct alignas(si::util::kLineSize) Cell {
    std::uint64_t v = 0;
  };

  FuzzConfig cfg_;
  std::vector<Cell> ledger_;
  std::vector<Cell> notes_;
  std::vector<si::util::Xoshiro256> rngs_;
  std::vector<std::uint64_t> note_counters_;
};

/// Map-structure fuzz workload (--struct=skiplist|bst|btree): a pre-seeded
/// map hammered by lookups, snapshot range scans, inserts and removes via the
/// map_* drivers — the same transactions the benches and the serving layer
/// issue, now under adversarial fiber schedules.
///
/// Map nodes are heap-allocated, so their pre-run content is *not* declared
/// to the recorder; the verifier's unknown-initial wildcard covers the seeded
/// state without weakening detection of torn snapshots (those need two
/// *recorded* writes that cannot coexist). Written values carry a (thread,
/// counter) tag, so every read is attributable to exactly one write.
///
/// The offline invariant mirrors the ledger's conservation law: each
/// committed fresh insert adds one key and each committed remove of a
/// present key drops one, so the final key count must equal seeded + net —
/// and the final dump must be strictly sorted with structural integrity.
template <typename Map>
class MapFuzzWorkload {
 public:
  static constexpr std::size_t kScanCap = 16;

  MapFuzzWorkload(const FuzzConfig& cfg, std::uint64_t seed) : cfg_(cfg) {
    for (int t = 0; t < cfg.threads; ++t)
      threads_.emplace_back(seed * 0x9E3779B97F4A7C15ULL +
                            static_cast<std::uint64_t>(t));
    seeded_ = si::maps::map_seed(map_, static_cast<std::size_t>(cfg.map_elements),
                                 cfg.map_key_space, seed,
                                 threads_.front().scratch);
  }

  /// Nothing to declare: node state is covered by the verifier's
  /// unknown-initial wildcard (see class comment).
  void record_init(HistoryRecorder&) const {}

  /// One transaction on thread `tid`; all random draws precede the body, and
  /// the map_* drivers keep allocation retry-safe via Scratch.
  template <typename CC>
  void step(CC& cc, int tid) {
    auto& self = threads_[static_cast<std::size_t>(tid)];
    const std::uint64_t pick = self.rng.below(100);
    const std::uint64_t key = 1 + self.rng.below(cfg_.map_key_space);
    if (pick < cfg_.ro_pct) {
      if (pick % 2 == 0) {
        si::maps::RangeEntry buf[kScanCap];
        self.scan_sink +=
            si::maps::map_range(map_, cc, key, key + kScanCap - 1, buf, kScanCap);
      } else {
        std::uint64_t v = 0;
        self.scan_sink += si::maps::map_get(map_, cc, key, &v) ? v : 0;
      }
      return;
    }
    if (pick % 2 == 0) {
      const std::uint64_t val =
          (static_cast<std::uint64_t>(tid) + 1) << 48 | ++self.counter;
      if (si::maps::map_put(map_, cc, key, val, self.scratch)) ++self.net;
    } else {
      if (si::maps::map_del(map_, cc, key, self.scratch)) --self.net;
    }
  }

  /// Rewrites node addresses to stable (allocation-order) logical ids via the
  /// pools' arena enumeration, and rewrites pointer-*valued* events the same
  /// way (a read of a child link records a heap pointer as its value). Keys
  /// and payload values are small integers or >= 2^48 tags, so they can never
  /// alias a real node address and the value rewrite is payload-safe.
  void normalize(std::vector<Event>& events) const {
    // start -> (end, logical base); the map object span covers head/root.
    std::map<std::uintptr_t, std::pair<std::uintptr_t, std::uintptr_t>> spans;
    auto add = [&](const void* p, std::size_t bytes, std::uintptr_t logical) {
      const auto s = reinterpret_cast<std::uintptr_t>(p);
      spans.emplace(s, std::make_pair(s + bytes, logical));
    };
    add(&map_, sizeof map_, 0x100000);
    std::uintptr_t next_base = 0x200000;
    for (const auto& th : threads_) {
      for (const auto& n : th.pool.arena()) {
        add(&n, sizeof n, next_base);
        next_base += 0x100;
      }
    }
    auto rewrite = [&](std::uintptr_t a) {
      auto it = spans.upper_bound(a);
      if (it == spans.begin()) return a;
      --it;
      return a < it->second.first ? it->second.second + (a - it->first) : a;
    };
    for (auto& e : events) {
      e.addr = rewrite(e.addr);
      if (e.len == sizeof(void*))
        e.value = static_cast<std::uint64_t>(
            rewrite(static_cast<std::uintptr_t>(e.value)));
    }
  }

  bool invariants_ok() {
    std::int64_t net = 0;
    for (const auto& th : threads_) net += th.net;
    const auto dump = si::maps::map_dump(map_);
    if (static_cast<std::int64_t>(dump.size()) !=
        static_cast<std::int64_t>(seeded_) + net)
      return false;
    for (std::size_t i = 1; i < dump.size(); ++i)
      if (dump[i].key <= dump[i - 1].key) return false;
    return map_.structure_ok();
  }

 private:
  struct PerThread {
    explicit PerThread(std::uint64_t seed) : scratch(pool), rng(seed) {}
    typename Map::Pool pool;
    typename Map::ScratchT scratch;
    si::util::Xoshiro256 rng;
    std::int64_t net = 0;          ///< committed fresh inserts - removes
    std::uint64_t counter = 0;     ///< per-thread unique value tag
    std::uint64_t scan_sink = 0;   ///< keeps RO results observable
  };

  FuzzConfig cfg_;
  Map map_;
  std::deque<PerThread> threads_;  // deque: Scratch pins its Pool's address
  std::size_t seeded_ = 0;
};

/// Runs one seeded schedule end-to-end for a concrete workload type: build
/// engine + workload, drive the chosen backend to the virtual deadline,
/// verify the recorded history.
template <typename Workload>
inline ScheduleReport run_schedule_with(const FuzzConfig& cfg,
                                        std::uint64_t seed) {
  si::sim::SimMachineConfig mcfg;
  mcfg.schedule_jitter_ns = cfg.jitter_ns;
  mcfg.schedule_seed = seed;
  si::sim::SimEngine eng(mcfg, cfg.threads);
  HistoryRecorder rec(cfg.threads);
  Workload w(cfg, seed);
  w.record_init(rec);

  auto machine = si::runtime::make_machine<si::protocol::SimSubstrate>(
      cfg.backend, cfg.retries, eng,
      si::protocol::SimSubstrateConfig{
          .straggler_kill_after_ns = cfg.straggler_kill_after_ns,
          .recorder = &rec});
  std::visit(
      [&](auto& cc) {
        eng.run(cfg.virtual_ns, [&](int tid) { w.step(cc, tid); });
      },
      machine);

  ScheduleReport r;
  r.seed = seed;
  r.invariants_ok = w.invariants_ok();
  for (int t = 0; t < cfg.threads; ++t) {
    r.straggler_kills += eng.stats(t).aborts_by_cause[static_cast<int>(
        si::util::AbortCause::kKilledAsStraggler)];
  }
  std::vector<Event> events = rec.merged();
  // Addresses are opaque to the verifier, so verifying the normalized log
  // yields the same verdict while making violation messages reproducible
  // across processes (heap layout no longer leaks into the report).
  if (cfg.keep_history) w.normalize(events);
  r.verify = verify_si(events);
  if (cfg.keep_history) r.history = std::move(events);
  return r;
}

/// Dispatches on FuzzConfig::structure (the ledger default or one of the map
/// structures) and runs the schedule.
inline ScheduleReport run_schedule(const FuzzConfig& cfg, std::uint64_t seed) {
  switch (cfg.structure) {
    case FuzzStruct::kLedger:
      return run_schedule_with<FuzzWorkload>(cfg, seed);
    case FuzzStruct::kSkiplist:
      return run_schedule_with<MapFuzzWorkload<si::maps::SkipList>>(cfg, seed);
    case FuzzStruct::kBst:
      return run_schedule_with<MapFuzzWorkload<si::maps::Bst>>(cfg, seed);
    case FuzzStruct::kBtree:
      return run_schedule_with<MapFuzzWorkload<si::maps::Btree>>(cfg, seed);
  }
  throw std::logic_error("unreachable fuzz struct");
}

/// Runs `n` consecutive seeds starting at `base_seed`. The first failing
/// seed is re-run with history retention, so FuzzSummary::first_failure
/// carries the full replayed event log for diagnosis.
inline FuzzSummary fuzz(const FuzzConfig& cfg, std::uint64_t base_seed, int n) {
  FuzzSummary s;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    const ScheduleReport r = run_schedule(cfg, seed);
    ++s.schedules;
    s.straggler_kills += r.straggler_kills;
    if (!r.ok()) {
      ++s.failures;
      s.failing_seeds.push_back(seed);
      if (s.failures == 1) {
        FuzzConfig replay = cfg;
        replay.keep_history = true;
        s.first_failure = run_schedule(replay, seed);
      }
    }
  }
  return s;
}

}  // namespace si::check
