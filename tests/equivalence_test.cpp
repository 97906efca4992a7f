// Cross-substrate equivalence suite (DESIGN.md section 5): every protocol
// core under src/protocol/ is one transcription instantiated over two
// substrates, so a deterministic single-threaded workload must produce the
// *same* commit/abort accounting on real threads (RealSubstrate) and inside
// the discrete-event simulator (SimSubstrate), and both recorded histories
// must be admissible under Snapshot Isolation.
//
// Single-threaded on purpose: with one thread there are no data conflicts
// and no scheduling freedom, so any divergence in counts is a divergence in
// the *protocol logic itself* (e.g. a capacity abort taken on one substrate
// but not the other) — exactly the regression class this suite guards
// against. Multi-threaded agreement on invariants is covered by sim_test.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
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
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "protocol/machine.hpp"
#include "protocol/real_substrate.hpp"
#include "protocol/sihtm_core.hpp"
#include "protocol/sim_substrate.hpp"
#include "runtime/backend.hpp"
#include "sim/engine.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using si::protocol::RealSubstrate;
using si::protocol::RealSubstrateConfig;
using si::protocol::SimSubstrate;
using si::protocol::SimSubstrateConfig;
using si::runtime::Backend;
using si::runtime::make_machine;
using si::util::AbortCause;
using si::util::kLineSize;
using si::util::ThreadStats;

constexpr Backend kBackends[] = {Backend::kHtm, Backend::kSiHtm,
                                 Backend::kP8tm, Backend::kSilo,
                                 Backend::kRawRot};

struct alignas(kLineSize) Cell {
  std::uint64_t v = 0;
};

constexpr std::size_t kCells = 96;
// One more line than a POWER8 TMCAM holds (64 per core): a transaction that
// writes this many distinct lines must raise a capacity abort and fall back
// to the SGL on both substrates.
constexpr std::size_t kStressLines = 65;
constexpr int kSteps = 160;

// --- deterministic op script -------------------------------------------------
//
// The workload is generated *up front* from a seed into a flat script, and
// the transaction bodies draw only from the script. This keeps retried
// bodies byte-identical (a live RNG inside a body would advance differently
// depending on how often each substrate retries) and guarantees the real and
// sim runs issue exactly the same logical accesses.

enum class OpKind { kRoScan, kUpdate, kBigWrite };

struct Op {
  OpKind kind = OpKind::kRoScan;
  std::array<std::uint32_t, 4> idx{};
  std::uint64_t delta = 0;
};

std::vector<Op> make_script(std::uint64_t seed, bool with_capacity_stress) {
  si::util::Xoshiro256 rng(seed);
  std::vector<Op> script;
  script.reserve(kSteps);
  for (int i = 0; i < kSteps; ++i) {
    Op op;
    const std::uint64_t d = rng.below(100);
    if (d < 40) {
      op.kind = OpKind::kRoScan;
    } else if (d < 95 || !with_capacity_stress) {
      op.kind = OpKind::kUpdate;
    } else {
      op.kind = OpKind::kBigWrite;
    }
    for (auto& ix : op.idx) ix = static_cast<std::uint32_t>(rng.below(kCells));
    op.delta = rng.uniform(1, 1000);
    script.push_back(op);
  }
  return script;
}

template <typename Tx>
void run_op(Tx& tx, const Op& op, std::vector<Cell>& cells) {
  switch (op.kind) {
    case OpKind::kRoScan: {
      std::uint64_t sum = 0;
      for (auto ix : op.idx) sum += tx.read(&cells[ix].v);
      (void)sum;  // no effects outside the transaction: bodies may re-run
      break;
    }
    case OpKind::kUpdate: {
      for (auto ix : op.idx) {
        const std::uint64_t v = tx.read(&cells[ix].v);
        tx.write(&cells[ix].v, v + op.delta);
      }
      break;
    }
    case OpKind::kBigWrite: {
      for (std::size_t j = 0; j < kStressLines; ++j) {
        const std::size_t ix = (op.idx[0] + j) % kCells;
        tx.write(&cells[ix].v, op.delta + j);
      }
      break;
    }
  }
}

// --- runners -----------------------------------------------------------------

struct RunResult {
  ThreadStats stats{};
  std::vector<Cell> cells;
  std::vector<si::check::Event> history;
};

void seed_cells(std::vector<Cell>& cells, si::check::HistoryRecorder& rec) {
  cells.assign(kCells, Cell{});
  for (std::size_t i = 0; i < kCells; ++i) {
    cells[i].v = i;
    rec.init(&cells[i].v, sizeof(cells[i].v), &cells[i].v);
  }
}

/// Runs the script on backend `b` on real threads, single-threaded (so the
/// recorded history is exact; see check/history.hpp).
RunResult run_real(Backend b, const std::vector<Op>& script,
                   RealSubstrateConfig sub = {}) {
  RunResult out;
  si::check::HistoryRecorder rec(8);
  seed_cells(out.cells, rec);
  sub.max_threads = 8;
  sub.recorder = &rec;
  auto m = make_machine<RealSubstrate>(b, 10, sub);
  std::visit(
      [&](auto& be) {
        be.register_thread(0);
        for (const auto& op : script) {
          be.execute(op.kind == OpKind::kRoScan,
                     [&](auto& tx) { run_op(tx, op, out.cells); });
        }
        out.stats = be.thread_stats()[0];
      },
      m);
  out.history = rec.merged();
  return out;
}

/// Runs the same script on backend `b` inside a one-thread virtual machine.
RunResult run_sim(Backend b, const std::vector<Op>& script,
                  SimSubstrateConfig sub = {}) {
  RunResult out;
  si::check::HistoryRecorder rec(8);
  seed_cells(out.cells, rec);
  si::sim::SimEngine eng(si::sim::SimMachineConfig{}, 1);
  sub.recorder = &rec;
  auto m = make_machine<SimSubstrate>(b, 10, eng, sub);
  std::visit(
      [&](auto& be) {
        eng.run(1e9, [&](int) {
          for (const auto& op : script) {
            be.execute(op.kind == OpKind::kRoScan,
                       [&](auto& tx) { run_op(tx, op, out.cells); });
          }
          eng.wait(1e12);  // past the deadline: the script runs exactly once
        });
        out.stats = be.thread_stats()[0];
      },
      m);
  out.history = rec.merged();
  return out;
}

void expect_equivalent(const RunResult& real, const RunResult& sim) {
  EXPECT_EQ(real.stats.commits, sim.stats.commits);
  EXPECT_EQ(real.stats.ro_commits, sim.stats.ro_commits);
  EXPECT_EQ(real.stats.sgl_commits, sim.stats.sgl_commits);
  for (int c = 0; c < static_cast<int>(AbortCause::kCauseCount_); ++c) {
    EXPECT_EQ(real.stats.aborts_by_cause[c], sim.stats.aborts_by_cause[c])
        << "abort cause: " << to_string(static_cast<AbortCause>(c));
  }
  ASSERT_EQ(real.cells.size(), sim.cells.size());
  for (std::size_t i = 0; i < real.cells.size(); ++i) {
    EXPECT_EQ(real.cells[i].v, sim.cells[i].v) << "cell " << i;
  }
  for (const auto* h : {&real.history, &sim.history}) {
    const auto res = si::check::verify_si(*h);
    EXPECT_TRUE(res.ok()) << si::check::describe(res);
    EXPECT_EQ(res.committed, real.stats.commits);
  }
}

/// The cross-substrate sweep over Backend x seed: the same script on real
/// threads and in the simulator, plus each protocol's own fall-back facts.
void expect_backend_equivalent(Backend b, std::uint64_t seed) {
  // No capacity stressor for raw-ROT: it has no SGL fall-back, so an
  // over-capacity transaction would retry (and capacity-abort) forever by
  // design.
  const auto script =
      make_script(seed, /*with_capacity_stress=*/b != Backend::kRawRot);
  const auto real = run_real(b, script);
  const auto sim = run_sim(b, script);
  expect_equivalent(real, sim);

  const auto capacity =
      real.stats.aborts_by_cause[static_cast<int>(AbortCause::kCapacity)];
  if (b == Backend::kHtm || b == Backend::kSiHtm || b == Backend::kP8tm) {
    EXPECT_GT(real.stats.sgl_commits, 0u);  // the stressor took the SGL
  } else {
    EXPECT_EQ(real.stats.sgl_commits, 0u);  // Silo and raw-ROT have none
  }
  // The stressor must actually have exercised SI-HTM's capacity path; Silo
  // buffers writes in software, so it never sees a capacity abort.
  if (b == Backend::kSiHtm) {
    EXPECT_GT(capacity, 0u);
  }
  if (b == Backend::kSilo) {
    EXPECT_EQ(capacity, 0u);
  }
}

class EquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceTest, SiHtm) {
  expect_backend_equivalent(Backend::kSiHtm, GetParam());
}
TEST_P(EquivalenceTest, HtmSgl) {
  expect_backend_equivalent(Backend::kHtm, GetParam());
}
TEST_P(EquivalenceTest, P8tm) {
  expect_backend_equivalent(Backend::kP8tm, GetParam());
}
TEST_P(EquivalenceTest, Silo) {
  expect_backend_equivalent(Backend::kSilo, GetParam());
}
TEST_P(EquivalenceTest, RawRot) {
  expect_backend_equivalent(Backend::kRawRot, GetParam());
}

TEST_P(EquivalenceTest, SiHtmFastPathToggle) {
  // The owned-line fast path is a pure shortcut: with it force-disabled the
  // same script must produce identical accounting and final state, and only
  // the enabled run may report ownership-cache hits.
  const auto script = make_script(GetParam(), /*with_capacity_stress=*/true);
  const auto fast = run_real(Backend::kSiHtm, script);
  si::p8::HtmConfig slow_htm;
  slow_htm.owned_line_fast_path = false;
  const auto slow = run_real(Backend::kSiHtm, script, {.htm = slow_htm});
  expect_equivalent(fast, slow);
  EXPECT_GT(fast.stats.fast_path.hits, 0u);
  EXPECT_EQ(slow.stats.fast_path.hits, 0u);
}

TEST_P(EquivalenceTest, SiHtmTracingOnOff) {
  // Obs hooks are pure bookkeeping (they never wait or branch the protocol),
  // so attaching a tracer and metrics must not change commits, abort causes
  // or final memory — on either substrate.
  const auto script = make_script(GetParam(), /*with_capacity_stress=*/true);

  si::obs::Tracer tracer(8);
  si::obs::Metrics metrics(8);
  const auto traced =
      run_real(Backend::kSiHtm, script, {.obs = {&tracer, &metrics}});
  const auto plain = run_real(Backend::kSiHtm, script);
  expect_equivalent(traced, plain);
  EXPECT_GT(tracer.emitted(0), 0u);
  EXPECT_EQ(metrics.snapshot().commit_latency.count(), traced.stats.commits);

  si::obs::Tracer sim_tracer(1);
  const auto sim_traced =
      run_sim(Backend::kSiHtm, script, {.obs = {&sim_tracer, nullptr}});
  const auto sim_plain = run_sim(Backend::kSiHtm, script);
  expect_equivalent(sim_traced, sim_plain);
  EXPECT_GT(sim_tracer.emitted(0), 0u);
}

TEST_P(EquivalenceTest, SlimVsTtasSgl) {
  // The slim lock replaces the seed's TTAS spin under the same SGL contract
  // (DESIGN.md section 11). Single-threaded there is never a contended
  // acquisition and never a shared-mode join, so the two implementations
  // must be indistinguishable — same accounting, same final memory, same
  // SI-admissible history — on the real substrate and in the simulator.
  const auto script = make_script(GetParam(), /*with_capacity_stress=*/true);
  const auto slim = run_real(Backend::kSiHtm, script,
                             {.sgl_impl = si::util::SglImpl::kSlim});
  const auto ttas = run_real(
      Backend::kSiHtm, script,
      {.sgl_impl = si::util::SglImpl::kTtas, .sgl_shared_ro = false});
  expect_equivalent(slim, ttas);
  EXPECT_GT(slim.stats.sgl_commits, 0u);  // the SGL path actually ran
  EXPECT_EQ(slim.stats.sgl_sleep_wakeups, 0u);  // uncontended: no parking
  EXPECT_EQ(ttas.stats.sgl_sleep_wakeups, 0u);  // TTAS never parks

  const auto sim_slim = run_sim(
      Backend::kSiHtm, script,
      {.sgl_impl = si::util::SglImpl::kSlim, .sgl_shared_ro = true});
  const auto sim_ttas = run_sim(
      Backend::kSiHtm, script,
      {.sgl_impl = si::util::SglImpl::kTtas, .sgl_shared_ro = false});
  expect_equivalent(sim_slim, sim_ttas);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest,
                         ::testing::Values(1u, 7u, 42u, 20260807u));

// --- multi-threaded slim-lock cases (sim: deterministic schedules) ----------

/// Per-thread scripted SI-HTM run on an 8-thread simulated machine. Each thread
/// executes its own `make_script(seed ^ tid)` script once; the engine's
/// deterministic scheduling makes the whole run a pure function of the
/// configuration, which is what lets the test below compare entire runs.
RunResult run_sim_mt(std::uint64_t seed, int threads, SimSubstrateConfig sub,
                     si::util::ThreadStats* totals = nullptr,
                     double* elapsed = nullptr) {
  RunResult out;
  si::check::HistoryRecorder rec(threads);
  seed_cells(out.cells, rec);
  si::sim::SimEngine eng(si::sim::SimMachineConfig{}, threads);
  sub.recorder = &rec;
  si::protocol::Machine<si::protocol::SiHtmCore<SimSubstrate>, SimSubstrate> be(
      eng, sub);
  std::vector<std::vector<Op>> scripts;
  scripts.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    scripts.push_back(
        make_script(seed ^ static_cast<std::uint64_t>(t) * 0x9e3779b9ULL,
                    /*with_capacity_stress=*/true));
  }
  std::vector<std::size_t> pos(static_cast<std::size_t>(threads), 0);
  const auto rs = eng.run(1e9, [&](int t) {
    auto& p = pos[static_cast<std::size_t>(t)];
    const auto& sc = scripts[static_cast<std::size_t>(t)];
    if (p >= sc.size()) {
      eng.wait(1e12);  // done: idle past the deadline
      return;
    }
    const Op& op = sc[p++];
    be.execute(op.kind == OpKind::kRoScan,
               [&](auto& tx) { run_op(tx, op, out.cells); });
  });
  out.stats = be.thread_stats()[0];
  out.history = rec.merged();
  if (totals != nullptr) *totals = rs.totals;
  if (elapsed != nullptr) *elapsed = rs.elapsed_seconds;
  return out;
}

TEST(SlimVsTtasSim, SharedOffSchedulesAreIdentical) {
  // With shared-mode RO admission disabled, kSlim differs from kTtas only
  // in bookkeeping (modelled futex wake-ups, kSglWait/kSglWake instants) —
  // the contended waits charge identical virtual time by construction. An
  // 8-thread capacity-stressed run must therefore produce byte-identical
  // schedules: same per-run totals, same abort causes, same final memory,
  // same virtual end time.
  si::util::ThreadStats slim_tot{}, ttas_tot{};
  double slim_end = 0, ttas_end = 0;
  const auto slim = run_sim_mt(
      /*seed=*/42, /*threads=*/8,
      {.sgl_impl = si::util::SglImpl::kSlim, .sgl_shared_ro = false},
      &slim_tot, &slim_end);
  const auto ttas = run_sim_mt(
      /*seed=*/42, /*threads=*/8,
      {.sgl_impl = si::util::SglImpl::kTtas, .sgl_shared_ro = false},
      &ttas_tot, &ttas_end);
  EXPECT_EQ(slim_end, ttas_end);
  EXPECT_EQ(slim_tot.commits, ttas_tot.commits);
  EXPECT_EQ(slim_tot.ro_commits, ttas_tot.ro_commits);
  EXPECT_EQ(slim_tot.sgl_commits, ttas_tot.sgl_commits);
  for (int c = 0; c < static_cast<int>(AbortCause::kCauseCount_); ++c) {
    EXPECT_EQ(slim_tot.aborts_by_cause[c], ttas_tot.aborts_by_cause[c])
        << "abort cause: " << to_string(static_cast<AbortCause>(c));
  }
  ASSERT_EQ(slim.cells.size(), ttas.cells.size());
  for (std::size_t i = 0; i < slim.cells.size(); ++i) {
    EXPECT_EQ(slim.cells[i].v, ttas.cells[i].v) << "cell " << i;
  }
  // The one permitted difference: slim books the futex sleeps the real lock
  // would have taken; TTAS never does.
  EXPECT_EQ(ttas_tot.sgl_sleep_wakeups, 0u);
}

TEST(SlimVsTtasSim, SharedAdmissionKeepsSnapshotIsolation) {
  // Shared-mode admission is the one behavioural difference the slim lock
  // enables: read-only transactions join mid-drain and overlap the holder.
  // The drain loop skips those joiners (sihtm_core.hpp), so this is the
  // test that a skipped joiner can never observe the SGL body's plain
  // writes mid-flight: the multi-threaded sim history (virtual-time stamps
  // are exact) must stay SI-admissible, and shared mode must actually have
  // been exercised.
  si::util::ThreadStats tot{};
  double shared_end = 0, excl_end = 0;
  const auto run = run_sim_mt(
      /*seed=*/7, /*threads=*/8,
      {.sgl_impl = si::util::SglImpl::kSlim, .sgl_shared_ro = true}, &tot,
      &shared_end);
  EXPECT_GT(tot.sgl_commits, 0u);  // drains happened
  const auto res = si::check::verify_si(run.history);
  EXPECT_TRUE(res.ok()) << si::check::describe(res);
  EXPECT_EQ(res.committed, tot.commits);
  // Prove shared admission actually fired: the same seed with it disabled
  // must produce a *different* schedule (a join that overlapped a drain
  // changes every subsequent wait), so the virtual end times diverge.
  run_sim_mt(/*seed=*/7, /*threads=*/8,
             {.sgl_impl = si::util::SglImpl::kSlim, .sgl_shared_ro = false},
             nullptr, &excl_end);
  EXPECT_NE(shared_end, excl_end);
}

// --- map-structure scripts (ISSUE 6) ----------------------------------------
//
// The workload zoo (src/maps/) must behave identically across substrates:
// the same deterministic get/put/del/range script, run single-threaded over
// every protocol on real threads and in the simulator, has to produce the
// same per-op return values, the same final ordered dump, the same
// commit/abort accounting, and SI-admissible histories on both sides.
// Allocation is the interesting hazard here — Scratch must hand retried
// bodies the same nodes in the same order on either substrate, or the final
// trees diverge physically and the dumps disagree.

enum class MapOpKind { kGet, kPut, kDel, kRange };

struct MapOp {
  MapOpKind kind = MapOpKind::kGet;
  std::uint64_t key = 0;
  std::uint64_t val = 0;
  std::uint64_t hi = 0;
};

constexpr std::uint64_t kMapKeySpace = 64;
constexpr std::size_t kMapSeedElems = 24;
constexpr int kMapSteps = 120;
constexpr std::size_t kMapScanCap = 48;

std::vector<MapOp> make_map_script(std::uint64_t seed) {
  si::util::Xoshiro256 rng(seed);
  std::vector<MapOp> script;
  script.reserve(kMapSteps);
  for (int i = 0; i < kMapSteps; ++i) {
    MapOp op;
    const std::uint64_t d = rng.below(100);
    op.key = 1 + rng.below(kMapKeySpace);
    op.val = rng.uniform(1, 1 << 20);
    op.hi = op.key + rng.below(24);
    op.kind = d < 25   ? MapOpKind::kGet
              : d < 60 ? MapOpKind::kPut
              : d < 85 ? MapOpKind::kDel
                       : MapOpKind::kRange;
    script.push_back(op);
  }
  return script;
}

struct MapRunResult {
  ThreadStats stats{};
  std::vector<std::uint64_t> results;  ///< one encoded value per script op
  std::vector<si::maps::RangeEntry> dump;
  std::vector<si::check::Event> history;
};

/// Applies one op through the map_* drivers, encoding the observable result
/// (found/value for gets, linked/found for updates, an order-sensitive fold
/// of the hits for ranges) into a single comparable word.
template <typename Map, typename CC>
std::uint64_t apply_map_op(Map& map, CC& cc, const MapOp& op,
                           typename Map::ScratchT& scratch) {
  switch (op.kind) {
    case MapOpKind::kGet: {
      std::uint64_t v = 0;
      return si::maps::map_get(map, cc, op.key, &v) ? 1 + v : 0;
    }
    case MapOpKind::kPut:
      return si::maps::map_put(map, cc, op.key, op.val, scratch) ? 1 : 0;
    case MapOpKind::kDel:
      return si::maps::map_del(map, cc, op.key, scratch) ? 1 : 0;
    case MapOpKind::kRange: {
      si::maps::RangeEntry buf[kMapScanCap];
      const std::size_t n =
          si::maps::map_range(map, cc, op.key, op.hi, buf, kMapScanCap);
      std::uint64_t fold = n;
      for (std::size_t j = 0; j < n; ++j)
        fold = fold * 1099511628211ULL ^ buf[j].key ^ (buf[j].value << 1);
      return fold;
    }
  }
  return 0;
}

template <typename Map>
MapRunResult run_map_real(Backend b, const std::vector<MapOp>& script) {
  MapRunResult out;
  si::check::HistoryRecorder rec(8);
  Map map;
  typename Map::Pool pool;
  typename Map::ScratchT scratch(pool);
  // Seeded through DirectCC before the backend exists: both substrates start
  // from the identical pre-populated tree, outside the recorded history.
  si::maps::map_seed(map, kMapSeedElems, kMapKeySpace, 77, scratch);
  auto m = make_machine<RealSubstrate>(
      b, 10, RealSubstrateConfig{.max_threads = 8, .recorder = &rec});
  std::visit(
      [&](auto& be) {
        be.register_thread(0);
        out.results.reserve(script.size());
        for (const auto& op : script)
          out.results.push_back(apply_map_op(map, be, op, scratch));
        out.stats = be.thread_stats()[0];
      },
      m);
  out.dump = si::maps::map_dump(map);
  out.history = rec.merged();
  return out;
}

template <typename Map>
MapRunResult run_map_sim(Backend b, const std::vector<MapOp>& script) {
  MapRunResult out;
  si::check::HistoryRecorder rec(8);
  Map map;
  typename Map::Pool pool;
  typename Map::ScratchT scratch(pool);
  si::maps::map_seed(map, kMapSeedElems, kMapKeySpace, 77, scratch);
  si::sim::SimEngine eng(si::sim::SimMachineConfig{}, 1);
  auto m = make_machine<SimSubstrate>(b, 10, eng,
                                      SimSubstrateConfig{.recorder = &rec});
  out.results.reserve(script.size());
  std::visit(
      [&](auto& be) {
        eng.run(1e9, [&](int) {
          for (const auto& op : script)
            out.results.push_back(apply_map_op(map, be, op, scratch));
          eng.wait(1e12);  // past the deadline: the script runs exactly once
        });
        out.stats = be.thread_stats()[0];
      },
      m);
  out.dump = si::maps::map_dump(map);
  out.history = rec.merged();
  return out;
}

void expect_map_equivalent(const MapRunResult& real, const MapRunResult& sim) {
  ASSERT_EQ(real.results.size(), sim.results.size());
  for (std::size_t i = 0; i < real.results.size(); ++i)
    EXPECT_EQ(real.results[i], sim.results[i]) << "op " << i;
  ASSERT_EQ(real.dump.size(), sim.dump.size());
  for (std::size_t i = 0; i < real.dump.size(); ++i) {
    EXPECT_EQ(real.dump[i].key, sim.dump[i].key) << "dump entry " << i;
    EXPECT_EQ(real.dump[i].value, sim.dump[i].value) << "dump entry " << i;
  }
  EXPECT_EQ(real.stats.commits, sim.stats.commits);
  EXPECT_EQ(real.stats.ro_commits, sim.stats.ro_commits);
  EXPECT_EQ(real.stats.sgl_commits, sim.stats.sgl_commits);
  for (int c = 0; c < static_cast<int>(AbortCause::kCauseCount_); ++c) {
    EXPECT_EQ(real.stats.aborts_by_cause[c], sim.stats.aborts_by_cause[c])
        << "abort cause: " << to_string(static_cast<AbortCause>(c));
  }
  for (const auto* h : {&real.history, &sim.history}) {
    const auto res = si::check::verify_si(*h);
    EXPECT_TRUE(res.ok()) << si::check::describe(res);
    EXPECT_EQ(res.committed, real.stats.commits);
  }
}

/// One structure, all five protocols, real vs sim. Map updates write a
/// bounded handful of lines (worst case: a B+-tree root split), far under
/// the 64-line TMCAM, so even raw-ROT runs the full script.
template <typename Map>
void map_cases(std::uint64_t seed) {
  const auto script = make_map_script(seed);
  for (const Backend b : kBackends) {
    SCOPED_TRACE(to_string(b));
    expect_map_equivalent(run_map_real<Map>(b, script),
                          run_map_sim<Map>(b, script));
  }
}

class MapEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapEquivalenceTest, Skiplist) {
  map_cases<si::maps::SkipList>(GetParam());
}
TEST_P(MapEquivalenceTest, Bst) { map_cases<si::maps::Bst>(GetParam()); }
TEST_P(MapEquivalenceTest, Btree) { map_cases<si::maps::Btree>(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, MapEquivalenceTest,
                         ::testing::Values(1u, 7u, 42u, 20260807u));

// --- backend names -----------------------------------------------------------

TEST(BackendNames, RoundTripAndEveryCliSpellingParses) {
  for (const Backend b : kBackends) {
    EXPECT_EQ(si::runtime::backend_from_string(to_string(b)), b)
        << to_string(b);
  }
  // The CLI names and aliases every front end (si_fuzz, si_trace, si_serve,
  // the benches) has accepted, plus the display names the benches print.
  const std::pair<std::string_view, Backend> spellings[] = {
      {"htm", Backend::kHtm},         {"htm-sgl", Backend::kHtm},
      {"HTM", Backend::kHtm},         {"si-htm", Backend::kSiHtm},
      {"sihtm", Backend::kSiHtm},     {"SI-HTM", Backend::kSiHtm},
      {"p8tm", Backend::kP8tm},       {"P8TM", Backend::kP8tm},
      {"silo", Backend::kSilo},       {"Silo", Backend::kSilo},
      {"raw-rot", Backend::kRawRot},  {"rawrot", Backend::kRawRot},
      {"raw-ROT", Backend::kRawRot}};
  for (const auto& [name, b] : spellings) {
    EXPECT_EQ(si::runtime::backend_from_string(name), b) << name;
  }
  EXPECT_THROW(si::runtime::backend_from_string("tl2"), std::invalid_argument);
}

}  // namespace
