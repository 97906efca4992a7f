// Tests of the discrete-event simulator: fibers, engine clock/scheduling,
// the virtual-time HTM model, protocol engines, determinism, and agreement
// with the real-thread backends on workload invariants.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "hashmap/workload.hpp"
#include "protocol/htm_sgl_core.hpp"
#include "protocol/machine.hpp"
#include "protocol/sihtm_core.hpp"
#include "protocol/sim_substrate.hpp"
#include "runtime/backend.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "tpcc/workload.hpp"
#include "util/cacheline.hpp"

namespace {

using namespace si::sim;
using si::util::AbortCause;
using si::util::kLineSize;
using si::protocol::SimSubstrate;
using si::runtime::Backend;
using SiHtm =
    si::protocol::Machine<si::protocol::SiHtmCore<SimSubstrate>, SimSubstrate>;
using HtmSgl =
    si::protocol::Machine<si::protocol::HtmSglCore<SimSubstrate>, SimSubstrate>;

struct alignas(kLineSize) Cell {
  std::uint64_t v = 0;
};

SimMachineConfig machine() { return SimMachineConfig{}; }

// --- fibers ----------------------------------------------------------------

TEST(FiberTest, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(FiberTest, YieldAndResumeInterleave) {
  std::string trace;
  Fiber a([&] {
    trace += "a1";
    Fiber::yield();
    trace += "a2";
  });
  Fiber b([&] {
    trace += "b1";
    Fiber::yield();
    trace += "b2";
  });
  a.resume();
  b.resume();
  a.resume();
  b.resume();
  EXPECT_EQ(trace, "a1b1a2b2");
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
}

TEST(FiberTest, CurrentTracksRunningFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(FiberTest, YieldOffFiberThrows) {
  EXPECT_THROW(Fiber::yield(), std::logic_error);
}

// --- engine clock & scheduling ----------------------------------------------

TEST(SimEngineTest, WaitAdvancesVirtualTime) {
  SimEngine eng(machine(), 1);
  double observed = -1;
  eng.run(1000.0, [&](int) {
    eng.wait(100);
    eng.wait(250);
    observed = eng.now();
    eng.wait(10000);  // past the deadline: loop exits after this step
  });
  EXPECT_DOUBLE_EQ(observed, 350.0);
}

TEST(SimEngineTest, ThreadsInterleaveByVirtualTime) {
  SimEngine eng(machine(), 2);
  std::vector<int> order;
  eng.run(1.0, [&](int tid) {  // one step each, then stop
    if (tid == 0) {
      eng.wait(50);
      order.push_back(0);
      eng.wait(100);  // resumes at 150
      order.push_back(0);
    } else {
      eng.wait(100);
      order.push_back(1);
      eng.wait(100);  // resumes at 200
      order.push_back(1);
    }
    eng.wait(1000);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
}

TEST(SimEngineTest, RunReturnsElapsedVirtualSeconds) {
  SimEngine eng(machine(), 1);
  const auto stats = eng.run(500.0, [&](int) { eng.wait(400); });
  EXPECT_GT(stats.elapsed_seconds, 0.0);
  EXPECT_LT(stats.elapsed_seconds, 1e-5);
}

// --- virtual-time HTM model ---------------------------------------------------

TEST(SimHtmModel, CommitPersistsAbortRollsBack) {
  SimEngine eng(machine(), 1);
  Cell x, y;
  x.v = 1;
  eng.run(1.0, [&](int) {
    eng.tx_begin(SimTxMode::kRot);
    const std::uint64_t two = 2;
    eng.access(&x.v, &two, 8, true, true, AbortCause::kConflictWrite);
    eng.tx_commit();

    eng.tx_begin(SimTxMode::kRot);
    const std::uint64_t three = 3;
    eng.access(&y.v, &three, 8, true, true, AbortCause::kConflictWrite);
    try {
      eng.self_abort(AbortCause::kExplicit);
    } catch (const TxAbort&) {
    }
    eng.wait(1e9);
  });
  EXPECT_EQ(x.v, 2u);
  EXPECT_EQ(y.v, 0u);
}

TEST(SimHtmModel, CapacityAbortAt65Lines) {
  SimEngine eng(machine(), 1);
  std::vector<Cell> cells(100);
  AbortCause cause = AbortCause::kNone;
  std::size_t done = 0;
  eng.run(1.0, [&](int) {
    eng.tx_begin(SimTxMode::kHtm);
    try {
      for (auto& c : cells) {
        std::uint64_t v;
        eng.access(&v, &c.v, 8, false, true, AbortCause::kConflictRead);
        ++done;
      }
      eng.tx_commit();
    } catch (const TxAbort& a) {
      cause = a.cause;
    }
    eng.wait(1e9);
  });
  EXPECT_EQ(cause, AbortCause::kCapacity);
  EXPECT_EQ(done, 64u);
  EXPECT_EQ(eng.tmcam_used(0), 0u);
}

TEST(SimHtmModel, SmtSharingOfTmcam) {
  // Threads 0 and 10 share core 0: their combined write sets exhaust the 64
  // shared TMCAM entries.
  SimEngine eng(machine(), 11);
  std::vector<Cell> a(40), b(40);
  AbortCause b_cause = AbortCause::kNone;
  eng.run(1e6, [&](int tid) {
    if (tid == 0) {
      eng.tx_begin(SimTxMode::kRot);
      for (auto& c : a) {
        const std::uint64_t one = 1;
        eng.access(&c.v, &one, 8, true, true, AbortCause::kConflictWrite);
      }
      eng.wait(5000);  // hold the lines while thread 10 runs
      eng.tx_commit();
    } else if (tid == 10) {
      eng.wait(1000);  // let thread 0 populate first
      eng.tx_begin(SimTxMode::kRot);
      try {
        for (auto& c : b) {
          const std::uint64_t one = 1;
          eng.access(&c.v, &one, 8, true, true, AbortCause::kConflictWrite);
        }
        eng.tx_commit();
      } catch (const TxAbort& abort) {
        b_cause = abort.cause;
      }
    }
    eng.wait(1e9);
  });
  EXPECT_EQ(b_cause, AbortCause::kCapacity);
}

TEST(SimHtmModel, ReadKillsActiveWriter) {
  SimEngine eng(machine(), 2);
  Cell x;
  x.v = 7;
  AbortCause writer_cause = AbortCause::kNone;
  std::uint64_t reader_saw = ~0ull;
  eng.run(1e6, [&](int tid) {
    if (tid == 0) {
      eng.tx_begin(SimTxMode::kRot);
      const std::uint64_t eight = 8;
      eng.access(&x.v, &eight, 8, true, true, AbortCause::kConflictWrite);
      try {
        // Poll until the reader's access kills us.
        for (int i = 0; i < 1000; ++i) {
          eng.wait(100);
          eng.check_killed();
        }
        eng.tx_commit();
      } catch (const TxAbort& a) {
        writer_cause = a.cause;
      }
    } else {
      eng.wait(500);  // the writer's store is in place by now
      eng.access(&reader_saw, &x.v, 8, false, false, AbortCause::kConflictRead);
    }
    eng.wait(1e9);
  });
  EXPECT_EQ(writer_cause, AbortCause::kConflictRead);
  EXPECT_EQ(reader_saw, 7u);  // rolled-back (pre-transactional) value
  EXPECT_EQ(x.v, 7u);
}

// --- protocol engines ---------------------------------------------------

TEST(SiHtmSimTest, LargeReadOnlyAndUpdateCommit) {
  SimEngine eng(machine(), 1);
  SiHtm cc(eng);
  std::vector<Cell> cells(500);
  Cell out;
  eng.run(1e9, [&](int) {
    cc.execute(true, [&](auto& tx) {
      std::uint64_t sum = 0;
      for (auto& c : cells) sum += tx.read(&c.v);
      (void)sum;
    });
    cc.execute(false, [&](auto& tx) {
      std::uint64_t sum = 0;
      for (auto& c : cells) sum += tx.read(&c.v);  // huge read set, ROT-free
      tx.write(&out.v, sum + 5);
    });
    eng.wait(1e12);
  });
  EXPECT_EQ(out.v, 5u);
  const auto& st = eng.stats(0);
  EXPECT_EQ(st.commits, 2u);
  EXPECT_EQ(st.ro_commits, 1u);
  EXPECT_EQ(st.sgl_commits, 0u);
  EXPECT_EQ(st.aborts_by_cause[static_cast<int>(AbortCause::kCapacity)], 0u);
}

TEST(SiHtmSimTest, OversizedWriteSetTakesSgl) {
  SimEngine eng(machine(), 1);
  SiHtm cc(eng, {}, {.retries = 2});
  std::vector<Cell> cells(100);
  eng.run(1e9, [&](int) {
    cc.execute(false, [&](auto& tx) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        tx.write(&cells[i].v, i + 1);
      }
    });
    eng.wait(1e12);
  });
  for (std::size_t i = 0; i < cells.size(); ++i) ASSERT_EQ(cells[i].v, i + 1);
  EXPECT_EQ(eng.stats(0).sgl_commits, 1u);
  // Capacity aborts are persistent: one attempt, then straight to the SGL.
  EXPECT_EQ(eng.stats(0).aborts_by_cause[static_cast<int>(AbortCause::kCapacity)], 1u);
}

TEST(HtmSglSimTest, LargeReadSetFallsBackWithCapacityAborts) {
  SimEngine eng(machine(), 1);
  HtmSgl cc(eng, {}, {.retries = 3});
  std::vector<Cell> cells(200);
  eng.run(1e9, [&](int) {
    cc.execute(false, [&](auto& tx) {
      std::uint64_t sum = 0;
      for (auto& c : cells) sum += tx.read(&c.v);
      (void)sum;
    });
    eng.wait(1e12);
  });
  EXPECT_EQ(eng.stats(0).sgl_commits, 1u);
  // Capacity aborts are persistent: one attempt, then straight to the SGL.
  EXPECT_EQ(eng.stats(0).aborts_by_cause[static_cast<int>(AbortCause::kCapacity)], 1u);
}

void run_transfer_invariant(Backend backend) {
  SimEngine eng(machine(), 8);
  auto m = si::runtime::make_machine<SimSubstrate>(
      backend, 10, eng, si::protocol::SimSubstrateConfig{});
  constexpr int kAccounts = 12;
  std::vector<Cell> accounts(kAccounts);
  for (auto& a : accounts) a.v = 1000;
  std::vector<si::util::Xoshiro256> rngs;
  for (int t = 0; t < 8; ++t) rngs.emplace_back(31 + t);

  std::visit(
      [&](auto& cc) {
        eng.run(3e6, [&](int tid) {  // 3 ms of virtual time
          auto& rng = rngs[static_cast<std::size_t>(tid)];
          const int from = static_cast<int>(rng.below(kAccounts));
          const int to = static_cast<int>(
              (from + 1 + rng.below(kAccounts - 1)) % kAccounts);
          cc.execute(false, [&](auto& tx) {
            const auto f = tx.read(&accounts[from].v);
            const auto g = tx.read(&accounts[to].v);
            tx.write(&accounts[from].v, f - 1);
            tx.write(&accounts[to].v, g + 1);
          });
        });
      },
      m);

  std::uint64_t total = 0, commits = 0;
  for (auto& a : accounts) total += a.v;
  for (int t = 0; t < 8; ++t) commits += eng.stats(t).commits;
  EXPECT_EQ(total, 1000u * kAccounts);
  EXPECT_GT(commits, 100u);
}

TEST(SimProtocolInvariants, SiHtmTransfersConserve) {
  run_transfer_invariant(Backend::kSiHtm);
}
TEST(SimProtocolInvariants, HtmTransfersConserve) {
  run_transfer_invariant(Backend::kHtm);
}
TEST(SimProtocolInvariants, P8tmTransfersConserve) {
  run_transfer_invariant(Backend::kP8tm);
}
TEST(SimProtocolInvariants, SiloTransfersConserve) {
  run_transfer_invariant(Backend::kSilo);
}

TEST(SiHtmSimTest, ReadOnlySnapshotsStayConsistent) {
  SimEngine eng(machine(), 4);
  SiHtm cc(eng);
  constexpr int kCells = 10;
  std::vector<Cell> cells(kCells);
  for (auto& c : cells) c.v = 100;
  std::vector<si::util::Xoshiro256> rngs;
  for (int t = 0; t < 4; ++t) rngs.emplace_back(7 + t);
  bool bad = false;

  eng.run(2e6, [&](int tid) {
    auto& rng = rngs[static_cast<std::size_t>(tid)];
    if (tid < 2) {  // scanners
      std::uint64_t sum = 0;
      cc.execute(true, [&](auto& tx) {
        sum = 0;
        for (auto& c : cells) sum += tx.read(&c.v);
      });
      if (sum != 100u * kCells) bad = true;
    } else {  // transfers
      const int a = static_cast<int>(rng.below(kCells));
      const int b = static_cast<int>((a + 1 + rng.below(kCells - 1)) % kCells);
      cc.execute(false, [&](auto& tx) {
        const auto va = tx.read(&cells[a].v);
        const auto vb = tx.read(&cells[b].v);
        tx.write(&cells[a].v, va - 1);
        tx.write(&cells[b].v, vb + 1);
      });
    }
  });
  EXPECT_FALSE(bad) << "a read-only snapshot observed a torn state";
}

// --- workloads on the simulator -------------------------------------------

TEST(SimWorkloads, HashMapRunsOnAllSimBackends) {
  for (Backend backend :
       {Backend::kSiHtm, Backend::kHtm, Backend::kP8tm, Backend::kSilo}) {
    SimEngine eng(machine(), 8);
    si::hashmap::WorkloadConfig wcfg;
    wcfg.buckets = 50;
    wcfg.avg_chain = 10;
    wcfg.ro_pct = 60;
    si::hashmap::Workload w(wcfg, 8);
    const std::size_t seeded = w.map().count();

    auto m = si::runtime::make_machine<SimSubstrate>(
        backend, 10, eng, si::protocol::SimSubstrateConfig{});
    std::visit(
        [&](auto& cc) { eng.run(2e6, [&](int tid) { w.step(cc, tid); }); }, m);
    std::uint64_t commits = 0;
    for (int t = 0; t < 8; ++t) commits += eng.stats(t).commits;
    EXPECT_GT(commits, 50u) << to_string(backend);
    // Size stationary within one outstanding insert per thread.
    EXPECT_NEAR(static_cast<double>(w.map().count()), static_cast<double>(seeded), 8.0)
        << to_string(backend);
  }
}

TEST(SimWorkloads, TpccConsistencyOnSiHtm) {
  SimEngine eng(machine(), 8);
  SiHtm cc(eng);
  si::tpcc::DbConfig dcfg;
  dcfg.warehouses = 2;
  dcfg.items = 200;
  dcfg.customers_per_district = 60;
  dcfg.initial_orders_per_district = 40;
  dcfg.order_ring_bits = 8;
  dcfg.history_ring_bits = 10;
  si::tpcc::Workload w(dcfg, si::tpcc::Mix::standard(), 8);

  eng.run(2e6, [&](int tid) { w.step(cc, tid); });

  EXPECT_TRUE(w.db().check_ytd_consistency());
  EXPECT_TRUE(w.db().check_order_id_consistency());
  std::uint64_t commits = 0;
  for (int t = 0; t < 8; ++t) commits += eng.stats(t).commits;
  EXPECT_GT(commits, 20u);
}

TEST(SimDeterminism, IdenticalRunsProduceIdenticalStats) {
  auto run_once = [] {
    SimEngine eng(machine(), 8);
    SiHtm cc(eng);
    si::hashmap::WorkloadConfig wcfg;
    wcfg.buckets = 20;
    wcfg.avg_chain = 8;
    wcfg.ro_pct = 50;
    si::hashmap::Workload w(wcfg, 8);
    const auto stats = eng.run(1e6, [&](int tid) { w.step(cc, tid); });
    return std::make_pair(stats.totals.commits, stats.total_aborts());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
