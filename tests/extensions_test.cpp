// Tests of the extension features: the histogram utility, the POWER9 LVDIR
// model in the simulator, and the straggler-killing policy.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "protocol/machine.hpp"
#include "protocol/real_substrate.hpp"
#include "protocol/sihtm_core.hpp"
#include "protocol/sim_substrate.hpp"
#include "sim/engine.hpp"
#include "util/backoff.hpp"
#include "util/histogram.hpp"

namespace {

using si::util::AbortCause;
using si::util::Histogram;
using si::util::kLineSize;
using si::protocol::RealSubstrate;
using si::protocol::SimSubstrate;
using SiHtm =
    si::protocol::Machine<si::protocol::SiHtmCore<RealSubstrate>, RealSubstrate>;
using SiHtmSim =
    si::protocol::Machine<si::protocol::SiHtmCore<SimSubstrate>, SimSubstrate>;

struct alignas(kLineSize) Cell {
  std::uint64_t v = 0;
};

// --- histogram ---------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::upper_bound(0), 0u);
  EXPECT_EQ(Histogram::upper_bound(1), 1u);
  EXPECT_EQ(Histogram::upper_bound(2), 3u);
  EXPECT_EQ(Histogram::upper_bound(10), 1023u);
}

TEST(HistogramTest, CountMeanMax) {
  Histogram h;
  h.record(1);
  h.record(3);
  h.record(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.mean(), (1 + 3 + 100) / 3.0, 1e-9);
}

TEST(HistogramTest, QuantileWithinFactorOfTwo) {
  Histogram h;
  for (int i = 0; i < 900; ++i) h.record(10);
  for (int i = 0; i < 100; ++i) h.record(10000);
  const auto p50 = h.quantile(0.5);
  EXPECT_GE(p50, 10u);
  EXPECT_LE(p50, 31u);  // 10's bucket upper bound is 15; allow one bucket
  const auto p99 = h.quantile(0.99);
  EXPECT_GE(p99, 8192u);
}

TEST(HistogramTest, MergeAccumulates) {
  Histogram a, b;
  a.record(5);
  b.record(50);
  b.record(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 500u);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// --- POWER9 LVDIR model -------------------------------------------------

TEST(LvdirTest, Power9ConfigEnablesLvdir) {
  const auto p9 = si::sim::SimMachineConfig::power9();
  EXPECT_EQ(p9.lvdir_lines, 4096u);  // 512 KiB / 128 B
  EXPECT_EQ(p9.lvdir_max_threads, 2);
  const si::sim::SimMachineConfig p8;
  EXPECT_EQ(p8.lvdir_lines, 0u);
}

TEST(LvdirTest, HtmReadsUseLvdirAndEscapeTmcamLimit) {
  si::sim::SimEngine eng(si::sim::SimMachineConfig::power9(), 1);
  std::vector<Cell> cells(200);  // 200 read lines: > TMCAM, < LVDIR
  bool committed = false;
  eng.run(1e9, [&](int) {
    eng.tx_begin(si::sim::SimTxMode::kHtm);
    EXPECT_TRUE(eng.thread_uses_lvdir(0));
    try {
      for (auto& c : cells) {
        std::uint64_t v;
        eng.access(&v, &c.v, 8, false, true, AbortCause::kConflictRead);
      }
      eng.tx_commit();
      committed = true;
    } catch (const si::sim::TxAbort&) {
    }
    eng.wait(1e12);
  });
  EXPECT_TRUE(committed);
  EXPECT_EQ(eng.lvdir_used(0), 0u);  // released at commit
  EXPECT_EQ(eng.lvdir_users(0), 0);
}

TEST(LvdirTest, WritesStillBoundByTmcamOnPower9) {
  si::sim::SimEngine eng(si::sim::SimMachineConfig::power9(), 1);
  std::vector<Cell> cells(100);
  AbortCause cause = AbortCause::kNone;
  eng.run(1e9, [&](int) {
    eng.tx_begin(si::sim::SimTxMode::kHtm);
    try {
      const std::uint64_t one = 1;
      for (auto& c : cells) eng.access(&c.v, &one, 8, true, true,
                                       AbortCause::kConflictWrite);
      eng.tx_commit();
    } catch (const si::sim::TxAbort& a) {
      cause = a.cause;
    }
    eng.wait(1e12);
  });
  EXPECT_EQ(cause, AbortCause::kCapacity);
}

TEST(LvdirTest, OnlyTwoThreadsPerPairGetSlots) {
  // Threads 0, 10, 20 all sit on cores 0/0/0... under scatter pinning
  // tids 0 and 10 -> core 0, tid 20 -> core 0 as well (20 % 10): all three
  // share LVDIR pair 0, so the third-comer must be denied a slot.
  si::sim::SimEngine eng(si::sim::SimMachineConfig::power9(), 21);
  bool third_got_slot = true;
  eng.run(1e6, [&](int tid) {
    if (tid == 0 || tid == 10) {
      eng.tx_begin(si::sim::SimTxMode::kHtm);
      eng.wait(5000);  // hold the slot
      eng.tx_commit();
    } else if (tid == 20) {
      eng.wait(1000);
      eng.tx_begin(si::sim::SimTxMode::kHtm);
      third_got_slot = eng.thread_uses_lvdir(20);
      eng.tx_commit();
    }
    eng.wait(1e9);
  });
  EXPECT_FALSE(third_got_slot);
  EXPECT_EQ(eng.lvdir_users(0), 0);
}

// --- straggler killing -----------------------------------------------------

TEST(StragglerKillTest, RealRuntimeKillsLaggard) {
  SiHtm cc({.max_threads = 4, .straggler_kill_spins = 200});
  Cell x, y;
  std::atomic<bool> straggler_in{false};
  std::atomic<bool> committer_done{false};

  std::thread straggler([&] {
    cc.register_thread(0);
    cc.execute(false, [&](auto& tx) {
      tx.write(&y.v, std::uint64_t{1});  // be a killable hardware tx
      straggler_in.store(true, std::memory_order_release);
      // Dawdle until killed (first attempt) or the committer finished
      // (retry attempts).
      si::util::Backoff b;
      while (!committer_done.load(std::memory_order_acquire)) {
        cc.substrate().htm().check_killed();
        b.pause();
      }
    });
  });
  std::thread committer([&] {
    cc.register_thread(1);
    si::util::Backoff b;
    while (!straggler_in.load(std::memory_order_acquire)) b.pause();
    cc.execute(false, [&](auto& tx) { tx.write(&x.v, std::uint64_t{2}); });
    committer_done.store(true, std::memory_order_release);
  });
  straggler.join();
  committer.join();
  EXPECT_EQ(x.v, 2u);
  EXPECT_EQ(y.v, 1u);  // straggler retried and committed after the kill
  EXPECT_GE(cc.thread_stats()[0].aborts_by_cause[static_cast<int>(
                AbortCause::kKilledAsStraggler)],
            1u);
}

TEST(StragglerKillTest, DisabledPolicyNeverKills) {
  // straggler_kill_spins = 0, the default: the paper's configuration.
  SiHtm cc({.max_threads = 4});
  Cell x, y;
  std::atomic<bool> straggler_in{false}, release{false};

  std::thread straggler([&] {
    cc.register_thread(0);
    cc.execute(false, [&](auto& tx) {
      tx.write(&y.v, std::uint64_t{1});
      straggler_in.store(true, std::memory_order_release);
      si::util::Backoff b;
      while (!release.load(std::memory_order_acquire)) {
        cc.substrate().htm().check_killed();
        b.pause();
      }
    });
  });
  std::thread committer([&] {
    cc.register_thread(1);
    si::util::Backoff b;
    while (!straggler_in.load(std::memory_order_acquire)) b.pause();
    std::thread unblocker([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      release.store(true, std::memory_order_release);
    });
    cc.execute(false, [&](auto& tx) { tx.write(&x.v, std::uint64_t{2}); });
    unblocker.join();
  });
  straggler.join();
  committer.join();
  EXPECT_EQ(cc.thread_stats()[0].aborts_by_cause[static_cast<int>(
                AbortCause::kKilledAsStraggler)],
            0u);
  EXPECT_EQ(y.v, 1u);
}

TEST(StragglerKillTest, SimPolicyRaisesStragglerAborts) {
  auto run_with = [](double kill_after_ns) {
    si::sim::SimMachineConfig mcfg;
    si::sim::SimEngine eng(mcfg, 4);
    SiHtmSim cc(eng, {.straggler_kill_after_ns = kill_after_ns});
    std::vector<Cell> cells(4);
    std::vector<si::util::Xoshiro256> rngs;
    for (int t = 0; t < 4; ++t) rngs.emplace_back(5 + t);
    eng.run(2e6, [&](int tid) {
      auto& rng = rngs[static_cast<std::size_t>(tid)];
      cc.execute(false, [&](auto& tx) {
        const auto i = rng.below(cells.size());
        tx.write(&cells[i].v, tx.read(&cells[i].v) + 1);
        // Simulated "slow" tail: stragglers linger inside the transaction.
        for (int spin = 0; spin < 30; ++spin) eng.wait(100);
      });
    });
    std::uint64_t straggler_kills = 0;
    for (int t = 0; t < 4; ++t) {
      straggler_kills += eng.stats(t).aborts_by_cause[static_cast<int>(
          AbortCause::kKilledAsStraggler)];
    }
    return straggler_kills;
  };
  EXPECT_EQ(run_with(0), 0u);
  EXPECT_GT(run_with(300), 0u);
}

}  // namespace
