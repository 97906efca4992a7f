// Property-based / parameterised sweeps over the concurrency-control
// invariants:
//  * conservation — invariant-preserving transfers keep the global sum exact
//    on every backend, across thread counts and contention levels;
//  * snapshot consistency — read-only scans never observe a torn state under
//    SI-HTM, whatever the thread count;
//  * sequential equivalence — a single-threaded random op sequence on the
//    transactional hash map matches a reference model exactly, per backend.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "hashmap/hashmap.hpp"
#include "runtime/driver.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace {

using si::runtime::Backend;

struct alignas(si::util::kLineSize) Cell {
  std::uint64_t v = 0;
};

std::string backend_name(Backend b) {
  const auto s = std::string(si::runtime::to_string(b));
  return s == "SI-HTM" ? "SiHtm" : s;
}

// --- conservation sweep: backend x threads x cell count ---------------------

using ConservationParam = std::tuple<Backend, int, int>;

class ConservationSweep : public ::testing::TestWithParam<ConservationParam> {};

TEST_P(ConservationSweep, TransfersConserveTotal) {
  const auto [backend, threads, n_cells] = GetParam();
  si::runtime::RuntimeConfig cfg;
  cfg.backend = backend;
  cfg.max_threads = threads;
  si::runtime::Runtime rt(cfg);

  std::vector<Cell> cells(static_cast<std::size_t>(n_cells));
  for (auto& c : cells) c.v = 100;

  si::runtime::run_fixed_ops(rt, threads, 300, [&](int tid) {
    thread_local si::util::Xoshiro256 rng(17 + tid);
    const int a = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_cells)));
    const int b = static_cast<int>(
        (a + 1 + rng.below(static_cast<std::uint64_t>(n_cells - 1))) % n_cells);
    rt.execute(false, [&](auto& tx) {
      const auto va = tx.read(&cells[a].v);
      const auto vb = tx.read(&cells[b].v);
      tx.write(&cells[a].v, va - 1);
      tx.write(&cells[b].v, vb + 1);
    });
  });

  std::uint64_t total = 0;
  for (auto& c : cells) total += c.v;
  EXPECT_EQ(total, 100u * static_cast<std::uint64_t>(n_cells));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConservationSweep,
    ::testing::Combine(::testing::Values(Backend::kHtm, Backend::kSiHtm,
                                         Backend::kP8tm, Backend::kSilo),
                       ::testing::Values(2, 4),
                       ::testing::Values(4, 32)),  // 4 = high contention
    [](const auto& info) {
      return backend_name(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_c" +
             std::to_string(std::get<2>(info.param));
    });

// --- snapshot-consistency sweep over thread counts ---------------------------

class SnapshotSweep : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotSweep, ReadOnlyScansNeverTorn) {
  const int threads = GetParam();
  si::runtime::RuntimeConfig cfg;
  cfg.backend = Backend::kSiHtm;
  cfg.max_threads = threads;
  si::runtime::Runtime rt(cfg);

  constexpr int kCells = 8;
  std::vector<Cell> cells(kCells);
  for (auto& c : cells) c.v = 64;
  std::atomic<bool> bad{false};

  si::runtime::run_fixed_ops(rt, threads, 250, [&](int tid) {
    thread_local si::util::Xoshiro256 rng(311 + tid);
    if (rng.percent(50)) {
      std::uint64_t sum = 0;
      rt.execute(true, [&](auto& tx) {
        sum = 0;
        for (auto& c : cells) sum += tx.read(&c.v);
      });
      if (sum != 64u * kCells) bad.store(true, std::memory_order_relaxed);
    } else {
      const int a = static_cast<int>(rng.below(kCells));
      const int b = (a + 1) % kCells;
      rt.execute(false, [&](auto& tx) {
        const auto va = tx.read(&cells[a].v);
        const auto vb = tx.read(&cells[b].v);
        tx.write(&cells[a].v, va - 1);
        tx.write(&cells[b].v, vb + 1);
      });
    }
  });
  EXPECT_FALSE(bad.load());
}

INSTANTIATE_TEST_SUITE_P(Threads, SnapshotSweep, ::testing::Values(2, 3, 5),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// --- sequential equivalence against a reference model ------------------------

class SequentialEquivalence : public ::testing::TestWithParam<Backend> {};

TEST_P(SequentialEquivalence, RandomOpsMatchReferenceModel) {
  si::runtime::RuntimeConfig cfg;
  cfg.backend = GetParam();
  cfg.max_threads = 2;
  si::runtime::Runtime rt(cfg);
  rt.register_thread(0);

  si::hashmap::HashMap map(16);
  si::hashmap::Pool pool;
  std::map<std::uint64_t, std::uint64_t> reference;  // key -> value (set-like)
  si::util::Xoshiro256 rng(4242);

  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t key = rng.below(64);
    const int kind = static_cast<int>(rng.below(3));
    if (kind == 0) {  // insert-or-update
      si::hashmap::Node* fresh = pool.allocate();
      bool used = false;
      rt.execute(false, [&](auto& tx) {
        used = map.insert(tx, key, op + 1000, fresh);
      });
      if (!used) pool.release(fresh);
      pool.advance();
      reference[key] = static_cast<std::uint64_t>(op + 1000);
    } else if (kind == 1) {  // remove
      si::hashmap::Node* unlinked = nullptr;
      bool removed = false;
      rt.execute(false, [&](auto& tx) {
        unlinked = nullptr;
        removed = map.remove(tx, key, &unlinked);
      });
      EXPECT_EQ(removed, reference.count(key) == 1) << "key " << key;
      if (unlinked != nullptr) pool.retire(unlinked);
      pool.advance();
      reference.erase(key);
    } else {  // lookup
      std::uint64_t got = 0;
      bool found = false;
      rt.execute(true, [&](auto& tx) { found = map.lookup(tx, key, &got); });
      const auto it = reference.find(key);
      ASSERT_EQ(found, it != reference.end()) << "key " << key;
      if (found) {
        ASSERT_EQ(got, it->second) << "key " << key;
      }
    }
  }
  EXPECT_EQ(map.count(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SequentialEquivalence,
                         ::testing::Values(Backend::kHtm, Backend::kSiHtm,
                                           Backend::kP8tm, Backend::kSilo),
                         [](const auto& info) { return backend_name(info.param); });

}  // namespace
