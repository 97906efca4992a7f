// Concurrent stress for the lock-based map baselines (runs under TSan in
// CI): hand-over-hand / crabbing and the coarse global lock, checked by
// conservation accounting and post-quiescence structure invariants.
//
// The transactional (Runtime) backends are stressed separately by
// maps_property_test.cpp; this suite exists because the fine-grained paths
// have their own deadlock-freedom and memory-reclamation arguments
// (skiplist: nondecreasing key order; BST/B+-tree: tree-edge crabbing;
// immediate pool reuse under full predecessor locking) that only real
// concurrency can falsify.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "maps/bst.hpp"
#include "maps/btree.hpp"
#include "maps/locked.hpp"
#include "maps/maps.hpp"
#include "maps/skiplist.hpp"
#include "maps/workload.hpp"
#include "util/rng.hpp"

namespace {

using si::maps::LockedMap;
using si::maps::LockMode;
using si::maps::RangeEntry;

#if defined(__SANITIZE_THREAD__)
#define SI_MAPS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SI_MAPS_TSAN 1
#endif
#endif

#ifdef SI_MAPS_TSAN
constexpr std::uint64_t kOpsPerThread = 4000;  // TSan is ~20x slower
#else
constexpr std::uint64_t kOpsPerThread = 20000;
#endif
constexpr int kThreads = 6;
constexpr std::uint64_t kKeySpace = 512;

template <typename Map>
void stress(LockMode mode, std::uint64_t seed) {
  LockedMap<Map> locked(mode);
  // Pools are hoisted out of the worker threads: their arenas own the node
  // memory that stays linked into the shared map, so they must outlive the
  // post-join verification below (a thread-local pool would free the nodes
  // at thread exit and turn the final dump into a use-after-free).
  std::vector<typename Map::Pool> pools(kThreads);
  // Per-thread net insert balance lets us check conservation at the end.
  std::vector<std::int64_t> net(kThreads, 0);
  std::vector<std::uint64_t> scans(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      si::util::Xoshiro256 rng(seed ^ (0x9E37ULL * (t + 1)));
      typename Map::ScratchT scratch(pools[t]);
      RangeEntry buf[64];
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t d = rng.below(100);
        const std::uint64_t key = 1 + rng.below(kKeySpace);
        if (d < 20) {
          std::uint64_t v = 0;
          if (locked.get(key, &v)) {
            ASSERT_EQ(v, key * 3 + 1);
          }
        } else if (d < 35) {
          const std::size_t n = locked.range(key, key + 31, buf, 64);
          scans[t] += n;
          std::uint64_t prev = 0;
          for (std::size_t j = 0; j < n; ++j) {
            ASSERT_TRUE(j == 0 || buf[j].key > prev) << "unsorted range hit";
            ASSERT_GE(buf[j].key, key);
            ASSERT_LE(buf[j].key, key + 31);
            ASSERT_EQ(buf[j].value, buf[j].key * 3 + 1);
            prev = buf[j].key;
          }
        } else if (d < 70) {
          if (locked.put(key, key * 3 + 1, scratch)) ++net[t];
        } else {
          if (locked.del(key, scratch)) --net[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  std::int64_t expected = 0;
  for (const auto n : net) expected += n;
  EXPECT_EQ(static_cast<std::int64_t>(si::maps::map_count(locked.map())),
            expected);
  EXPECT_TRUE(locked.map().structure_ok());
  const auto dump = si::maps::map_dump(locked.map());
  for (const auto& e : dump) EXPECT_EQ(e.value, e.key * 3 + 1);
}

TEST(MapsStress, SkiplistFine) { stress<si::maps::SkipList>(LockMode::kFine, 1); }
TEST(MapsStress, SkiplistCoarse) {
  stress<si::maps::SkipList>(LockMode::kCoarse, 2);
}
TEST(MapsStress, BstFine) { stress<si::maps::Bst>(LockMode::kFine, 3); }
TEST(MapsStress, BstCoarse) { stress<si::maps::Bst>(LockMode::kCoarse, 4); }
TEST(MapsStress, BtreeFine) { stress<si::maps::Btree>(LockMode::kFine, 5); }
TEST(MapsStress, BtreeCoarse) { stress<si::maps::Btree>(LockMode::kCoarse, 6); }

// The locked workload driver itself (used by bench_maps for baseline rows)
// must survive a short multi-threaded run and keep its op accounting.
TEST(MapsStress, LockedWorkloadDriver) {
  si::maps::MapWorkloadConfig cfg;
  cfg.elements = 500;
  cfg.seed = 99;
  for (const LockMode mode : {LockMode::kCoarse, LockMode::kFine}) {
    si::maps::LockedWorkload<si::maps::SkipList> w(cfg, mode, kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
      workers.emplace_back([&, t] {
        for (int i = 0; i < 2000; ++i) w.step(t);
      });
    for (auto& worker : workers) worker.join();
    EXPECT_EQ(w.total_ops(), static_cast<std::uint64_t>(kThreads) * 2000);
    EXPECT_TRUE(w.map().map().structure_ok());
  }
}

}  // namespace
