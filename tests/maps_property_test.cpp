// Randomized concurrent property harness for the map zoo (ISSUE 6 satellite):
// seeded op mixes against a single-threaded std::map oracle.
//
// The trick that makes concurrent results checkable offline is a shared
// version cell that every update transaction reads and re-writes. Updates
// therefore WW-conflict pairwise: first-committer-wins gives them a total
// order with dense, unique versions, and an update's own map effects see
// exactly the prefix of updates below its version. Read-only transactions
// read the cell inside the same snapshot as their lookup/scan, so "the
// oracle's answer at some snapshot point" becomes concrete: the oracle state
// after replaying updates 1..snap. Every get/put/del result and every range
// result is then checked exactly — this is the linearization check for
// updates and the snapshot check for ranges, per structure, per protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "maps/bst.hpp"
#include "maps/btree.hpp"
#include "maps/maps.hpp"
#include "maps/skiplist.hpp"
#include "runtime/runtime.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"

namespace {

using si::maps::RangeEntry;
using si::runtime::Backend;

#if defined(__SANITIZE_THREAD__)
#define SI_MAPS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SI_MAPS_TSAN 1
#endif
#endif

constexpr int kThreads = 4;
#ifdef SI_MAPS_TSAN
constexpr int kOpsPerThread = 400;  // TSan is ~20x slower
#else
constexpr int kOpsPerThread = 1500;
#endif
constexpr std::uint64_t kKeySpace = 256;
constexpr std::uint64_t kScanWidth = 16;  // max hits < buffer, never truncates

struct alignas(si::util::kLineSize) VersionCell {
  std::uint64_t v = 0;
};

struct Update {
  std::uint64_t ver = 0;
  bool is_put = false;
  std::uint64_t key = 0;
  std::uint64_t val = 0;
  bool result = false;
};

struct PointRead {
  std::uint64_t snap = 0;
  std::uint64_t key = 0;
  std::uint64_t val = 0;
  bool found = false;
};

struct Scan {
  std::uint64_t snap = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::vector<RangeEntry> hits;
};

struct ThreadLog {
  std::vector<Update> updates;
  std::vector<PointRead> reads;
  std::vector<Scan> scans;
};

template <typename Map>
void worker(si::runtime::Runtime& rt, Map& map, VersionCell& ver, int tid,
            std::uint64_t seed, typename Map::Pool& pool, ThreadLog& log) {
  rt.register_thread(tid);
  si::util::Xoshiro256 rng(seed ^ (0xABCDEFULL * (tid + 1)));
  typename Map::ScratchT scratch(pool);
  RangeEntry buf[64];
  for (int i = 0; i < kOpsPerThread; ++i) {
    const std::uint64_t d = rng.below(100);
    const std::uint64_t key = 1 + rng.below(kKeySpace);
    if (d < 40) {
      PointRead r;
      r.key = key;
      rt.execute(true, [&](auto& tx) {
        r.snap = tx.read(&ver.v);
        r.val = 0;
        r.found = map.lookup(tx, key, &r.val);
      });
      log.reads.push_back(r);
    } else if (d < 60) {
      Scan s;
      s.lo = key;
      s.hi = key + kScanWidth - 1;
      std::size_t n = 0;
      rt.execute(true, [&](auto& tx) {
        s.snap = tx.read(&ver.v);
        n = 0;
        map.range(tx, s.lo, s.hi, [&](std::uint64_t k, std::uint64_t v) {
          buf[n++] = RangeEntry{k, v};
          return n < 64;
        });
      });
      s.hits.assign(buf, buf + n);
      log.scans.push_back(s);
    } else {
      Update u;
      u.is_put = d < 80;
      u.key = key;
      u.val = rng() | 1;
      typename Map::Node* unlinked = nullptr;
      rt.execute(false, [&](auto& tx) {
        scratch.reset();
        unlinked = nullptr;
        const std::uint64_t v0 = tx.read(&ver.v);
        tx.write(&ver.v, v0 + 1);
        u.ver = v0 + 1;
        u.result = u.is_put ? map.insert(tx, u.key, u.val, scratch)
                            : map.remove(tx, u.key, &unlinked);
      });
      scratch.settle();
      if (unlinked != nullptr) pool.retire(unlinked);
      pool.advance();
      log.updates.push_back(u);
    }
  }
}

template <typename Map>
void run_property(Backend backend, std::uint64_t seed) {
  si::runtime::Runtime rt({.backend = backend, .max_threads = kThreads});
  Map map;
  VersionCell ver;
  // Pools outlive the threads: their arenas own the nodes linked into the
  // shared map, which the post-join verification still traverses.
  std::vector<typename Map::Pool> pools(kThreads);
  std::vector<ThreadLog> logs(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back(
        [&, t] { worker(rt, map, ver, t, seed, pools[t], logs[t]); });
  for (auto& w : workers) w.join();

  // Updates must have dense unique versions 1..N (they serialize on the
  // version cell; a duplicate would be a first-committer-wins violation).
  std::vector<Update> updates;
  for (const auto& log : logs)
    updates.insert(updates.end(), log.updates.begin(), log.updates.end());
  std::sort(updates.begin(), updates.end(),
            [](const Update& a, const Update& b) { return a.ver < b.ver; });
  ASSERT_EQ(ver.v, updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i)
    ASSERT_EQ(updates[i].ver, i + 1) << "non-dense update versions";

  // Replay updates against the oracle, checking each linearized result.
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::vector<std::map<std::uint64_t, std::uint64_t>> states;
  states.reserve(updates.size() + 1);
  states.push_back(oracle);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    if (u.is_put) {
      const bool fresh = oracle.insert_or_assign(u.key, u.val).second;
      ASSERT_EQ(u.result, fresh) << "put #" << u.ver;
    } else {
      ASSERT_EQ(u.result, oracle.erase(u.key) > 0) << "del #" << u.ver;
    }
    states.push_back(oracle);
  }

  // Every read-only result must equal the oracle's answer at its snapshot.
  for (const auto& log : logs) {
    for (const auto& r : log.reads) {
      ASSERT_LE(r.snap, updates.size());
      const auto& st = states[r.snap];
      const auto it = st.find(r.key);
      ASSERT_EQ(r.found, it != st.end()) << "get at snapshot " << r.snap;
      if (r.found) {
        ASSERT_EQ(r.val, it->second);
      }
    }
    for (const auto& s : log.scans) {
      ASSERT_LE(s.snap, updates.size());
      const auto& st = states[s.snap];
      std::vector<RangeEntry> want;
      for (auto it = st.lower_bound(s.lo); it != st.end() && it->first <= s.hi;
           ++it)
        want.push_back({it->first, it->second});
      ASSERT_EQ(s.hits.size(), want.size()) << "scan at snapshot " << s.snap;
      for (std::size_t j = 0; j < want.size(); ++j) {
        ASSERT_EQ(s.hits[j].key, want[j].key);
        ASSERT_EQ(s.hits[j].value, want[j].value);
      }
    }
  }

  // Final state and invariants, after all threads quiesced.
  const auto dump = si::maps::map_dump(map);
  ASSERT_EQ(dump.size(), oracle.size());
  auto it = oracle.begin();
  for (std::size_t i = 0; i < dump.size(); ++i, ++it)
    ASSERT_EQ(dump[i].key, it->first);
  EXPECT_TRUE(map.structure_ok());
}

template <typename MapT>
class MapsPropertyTest : public ::testing::Test {};

using MapTypes =
    ::testing::Types<si::maps::SkipList, si::maps::Bst, si::maps::Btree>;
TYPED_TEST_SUITE(MapsPropertyTest, MapTypes);

TYPED_TEST(MapsPropertyTest, SiHtm) {
  run_property<TypeParam>(Backend::kSiHtm, 0x51);
}
TYPED_TEST(MapsPropertyTest, HtmSgl) {
  run_property<TypeParam>(Backend::kHtm, 0x52);
}
TYPED_TEST(MapsPropertyTest, P8tm) {
  run_property<TypeParam>(Backend::kP8tm, 0x53);
}
TYPED_TEST(MapsPropertyTest, Silo) {
  run_property<TypeParam>(Backend::kSilo, 0x54);
}

}  // namespace
