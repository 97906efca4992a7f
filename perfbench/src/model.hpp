// Per-key response oracle.
//
// Keys are partitioned across client connections and a key always routes to
// one shard, so all operations on a key travel one connection and execute in
// send order on one worker. The client therefore applies each operation to
// the model when it sends it and knows the exact response to expect.
//
// The models start from the seeded state the apps build: KvModel reads it
// out of a private KvApp, MapModel derives it from maps::map_seed's key
// formula.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "maps/maps.hpp"
#include "serve/kv_app.hpp"
#include "serve/map_app.hpp"

namespace perfbench {

/// KvApp over the chained hash map. HashMap::seed prepends without a
/// duplicate check, so a key drawn twice at seeding holds a stack of nodes:
/// get and put see the newest, del unlinks it and uncovers the next. The
/// initial stacks are read out of a private, identically seeded KvApp by
/// unlinking every node through the map's own remove() outside any
/// transaction.
class KvModel {
 public:
  static constexpr std::uint64_t kMinKey = 0;

  explicit KvModel(const si::serve::KvAppConfig& cfg)
      : stacks_(cfg.key_space), taint_(cfg.key_space, 0) {
    si::serve::KvApp seeded(cfg, 1);
    si::maps::DirectTx tx;
    for (std::uint64_t key = 0; key < cfg.key_space; ++key) {
      auto& s = stacks_[key];
      si::hashmap::Node* node = nullptr;
      while (seeded.map().remove(tx, key, &node)) s.push_back(node->value);
      std::reverse(s.begin(), s.end());  // newest last
    }
  }

  std::uint64_t max_key() const noexcept { return stacks_.size() - 1; }

  std::uint64_t get(std::uint64_t key) const {
    const auto& s = stacks_[key];
    return s.empty() ? 0 : s.back();
  }

  /// Applies one operation and returns the response value it must produce.
  std::uint64_t apply(std::uint16_t op, std::uint64_t key, std::uint64_t arg) {
    auto& s = stacks_[key];
    switch (op) {
      case si::serve::KvApp::kPut:
        if (s.empty()) {
          s.push_back(arg);
          return 1;
        }
        s.back() = arg;
        return 0;
      case si::serve::KvApp::kDel:
        if (s.empty()) return 0;
        s.pop_back();
        return 1;
      default:
        return get(key);
    }
  }

  std::uint64_t range(std::uint64_t, std::uint64_t) const { return 0; }

  void taint(std::uint64_t key) { taint_[key] = 1; }
  bool tainted(std::uint64_t key) const { return taint_[key] != 0; }

 private:
  std::vector<std::vector<std::uint64_t>> stacks_;
  std::vector<std::uint8_t> taint_;
};

/// MapApp over an ordered map: one value per key, 0 = absent (seeded values
/// are key * 3 and the client never writes 0).
template <typename Map>
class MapModel {
 public:
  static constexpr std::uint64_t kMinKey = 1;

  explicit MapModel(const si::serve::MapAppConfig& cfg)
      : vals_(cfg.key_space + 1, 0), taint_(cfg.key_space + 1, 0),
        cap_(cfg.scan_cap) {
    for (std::uint64_t i = 0; i < cfg.seed_elements; ++i) {
      const std::uint64_t key = 1 + si::maps::mix64(cfg.seed + i) % cfg.key_space;
      vals_[key] = key * 3;
    }
  }

  std::uint64_t max_key() const noexcept { return vals_.size() - 1; }

  std::uint64_t get(std::uint64_t key) const { return vals_[key]; }

  std::uint64_t apply(std::uint16_t op, std::uint64_t key, std::uint64_t arg) {
    std::uint64_t& v = vals_[key];
    switch (op) {
      case si::serve::MapOps::kPut: {
        const std::uint64_t linked = v == 0 ? 1 : 0;
        v = arg;
        return linked;
      }
      case si::serve::MapOps::kDel: {
        const std::uint64_t found = v != 0 ? 1 : 0;
        v = 0;
        return found;
      }
      case si::serve::MapOps::kRange:
        return range(key, arg);
      default:
        return v;
    }
  }

  /// The wire value of a range [lo, hi]: (hits << 32) | low 32 bits of
  /// MapApp's checksum over the first scan_cap hits in key order.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) const {
    std::vector<si::maps::RangeEntry> hits;
    hits.reserve(cap_);
    for (std::uint64_t k = lo; k <= hi && k < vals_.size() && hits.size() < cap_;
         ++k) {
      if (vals_[k] != 0) hits.push_back(si::maps::RangeEntry{k, vals_[k]});
    }
    const std::uint64_t sum =
        si::serve::MapApp<Map>::checksum(hits.data(), hits.size());
    return (static_cast<std::uint64_t>(hits.size()) << 32) |
           (sum & 0xFFFFFFFFULL);
  }

  void taint(std::uint64_t key) { taint_[key] = 1; }
  bool tainted(std::uint64_t key) const { return taint_[key] != 0; }

 private:
  std::vector<std::uint64_t> vals_;
  std::vector<std::uint8_t> taint_;
  std::size_t cap_;
};

}  // namespace perfbench
