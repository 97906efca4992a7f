// The MapApp workload over the skiplist: map-scan.
#include "runner.hpp"
#include "maps/skiplist.hpp"

namespace perfbench {

Result run_map(const Options& opt) {
  using Map = si::maps::SkipList;
  const Workload& w = *opt.workload;
  si::serve::MapAppConfig cfg;
  cfg.seed_elements = w.seed_elements;
  cfg.key_space = w.key_space;
  cfg.seed = opt.seed;
  cfg.scan_cap = w.scan_cap;
  return Runner<si::serve::MapApp<Map>, MapModel<Map>>(opt, cfg).run();
}

}  // namespace perfbench
