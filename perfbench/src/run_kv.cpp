// The two KvApp workloads: kv-read and kv-durable-write.
#include "runner.hpp"

namespace perfbench {

Result run_kv(const Options& opt) {
  const Workload& w = *opt.workload;
  si::serve::KvAppConfig cfg;
  cfg.buckets = w.buckets;
  cfg.seed_elements = w.seed_elements;
  cfg.key_space = w.key_space;
  cfg.seed = opt.seed;
  return Runner<si::serve::KvApp, KvModel>(opt, cfg).run();
}

}  // namespace perfbench
