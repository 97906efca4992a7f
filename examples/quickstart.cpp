// Quickstart: the runtime API in ~60 lines.
//
// Builds a tiny bank, runs concurrent transfer transactions plus read-only
// audits on the SI-HTM runtime, and prints the statistics. Under snapshot
// isolation every audit sees a consistent total, and transfers (which write
// both accounts) behave serializably.
//
//   ./examples/quickstart [-threads N] [-ops N]
#include <cstdio>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

struct alignas(si::util::kLineSize) Account {
  std::uint64_t balance = 0;
};

}  // namespace

int main(int argc, char** argv) {
  si::util::Cli cli(argc, argv);
  const int n_threads = static_cast<int>(cli.get_int("threads", 4));
  const int ops = static_cast<int>(cli.get_int("ops", 20000));
  constexpr int kAccounts = 64;
  constexpr std::uint64_t kInitial = 1000;

  si::runtime::Runtime runtime(
      {.backend = si::runtime::Backend::kSiHtm, .max_threads = n_threads});

  std::vector<Account> accounts(kAccounts);
  for (auto& a : accounts) a.balance = kInitial;

  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      runtime.register_thread(t);
      si::util::Xoshiro256 rng(2026 + t);
      for (int i = 0; i < ops; ++i) {
        if (rng.percent(20)) {
          // Read-only audit: runs non-transactionally with unlimited
          // footprint and must always see the conserved total.
          std::uint64_t total = 0;
          runtime.execute(/*is_ro=*/true, [&](auto& tx) {
            total = 0;
            for (auto& a : accounts) total += tx.read(&a.balance);
          });
          if (total != kInitial * kAccounts) {
            std::fprintf(stderr, "audit saw torn total %llu!\n",
                         static_cast<unsigned long long>(total));
            std::exit(1);
          }
        } else {
          const int from = static_cast<int>(rng.below(kAccounts));
          const int to = static_cast<int>((from + 1 + rng.below(kAccounts - 1)) % kAccounts);
          runtime.execute(/*is_ro=*/false, [&](auto& tx) {
            const auto f = tx.read(&accounts[from].balance);
            const auto g = tx.read(&accounts[to].balance);
            tx.write(&accounts[from].balance, f - 1);
            tx.write(&accounts[to].balance, g + 1);
          });
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t total = 0, commits = 0, ro = 0, aborts = 0;
  for (auto& a : accounts) total += a.balance;
  for (const auto& st : runtime.thread_stats()) {
    commits += st.commits;
    ro += st.ro_commits;
    for (int i = 1; i < static_cast<int>(si::util::AbortCause::kCauseCount_); ++i) {
      aborts += st.aborts_by_cause[i];
    }
  }
  std::printf("quickstart: %d threads x %d ops\n", n_threads, ops);
  std::printf("  commits          : %llu (%llu read-only fast path)\n",
              static_cast<unsigned long long>(commits),
              static_cast<unsigned long long>(ro));
  std::printf("  hardware aborts  : %llu\n", static_cast<unsigned long long>(aborts));
  std::printf("  total balance    : %llu (expected %llu) -> %s\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(kInitial * kAccounts),
              total == kInitial * kAccounts ? "OK" : "CORRUPT");
  return total == kInitial * kAccounts ? 0 : 1;
}
