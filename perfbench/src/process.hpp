// Process- and host-level accounting: CPU time, context switches, peak RSS,
// the host's steal share from /proc/stat, and the host facts every result
// carries as provenance.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// Cumulative jiffies of all CPUs from /proc/stat: stolen, and in total.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

inline CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu == "cpu") {
    // user nice system idle iowait irq softirq steal ...
    std::uint64_t f[8] = {};
    for (auto& x : f) stat >> x;
    for (auto x : f) t.total += x;
    t.steal = f[7];
  }
  return t;
}

/// Share of all CPU time between `a` and `b` that the host stole.
inline double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0 : static_cast<double>(b.steal - a.steal) /
                              static_cast<double>(total);
}

struct ProcSample {
  double cpu_s = 0;         ///< user + system, whole process
  double client_cpu_s = 0;  ///< CPU clock of the calling (client) thread
  std::uint64_t ctx_switches = 0;
  CpuTicks ticks;
};

inline double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

inline ProcSample sample_process() {
  ProcSample s;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
  s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  s.client_cpu_s = static_cast<double>(ts.tv_sec) +
                   static_cast<double>(ts.tv_nsec) * 1e-9;
  s.ticks = cpu_ticks();
  return s;
}

inline double steal_frac(const ProcSample& a, const ProcSample& b) {
  return steal_share(a.ticks, b.ticks);
}

inline double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

inline std::string kernel_release() {
  utsname u{};
  if (::uname(&u) != 0) return "unknown";
  return u.release;
}

inline long online_cpus() { return ::sysconf(_SC_NPROCESSORS_ONLN); }

/// Thread ids of this process, ascending: threads created later have higher
/// ids unless the kernel's id counter wrapped.
inline std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(std::atol(e.path().filename().c_str()));
    if (tid > 0) ids.push_back(tid);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Ids in `after` that are not in `before` (both ascending).
inline std::vector<pid_t> new_threads(const std::vector<pid_t>& before,
                                      const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

/// The CPUs this process may run on.
inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Lets thread `tid` (0: the calling thread) run only on `cpus`.
inline bool pin_thread(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(tid, sizeof set, &set) == 0;
}

}  // namespace perfbench
