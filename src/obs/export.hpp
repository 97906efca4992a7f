// Trace exporters and offline summaries.
//
// write_chrome_trace() renders a drained Tracer as Chrome `trace_event` JSON
// (the legacy format both chrome://tracing and Perfetto load): transactions
// and safety waits become duration spans ("B"/"E", which viewers require to
// nest per thread — guaranteed here because the wait span lives strictly
// inside its transaction span), everything else becomes thread-scoped
// instants. Timestamps are microseconds as mandated by the format; ours are
// ns, so values divide by 1e3 (virtual ns under the sim — the viewer
// timeline then reads as virtual time).
//
// The ring buffer keeps only the newest records, so a drained stream may
// start mid-transaction (enter/begin overwritten) or end mid-transaction
// (the run was cut off). The writer skips closes with no matching open and
// force-closes still-open spans at the thread's last timestamp, so the
// output is always balanced — scripts/check_trace.py asserts exactly that.
//
// summarize_trace() computes what the si_trace CLI prints: top-N longest
// safety waits, an abort-cause timeline (fixed wall/virtual-time buckets),
// and per-thread utilisation (fraction of traced time inside committed
// transaction spans).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/taxonomy.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace si::obs {

inline std::string_view path_name(std::uint32_t begin_arg) noexcept {
  if (begin_arg & kBeginSgl) return "sgl";
  if (begin_arg & kBeginRo) return "ro";
  return "hw";
}

// --- Chrome trace_event export ----------------------------------------------

namespace detail {

inline void meta_event(si::util::JsonWriter& w, std::string_view name, int tid,
                       std::string_view value) {
  w.begin_object();
  w.key("name"); w.value(name);
  w.key("ph"); w.value("M");
  w.key("pid"); w.value(0);
  w.key("tid"); w.value(tid);
  w.key("args");
  w.begin_object();
  w.key("name"); w.value(value);
  w.end_object();
  w.end_object();
}

inline void event_head(si::util::JsonWriter& w, std::string_view name,
                       std::string_view ph, int tid, double ts_ns) {
  w.begin_object();
  w.key("name"); w.value(name);
  w.key("ph"); w.value(ph);
  w.key("pid"); w.value(0);
  w.key("tid"); w.value(tid);
  w.key("ts"); w.value(ts_ns / 1e3);
}

inline void instant(si::util::JsonWriter& w, std::string_view name, int tid,
                    double ts_ns, std::uint64_t epoch, std::string_view akey,
                    std::uint64_t aval, std::string_view bkey = {},
                    std::uint64_t bval = 0) {
  event_head(w, name, "i", tid, ts_ns);
  w.key("s"); w.value("t");
  w.key("args");
  w.begin_object();
  w.key("epoch"); w.value(epoch);
  if (!akey.empty()) { w.key(akey); w.value(aval); }
  if (!bkey.empty()) { w.key(bkey); w.value(bval); }
  w.end_object();
  w.end_object();
}

}  // namespace detail

inline void write_chrome_trace(std::ostream& os, const Tracer& tracer,
                               std::string_view process_name = "si") {
  using detail::event_head;
  using detail::instant;
  si::util::JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  detail::meta_event(w, "process_name", 0, process_name);

  for (int tid = 0; tid < tracer.threads(); ++tid) {
    const auto recs = tracer.drain(tid);
    if (recs.empty()) continue;
    detail::meta_event(w, "thread_name", tid,
                       "worker " + std::to_string(tid));

    bool tx_open = false;
    bool wait_open = false;
    double last_ts = recs.back().ts_ns;

    auto close_wait = [&](double ts) {
      event_head(w, "safety-wait", "E", tid, ts);
      w.end_object();
      wait_open = false;
    };
    auto close_tx = [&](double ts, std::string_view outcome,
                        std::string_view cause, std::uint64_t attempts) {
      if (wait_open) close_wait(ts);
      event_head(w, "tx", "E", tid, ts);
      w.key("args");
      w.begin_object();
      w.key("outcome"); w.value(outcome);
      if (!cause.empty()) { w.key("cause"); w.value(cause); }
      if (attempts > 0) { w.key("attempts"); w.value(attempts); }
      w.end_object();
      w.end_object();
      tx_open = false;
    };

    for (const auto& r : recs) {
      switch (r.kind) {
        case TraceEventKind::kBegin:
          // A begin while a span is open means the close fell off the ring.
          if (tx_open) close_tx(r.ts_ns, "truncated", {}, 0);
          event_head(w, "tx", "B", tid, r.ts_ns);
          w.key("args");
          w.begin_object();
          w.key("epoch"); w.value(r.epoch);
          w.key("path"); w.value(path_name(r.arg));
          w.end_object();
          w.end_object();
          tx_open = true;
          break;
        case TraceEventKind::kCommit:
          if (tx_open) close_tx(r.ts_ns, "commit", {}, r.arg);
          break;
        case TraceEventKind::kAbort:
          if (tx_open) {
            close_tx(r.ts_ns, "abort",
                     to_string(static_cast<si::util::AbortCause>(r.arg)), 0);
          }
          break;
        case TraceEventKind::kSafetyWaitEnter:
          if (tx_open && !wait_open) {
            event_head(w, "safety-wait", "B", tid, r.ts_ns);
            w.key("args");
            w.begin_object();
            w.key("epoch"); w.value(r.epoch);
            w.key("stragglers"); w.value(std::uint64_t{r.arg});
            w.end_object();
            w.end_object();
            wait_open = true;
          }
          break;
        case TraceEventKind::kSafetyWaitExit:
          if (wait_open) close_wait(r.ts_ns);
          break;
        case TraceEventKind::kSuspend:
          instant(w, "suspend", tid, r.ts_ns, r.epoch, {}, 0);
          break;
        case TraceEventKind::kResume:
          instant(w, "resume", tid, r.ts_ns, r.epoch, {}, 0);
          break;
        case TraceEventKind::kStragglerRetire:
          instant(w, "straggler-retire", tid, r.ts_ns, r.epoch, "straggler",
                  r.arg);
          break;
        case TraceEventKind::kSglAcquire:
          instant(w, "sgl-acquire", tid, r.ts_ns, r.epoch, {}, 0);
          break;
        case TraceEventKind::kSglDrainDone:
          instant(w, "sgl-drain-done", tid, r.ts_ns, r.epoch, {}, 0);
          break;
        case TraceEventKind::kSglWait:
          instant(w, "sgl-wait", tid, r.ts_ns, r.epoch, {}, 0);
          break;
        case TraceEventKind::kSglWake:
          instant(w, "sgl-wake", tid, r.ts_ns, r.epoch, "wakeups", r.arg);
          break;
        case TraceEventKind::kHwRollback:
          instant(w, "hw-rollback", tid, r.ts_ns, r.epoch, "cause",
                  r.arg >> 16);
          break;
        case TraceEventKind::kHwKill:
          instant(w, "hw-kill", tid, r.ts_ns, r.epoch, "victim", r.arg);
          break;
        case TraceEventKind::kReqDequeue:
          instant(w, "req-dequeue", tid, r.ts_ns, r.epoch, "depth", r.arg);
          break;
        case TraceEventKind::kReqComplete:
          // arg packs (app opcode << 8) | status; render both.
          instant(w, "req-complete", tid, r.ts_ns, r.epoch, "status",
                  r.arg & 0xFF, "op", r.arg >> 8);
          break;
        default:
          break;
      }
    }
    if (tx_open) close_tx(last_ts, "truncated", {}, 0);
  }

  w.end_array();
  w.key("displayTimeUnit"); w.value("ns");
  w.end_object();
}

// --- offline summary ---------------------------------------------------------

struct WaitSpan {
  int tid = -1;
  std::uint64_t epoch = 0;
  double start_ns = 0.0;
  double dur_ns = 0.0;
  std::uint32_t stragglers = 0;
};

struct ThreadUtilisation {
  int tid = -1;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  double tx_ns = 0.0;    ///< time inside transaction spans (any outcome)
  double wait_ns = 0.0;  ///< time inside safety-wait spans
};

struct TraceSummary {
  static constexpr int kTimelineBuckets = 20;

  double t_min_ns = 0.0;
  double t_max_ns = 0.0;
  std::vector<WaitSpan> top_waits;  ///< longest first
  /// abort_timeline[bucket][cause]: aborts whose timestamp falls in the
  /// bucket, by AbortCause.
  std::vector<std::array<std::uint64_t,
                         static_cast<int>(si::util::AbortCause::kCauseCount_)>>
      abort_timeline;
  std::vector<ThreadUtilisation> threads;
  /// Abort taxonomy derived from the trace stream, indexed by
  /// TaxonomyCounter — the same breakdown the live /metrics endpoint
  /// exports, so offline traces and live scrapes diff cleanly. Only the
  /// trace-derivable counters populate: shared-ro-admit is a metrics-only
  /// hook (it emits no trace event by design) and stays 0.
  std::array<std::uint64_t, kTaxonomyCounters> taxonomy{};
};

inline TraceSummary summarize_trace(const Tracer& tracer, int top_n = 10) {
  TraceSummary s;
  s.abort_timeline.resize(TraceSummary::kTimelineBuckets);

  struct AbortAt {
    double ts = 0.0;
    std::uint32_t cause = 0;
  };
  std::vector<AbortAt> aborts;
  std::vector<WaitSpan> waits;
  bool any = false;

  for (int tid = 0; tid < tracer.threads(); ++tid) {
    const auto recs = tracer.drain(tid);
    if (recs.empty()) continue;
    ThreadUtilisation u;
    u.tid = tid;
    u.events = recs.size();
    u.dropped = tracer.dropped(tid);
    double tx_begin = -1.0;
    WaitSpan open_wait;
    bool wait_open = false;
    for (const auto& r : recs) {
      if (!any || r.ts_ns < s.t_min_ns) s.t_min_ns = any ? std::min(s.t_min_ns, r.ts_ns) : r.ts_ns;
      if (!any || r.ts_ns > s.t_max_ns) s.t_max_ns = any ? std::max(s.t_max_ns, r.ts_ns) : r.ts_ns;
      any = true;
      switch (r.kind) {
        case TraceEventKind::kBegin:
          tx_begin = r.ts_ns;
          break;
        case TraceEventKind::kCommit:
          ++u.commits;
          if (tx_begin >= 0) u.tx_ns += r.ts_ns - tx_begin;
          tx_begin = -1.0;
          break;
        case TraceEventKind::kAbort:
          ++u.aborts;
          if (tx_begin >= 0) u.tx_ns += r.ts_ns - tx_begin;
          tx_begin = -1.0;
          aborts.push_back({r.ts_ns, r.arg});
          if (r.arg <
              static_cast<std::uint32_t>(si::util::AbortCause::kCauseCount_)) {
            ++s.taxonomy[static_cast<int>(
                taxonomy_of(static_cast<si::util::AbortCause>(r.arg)))];
          }
          break;
        case TraceEventKind::kSglAcquire:
          ++s.taxonomy[static_cast<int>(TaxonomyCounter::kSglFallback)];
          break;
        case TraceEventKind::kHwKill:
          ++s.taxonomy[static_cast<int>(TaxonomyCounter::kHwKillInit)];
          break;
        case TraceEventKind::kSafetyWaitEnter:
          open_wait = {tid, r.epoch, r.ts_ns, 0.0, r.arg};
          wait_open = true;
          break;
        case TraceEventKind::kSafetyWaitExit:
          if (wait_open) {
            open_wait.dur_ns = r.ts_ns - open_wait.start_ns;
            u.wait_ns += open_wait.dur_ns;
            waits.push_back(open_wait);
            wait_open = false;
          }
          break;
        default:
          break;
      }
    }
    s.threads.push_back(u);
  }

  std::sort(waits.begin(), waits.end(), [](const WaitSpan& a, const WaitSpan& b) {
    if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.start_ns < b.start_ns;
  });
  if (static_cast<int>(waits.size()) > top_n) waits.resize(top_n);
  s.top_waits = std::move(waits);

  const double span = s.t_max_ns - s.t_min_ns;
  for (const auto& a : aborts) {
    int b = span > 0 ? static_cast<int>((a.ts - s.t_min_ns) / span *
                                        TraceSummary::kTimelineBuckets)
                     : 0;
    if (b >= TraceSummary::kTimelineBuckets) b = TraceSummary::kTimelineBuckets - 1;
    if (a.cause < static_cast<std::uint32_t>(si::util::AbortCause::kCauseCount_)) {
      ++s.abort_timeline[b][a.cause];
    }
  }
  return s;
}

inline void print_summary(std::ostream& os, const TraceSummary& s) {
  os << "trace span: " << (s.t_max_ns - s.t_min_ns) / 1e6 << " ms ("
     << s.t_min_ns << " .. " << s.t_max_ns << " ns)\n";

  os << "\nper-thread utilisation:\n";
  os << "  tid   events  dropped  commits   aborts   tx-time%  wait-time%\n";
  const double span = s.t_max_ns - s.t_min_ns;
  for (const auto& u : s.threads) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %3d %8llu %8llu %8llu %8llu   %7.2f%%    %7.2f%%\n",
                  u.tid, static_cast<unsigned long long>(u.events),
                  static_cast<unsigned long long>(u.dropped),
                  static_cast<unsigned long long>(u.commits),
                  static_cast<unsigned long long>(u.aborts),
                  span > 0 ? 100.0 * u.tx_ns / span : 0.0,
                  span > 0 ? 100.0 * u.wait_ns / span : 0.0);
    os << line;
  }

  os << "\ntop safety waits:\n";
  if (s.top_waits.empty()) os << "  (none recorded)\n";
  for (const auto& wsp : s.top_waits) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  tid %3d epoch %8llu  start %14.0f ns  dur %12.0f ns"
                  "  stragglers %u\n",
                  wsp.tid, static_cast<unsigned long long>(wsp.epoch),
                  wsp.start_ns, wsp.dur_ns, wsp.stragglers);
    os << line;
  }

  // Same labels as the live endpoint's si_tx_aborts_total family, so a
  // post-hoc trace summary lines up column-for-column with a scrape.
  std::uint64_t taxonomy_total = 0;
  for (const std::uint64_t n : s.taxonomy) taxonomy_total += n;
  os << "\nabort taxonomy (live-endpoint labels):\n";
  if (taxonomy_total == 0) os << "  (no aborts or fall-backs recorded)\n";
  for (int i = 0; i < kTaxonomyCounters; ++i) {
    if (s.taxonomy[i] == 0) continue;
    os << "  " << to_string(static_cast<TaxonomyCounter>(i)) << ": "
       << s.taxonomy[i] << '\n';
  }

  os << "\nabort-cause timeline (" << TraceSummary::kTimelineBuckets
     << " buckets):\n";
  constexpr int kCauses = static_cast<int>(si::util::AbortCause::kCauseCount_);
  for (int c = 1; c < kCauses; ++c) {  // skip kNone
    std::uint64_t total = 0;
    for (const auto& b : s.abort_timeline) total += b[c];
    if (total == 0) continue;
    os << "  " << to_string(static_cast<si::util::AbortCause>(c)) << " (" << total
       << "): ";
    for (const auto& b : s.abort_timeline) {
      const std::uint64_t n = b[c];
      os << (n == 0 ? '.' : n < 10 ? static_cast<char>('0' + n) : '#');
    }
    os << '\n';
  }
}

}  // namespace si::obs
