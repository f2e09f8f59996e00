#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {
namespace {

using Interval = std::pair<double, double>;

/// Total length of the union of `intervals`, clipped to [lo, hi].
double covered(std::vector<Interval> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0, cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (auto [b, e] : intervals) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (e <= b) continue;
    if (open && b <= cur_hi) {
      cur_hi = std::max(cur_hi, e);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = b;
    cur_hi = e;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::size_t layer_index(const std::string& name) {
  const auto it = std::find_if(kLayerNames.begin(), kLayerNames.end(),
                               [&name](const char* n) { return name == n; });
  return static_cast<std::size_t>(it - kLayerNames.begin());
}

} // namespace

PassBreakdown breakdown(const std::vector<luis::obs::TraceEvent>& events,
                        double wall_ms) {
  struct Open {
    std::size_t layer;
    double begin_us, child_us;
  };
  struct Phase {
    double begin_us, end_us;
    int threads;
  };
  PassBreakdown out;
  out.wall_ms = wall_ms;
  const double end_us = 1e3 * wall_ms;
  std::vector<double> self_us(kLayerCount, 0.0);
  std::map<std::uint32_t, std::vector<Interval>> top_of; // by thread
  std::vector<Phase> phases;
  // Events come grouped by thread in record order, and spans are RAII on
  // one thread, so one stack suffices: it is empty between threads.
  std::vector<Open> stack;
  for (const luis::obs::TraceEvent& ev : events) {
    if (ev.cat == kPhaseCategory) {
      if (ev.phase == 'B') {
        int threads = 1;
        std::sscanf(ev.args_json.c_str(), "{\"threads\":%d}", &threads);
        phases.push_back({ev.ts_micros, end_us, std::max(1, threads)});
      } else if (ev.phase == 'E') {
        phases.back().end_us = ev.ts_micros;
      }
      continue;
    }
    if (ev.cat != kLayerCategory) continue;
    if (ev.phase == 'B') {
      stack.push_back({layer_index(ev.name), ev.ts_micros, 0.0});
      continue;
    }
    const Open o = stack.back();
    stack.pop_back();
    const double duration = ev.ts_micros - o.begin_us;
    if (o.layer < kLayerCount) self_us[o.layer] += duration - o.child_us;
    if (stack.empty())
      top_of[ev.tid].emplace_back(o.begin_us, ev.ts_micros);
    else
      stack.back().child_us += duration;
  }

  for (std::size_t l = 0; l < kLayerCount; ++l) out.self_ms[l] = 1e-3 * self_us[l];
  std::vector<Interval> all_top;
  for (const auto& [tid, top] : top_of) all_top.insert(all_top.end(), top.begin(), top.end());
  out.unattributed_ms = 1e-3 * (end_us - covered(all_top, 0.0, end_us));
  for (const Phase& p : phases) {
    double busy = 0.0;
    for (const auto& [tid, top] : top_of) busy += covered(top, p.begin_us, p.end_us);
    out.idle_ms += 1e-3 * std::max(0.0, p.threads * (p.end_us - p.begin_us) - busy);
  }
  return out;
}

} // namespace perfbench
