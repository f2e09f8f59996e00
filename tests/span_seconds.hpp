// Test helper: how long each named span of a recorded trace ran in total.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace luis::test {

/// Seconds per span name, summed over every B/E pair in `events` (as
/// obs::TraceSink::snapshot() returns them: grouped by thread, in record
/// order).
class SpanSeconds {
public:
  explicit SpanSeconds(const std::vector<obs::TraceEvent>& events) {
    std::map<std::uint32_t, std::vector<double>> open; // begin ts, by tid
    for (const obs::TraceEvent& ev : events) {
      if (ev.phase == 'B') {
        open[ev.tid].push_back(ev.ts_micros);
      } else if (ev.phase == 'E') {
        seconds_[ev.name] += (ev.ts_micros - open[ev.tid].back()) * 1e-6;
        ++count_[ev.name];
        open[ev.tid].pop_back();
      }
    }
  }

  /// Total seconds of the spans named `names`; 0 for names never seen.
  double operator()(std::initializer_list<const char*> names) const {
    double s = 0.0;
    for (const char* name : names) {
      const auto it = seconds_.find(name);
      if (it != seconds_.end()) s += it->second;
    }
    return s;
  }

  long count(const std::string& name) const {
    const auto it = count_.find(name);
    return it == count_.end() ? 0 : it->second;
  }

private:
  std::map<std::string, double> seconds_;
  std::map<std::string, long> count_;
};

} // namespace luis::test
