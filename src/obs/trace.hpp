// Trace spans: wall-clock attribution across the pipeline, the sweep
// driver's worker threads, the ILP solver, and the execution engines,
// emitted as Chrome trace-event JSON (open the file in Perfetto or
// chrome://tracing).
//
// Design. One process-global TraceSink; every thread appends to its own
// buffer (registered once, guarded by a per-buffer mutex that is only ever
// contended during a snapshot), so recording is lock-free with respect to
// other recording threads. When tracing is disabled — the default — the
// entire system is one relaxed atomic load per would-be span: TraceSpan
// constructors check tracing_enabled() before touching anything, and the
// lazy-args overload never invokes its argument builder. Instrumentation
// is therefore safe to leave in hot paths.
//
// Timing. A span given a TimeSink is also LUIS's one stopwatch: it reads
// the clock once on entry and once on exit, traced or not, and from those
// two reads it writes the caller's seconds slot, feeds an optional
// histogram and stamps its B/E events. A reported duration and its span
// are thus the same interval, so stage totals reconcile with the trace.
//
// Event model. Spans are B/E ("duration") pairs on the recording thread's
// timeline; instant events ("i", thread-scoped) mark points like branch &
// bound incumbents. Timestamps are steady-clock microseconds relative to
// the moment tracing started, so they are monotonic per thread. Thread ids
// are small integers assigned at first use and never reused.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace luis::obs {

using Clock = std::chrono::steady_clock;

class Histogram; // obs/metrics.hpp

/// Fast global tracing switch. Mirrors TraceSink::start()/stop().
extern std::atomic<bool> g_tracing_enabled;

inline bool tracing_enabled() {
  // Acquire pairs with the release store in TraceSink::start() so a thread
  // that observes "enabled" also observes the new timestamp origin.
  return g_tracing_enabled.load(std::memory_order_acquire);
}

struct TraceEvent {
  char phase = 'B';       ///< 'B', 'E', or 'i'
  double ts_micros = 0.0; ///< relative to TraceSink::start()
  std::uint32_t tid = 0;
  std::string name;
  std::string cat;
  std::string args_json; ///< rendered JSON object text, or empty
};

class TraceSink {
public:
  /// Clears previous events and begins recording (timestamps restart at 0).
  void start();
  /// Stops recording. Spans already open still emit their E event so the
  /// written trace stays balanced.
  void stop();

  /// Appends an event stamped `at` on the calling thread's buffer.
  /// `phase` 'B'/'E'/'i'.
  void emit(char phase, Clock::time_point at, std::string name,
            std::string cat, std::string args_json);

  /// Snapshot of every recorded event, ordered by (tid, record order).
  std::vector<TraceEvent> snapshot() const;
  std::size_t event_count() const;
  void clear();

  /// The full trace document: {"build": ..., "traceEvents": [...]}.
  std::string to_json() const;
  /// Writes to_json() to `path`; false (with errno intact) on I/O failure.
  bool write_file(const std::string& path) const;

private:
  struct ThreadBuffer {
    mutable std::mutex mutex;
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  ThreadBuffer& local_buffer();

  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint32_t> next_tid_{1};
  Clock::time_point origin_{};
};

/// The process-global sink behind tracing_enabled().
TraceSink& trace();

/// Tiny builder for span/instant args: obs::Args().str("kernel", k).num(
/// "nodes", n).done() renders {"kernel":"...","nodes":123}. Only build
/// args inside a tracing_enabled() check or a lazy-args lambda.
class Args {
public:
  Args& str(std::string_view key, std::string_view value);
  Args& num(std::string_view key, double value);
  Args& num(std::string_view key, long value);
  Args& num(std::string_view key, std::size_t value)
  { return num(key, static_cast<long>(value)); }
  Args& num(std::string_view key, int value)
  { return num(key, static_cast<long>(value)); }
  Args& boolean(std::string_view key, bool value);
  std::string done();

private:
  void sep();
  std::string s_ = "{";
};

/// Thread-scoped instant event (no-op when tracing is disabled).
void instant(const char* name, const char* cat, std::string args_json = {});

/// Where a timed span reports its interval besides the trace: the caller's
/// seconds slot, and optionally a histogram that observes the same value.
struct TimeSink {
  double* seconds = nullptr;
  Histogram* histogram = nullptr;
};

/// RAII duration span: emits B at construction, E at destruction. Without a
/// TimeSink, all constructors are no-ops when tracing is disabled. With
/// one, the span times its interval whether or not tracing is on, and end()
/// writes the duration to the sink.
class TraceSpan {
public:
  TraceSpan() = default;
  TraceSpan(const char* name, const char* cat, TimeSink sink = {})
      : timed_(sink.seconds || sink.histogram), sink_(sink) {
    if (tracing_enabled()) begin(name, cat, {});
    else if (timed_) start_ = Clock::now();
  }
  /// Lazy args: `make_args` (returning the rendered args object) only runs
  /// when tracing is enabled, so hot paths never pay for string building.
  template <typename F,
            typename = decltype(std::declval<F&>()())>
  TraceSpan(const char* name, const char* cat, F&& make_args,
            TimeSink sink = {})
      : timed_(sink.seconds || sink.histogram), sink_(sink) {
    if (tracing_enabled()) begin(name, cat, make_args());
    else if (timed_) start_ = Clock::now();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { end(); }

  /// Closes the span early (idempotent). Call it before returning a value
  /// that owns the sink's seconds slot.
  void end() {
    if (live_ || timed_) finish();
  }
  bool live() const { return live_; }

private:
  void begin(const char* name, const char* cat, std::string args_json);
  void finish();

  bool live_ = false;  ///< B emitted, E owed
  bool timed_ = false; ///< the sink is still owed the duration
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  TimeSink sink_;
  Clock::time_point start_{};
};

} // namespace luis::obs
