#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"

namespace luis::obs {

std::atomic<bool> g_tracing_enabled{false};

TraceSink& trace() {
  static TraceSink sink;
  return sink;
}

TraceSink::ThreadBuffer& TraceSink::local_buffer() {
  // One buffer per OS thread, owned jointly by the thread and the sink's
  // registry: the registry keeps events alive after the thread exits, the
  // thread-local keeps the pointer stable while the thread records.
  thread_local std::shared_ptr<ThreadBuffer> tl;
  if (!tl) {
    tl = std::make_shared<ThreadBuffer>();
    tl->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers_.push_back(tl);
  }
  return *tl;
}

void TraceSink::start() {
  clear();
  origin_ = Clock::now();
  g_tracing_enabled.store(true, std::memory_order_release);
}

void TraceSink::stop() {
  g_tracing_enabled.store(false, std::memory_order_relaxed);
}

void TraceSink::emit(char phase, Clock::time_point at, std::string name,
                     std::string cat, std::string args_json) {
  const double ts =
      std::chrono::duration<double, std::micro>(at - origin_).count();
  ThreadBuffer& buf = local_buffer();
  TraceEvent ev;
  ev.phase = phase;
  ev.ts_micros = ts;
  ev.tid = buf.tid;
  ev.name = std::move(name);
  ev.cat = std::move(cat);
  ev.args_json = std::move(args_json);
  // Uncontended except while a snapshot copies this buffer.
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(std::move(ev));
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers = buffers_;
  }
  std::stable_sort(buffers.begin(), buffers.end(),
                   [](const auto& a, const auto& b) { return a->tid < b->tid; });
  std::vector<TraceEvent> out;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

std::size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> b(buf->mutex);
    n += buf->events.size();
  }
  return n;
}

void TraceSink::clear() {
  // Buffers stay registered (live thread-locals still point at them);
  // only their contents are dropped.
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> b(buf->mutex);
    buf->events.clear();
  }
}

std::string TraceSink::to_json() const {
  const std::vector<TraceEvent> events = snapshot();
  JsonWriter w;
  w.begin_object();
  w.newline();
  w.key("build");
  w.raw_value(build_info_json());
  w.newline();
  w.key("displayTimeUnit");
  w.value("ms");
  w.newline();
  w.key("traceEvents");
  w.begin_array();
  w.newline();
  for (const TraceEvent& ev : events) {
    w.begin_object();
    w.key("name");
    w.value(ev.name);
    w.key("cat");
    w.value(ev.cat.empty() ? std::string_view("luis")
                           : std::string_view(ev.cat));
    w.key("ph");
    w.value(std::string_view(&ev.phase, 1));
    if (ev.phase == 'i') {
      w.key("s");
      w.value("t"); // thread-scoped instant
    }
    w.key("ts");
    w.value(ev.ts_micros, "%.3f");
    w.key("pid");
    w.value(1L);
    w.key("tid");
    w.value(static_cast<long>(ev.tid));
    if (!ev.args_json.empty()) {
      w.key("args");
      w.raw_value(ev.args_json);
    }
    w.end_object();
    w.newline();
  }
  w.end_array();
  w.newline();
  w.end_object();
  w.newline();
  return w.take();
}

bool TraceSink::write_file(const std::string& path) const {
  const std::string json = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void Args::sep() {
  if (s_.size() > 1) s_ += ',';
}

Args& Args::str(std::string_view key, std::string_view value) {
  sep();
  s_ += '"';
  s_ += json_escape(key);
  s_ += "\":\"";
  s_ += json_escape(value);
  s_ += '"';
  return *this;
}

Args& Args::num(std::string_view key, double value) {
  sep();
  s_ += '"';
  s_ += json_escape(key);
  s_ += "\":";
  // JSON has no literal for inf/nan (B&B roots carry a -inf bound);
  // render non-finite values as strings so the document stays parseable.
  if (std::isfinite(value))
    s_ += format_string("%.17g", value);
  else
    s_ += value != value ? "\"nan\"" : (value > 0 ? "\"inf\"" : "\"-inf\"");
  return *this;
}

Args& Args::num(std::string_view key, long value) {
  sep();
  s_ += '"';
  s_ += json_escape(key);
  s_ += "\":";
  s_ += format_string("%ld", value);
  return *this;
}

Args& Args::boolean(std::string_view key, bool value) {
  sep();
  s_ += '"';
  s_ += json_escape(key);
  s_ += "\":";
  s_ += value ? "true" : "false";
  return *this;
}

std::string Args::done() {
  s_ += '}';
  return std::move(s_);
}

void instant(const char* name, const char* cat, std::string args_json) {
  if (!tracing_enabled()) return;
  trace().emit('i', Clock::now(), name, cat, std::move(args_json));
}

void TraceSpan::begin(const char* name, const char* cat,
                      std::string args_json) {
  live_ = true;
  name_ = name;
  cat_ = cat;
  start_ = Clock::now();
  trace().emit('B', start_, name_, cat_, std::move(args_json));
}

void TraceSpan::finish() {
  const Clock::time_point stop = Clock::now();
  // Emitted even if tracing stopped meanwhile, so B/E pairs stay balanced.
  if (live_) trace().emit('E', stop, name_, cat_, {});
  if (timed_) {
    const double seconds = std::chrono::duration<double>(stop - start_).count();
    if (sink_.seconds) *sink_.seconds = seconds;
    if (sink_.histogram) sink_.histogram->observe(seconds);
  }
  live_ = timed_ = false;
}

} // namespace luis::obs
