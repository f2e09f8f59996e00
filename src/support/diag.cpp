#include "support/diag.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace luis {

namespace {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::Info)};

// One lock around the stderr write so concurrent workers emit whole lines.
std::mutex& log_mutex() {
  static std::mutex m;
  return m;
}

} // namespace

[[noreturn]] void fatal_error(const char* file, int line, const std::string& msg) {
  std::fprintf(stderr, "luis fatal error at %s:%d: %s\n", file, line, msg.c_str());
  std::fflush(stderr);
  std::abort();
}

[[noreturn]] void assert_fail(const char* file, int line, const char* expr,
                              const std::string& msg) {
  std::fprintf(stderr, "luis assertion failed at %s:%d: (%s) %s\n", file, line,
               expr, msg.c_str());
  std::fflush(stderr);
  std::abort();
}

const char* to_string(LogLevel level) {
  switch (level) {
  case LogLevel::Error: return "error";
  case LogLevel::Warn: return "warn";
  case LogLevel::Info: return "info";
  case LogLevel::Debug: return "debug";
  }
  return "?";
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "error") return LogLevel::Error;
  if (name == "warn" || name == "warning") return LogLevel::Warn;
  if (name == "info") return LogLevel::Info;
  if (name == "debug") return LogLevel::Debug;
  return std::nullopt;
}

void set_log_level(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) <=
         g_log_level.load(std::memory_order_relaxed);
}

void log_message(LogLevel level, const std::string& msg) {
  if (!log_enabled(level)) return;
  std::string line = "[";
  line += to_string(level);
  line += "] ";
  line += msg;
  if (line.empty() || line.back() != '\n') line += '\n';
  std::lock_guard<std::mutex> lock(log_mutex());
  std::fputs(line.c_str(), stderr);
}

} // namespace luis
