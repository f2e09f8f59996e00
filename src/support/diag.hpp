// Diagnostics: assertion/fatal-error helpers and the leveled logging
// facility used throughout LUIS.
//
// LUIS_ASSERT is an always-on invariant check (it is not compiled out in
// release builds): this is a compiler-style tool where silently corrupt IR
// or ILP models are far more expensive than the cost of a branch.
//
// Logging. All progress/diagnostic prints route through log_message(),
// which writes each line to stderr atomically (one locked fputs), so
// concurrent workers — and the trace/metrics writers — can never
// interleave-corrupt each other's lines. The global threshold is set by
// the CLI's --log-level flag; the LUIS_LOG_* macros evaluate their message
// expression only when the level is enabled.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace luis {

/// Prints `msg` with source location context and aborts.
[[noreturn]] void fatal_error(const char* file, int line, const std::string& msg);

/// Formats the failing expression and aborts. Used by LUIS_ASSERT.
[[noreturn]] void assert_fail(const char* file, int line, const char* expr,
                              const std::string& msg);

enum class LogLevel { Error = 0, Warn = 1, Info = 2, Debug = 3 };

const char* to_string(LogLevel level);

/// Parses "error"/"warn"/"info"/"debug"; nullopt for anything else.
std::optional<LogLevel> parse_log_level(std::string_view name);

/// Sets the global log threshold (default Info). Thread-safe.
void set_log_level(LogLevel level);

/// True when `level` passes the global threshold.
bool log_enabled(LogLevel level);

/// Writes "[level] msg\n" to stderr as one atomic line if `level` passes
/// the threshold. A trailing newline in `msg` is not required.
void log_message(LogLevel level, const std::string& msg);

} // namespace luis

#define LUIS_ASSERT(cond, msg)                                                 \
  do {                                                                         \
    if (!(cond)) ::luis::assert_fail(__FILE__, __LINE__, #cond, (msg));        \
  } while (0)

#define LUIS_FATAL(msg) ::luis::fatal_error(__FILE__, __LINE__, (msg))

#define LUIS_UNREACHABLE(msg) ::luis::fatal_error(__FILE__, __LINE__, (msg))

#define LUIS_LOG(level, msg)                                                   \
  do {                                                                         \
    if (::luis::log_enabled(level)) ::luis::log_message((level), (msg));       \
  } while (0)

#define LUIS_LOG_ERROR(msg) LUIS_LOG(::luis::LogLevel::Error, (msg))
#define LUIS_LOG_WARN(msg) LUIS_LOG(::luis::LogLevel::Warn, (msg))
#define LUIS_LOG_INFO(msg) LUIS_LOG(::luis::LogLevel::Info, (msg))
#define LUIS_LOG_DEBUG(msg) LUIS_LOG(::luis::LogLevel::Debug, (msg))
