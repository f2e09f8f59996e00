// String helpers used by the IR printer/parser and report generators.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace luis {

/// Reads all of `text` as one number of type T with std::from_chars: no
/// surrounding whitespace, no '+' sign, no trailing characters and no
/// value out of T's range (NaN and infinities parse for doubles).
/// nullopt otherwise.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Splits on `sep`, dropping empty fields.
std::vector<std::string> split_fields(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string format_string(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Left-pads `text` with spaces to at least `width` characters.
std::string pad_left(std::string_view text, std::size_t width);

/// Right-pads `text` with spaces to at least `width` characters.
std::string pad_right(std::string_view text, std::size_t width);

} // namespace luis
