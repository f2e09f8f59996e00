#include "platform/optime.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "support/diag.hpp"
#include "support/string_utils.hpp"

namespace luis::platform {
namespace {

/// Reduces extension type classes to a class the table measures. fp8 and
/// fposit arithmetic has explicit measured rows (kSoftEmulated below), so
/// this fallback only fires for their unmeasured ops (casts).
std::string reduce_type(const std::string& type) {
  if (type == "half" || type == "bfloat16" || type == "fp8") return "float";
  if (type == "posit" || type == "fposit") return "float";
  return type;
}

/// Reduces intrinsic ops to a measured op, with a scale factor.
std::pair<std::string, double> reduce_op(const std::string& op) {
  if (op == "neg" || op == "abs" || op == "min" || op == "max")
    return {"add", 1.0};
  if (op == "sqrt") return {"div", 2.0};
  if (op == "exp" || op == "pow") return {"rem", 1.0};
  if (op == "cast_half" || op == "cast_bfloat16" || op == "cast_posit" ||
      op == "cast_fp8" || op == "cast_fposit")
    return {"cast_float", 1.0};
  return {op, 1.0};
}

} // namespace

double OpTimeTable::op_time(const std::string& op, const std::string& type) const {
  const auto exact = times_.find({op, type});
  if (exact != times_.end()) return exact->second;

  auto [o, op_factor] = reduce_op(op);
  // An intrinsic reduced to a measured op keeps the original type class
  // when that class has its own row (the fp8/fposit measured rows): neg
  // on fp8 costs like the measured fp8 add, not like a hardware float
  // add.
  const auto reduced_op = times_.find({o, type});
  if (reduced_op != times_.end()) return reduced_op->second * op_factor;

  double factor = op_factor;
  std::string t = reduce_type(type);
  // Posits have no hardware units on the measured machines and no
  // measured rows either; their ops fall back to float times a software
  // factor. (fposit casts share the penalty — fposit arithmetic has
  // measured rows and never reaches this fallback.)
  if (type == "posit" || type == "fposit") factor *= kPositSoftwareFactor;

  const auto reduced = times_.find({o, t});
  if (reduced != times_.end()) return reduced->second * factor;

  // Casts between identical reduced classes (e.g. posit<->posit shifts
  // reduced to float<->float) cost one base unit.
  if (o.rfind("cast_", 0) == 0 && o.substr(5) == t) return factor;
  LUIS_FATAL("op-time table '" + machine_ + "' has no entry for (" + op + ", " +
             type + ")");
}

void OpTimeTable::normalize() {
  if (times_.empty()) return;
  double min_time = times_.begin()->second;
  for (const auto& [key, t] : times_) min_time = std::min(min_time, t);
  LUIS_ASSERT(min_time > 0.0, "non-positive micro-benchmark time");
  for (auto& [key, t] : times_) t /= min_time;
}

std::string OpTimeTable::to_text() const {
  std::string out = "machine " + machine_ + "\n";
  char buf[128];
  for (const auto& [key, time] : times_) {
    std::snprintf(buf, sizeof buf, "%s %s %.17g\n", key.first.c_str(),
                  key.second.c_str(), time);
    out += buf;
  }
  return out;
}

namespace {

struct Row {
  const char* op;
  const char* type;
  double stm32, raspberry, intel, amd;
};

// Table II of the paper, verbatim.
constexpr Row kTable2[] = {
    {"add", "fix", 1.24, 1.30, 1.05, 1.35},
    {"add", "float", 2.33, 1.81, 1.03, 1.33},
    {"add", "double", 2.72, 2.15, 1.39, 2.63},
    {"sub", "fix", 1.24, 1.30, 1.05, 1.35},
    {"sub", "float", 2.33, 1.81, 1.03, 1.33},
    {"sub", "double", 2.72, 2.15, 1.39, 2.63},
    {"mul", "fix", 1.62, 2.04, 1.36, 2.63},
    {"mul", "float", 2.65, 3.35, 1.83, 4.43},
    {"mul", "double", 4.02, 4.14, 1.56, 4.58},
    {"div", "fix", 5.30, 3.45, 3.98, 15.14},
    {"div", "float", 5.60, 4.13, 2.03, 6.17},
    {"div", "double", 18.33, 5.68, 2.21, 6.57},
    {"rem", "fix", 1.39, 2.20, 1.59, 9.51},
    {"rem", "float", 27.01, 15.18, 54.01, 13.59},
    {"rem", "double", 152.35, 92.15, 387.09, 74.30},
    {"cast_fix", "fix", 1.00, 1.13, 1.00, 1.00},
    {"cast_fix", "float", 7.63, 5.25, 3.08, 7.35},
    {"cast_fix", "double", 20.89, 6.77, 3.36, 8.37},
    {"cast_float", "fix", 4.28, 4.47, 2.87, 5.41},
    {"cast_float", "double", 1.63, 1.00, 1.18, 1.67},
    {"cast_double", "fix", 5.65, 5.53, 2.72, 6.09},
    {"cast_double", "float", 1.79, 5.91, 1.17, 1.65},
};

// Software-emulated representations (no hardware units on any Table II
// machine): explicit arithmetic rows derived from the bench_micro SoftEmu
// pass instead of the old scaled cost-class factors (fp8 used to price
// like hardware float, fposit like float x kPositSoftwareFactor — both
// guesses). The pass times the VM's emulation sequence (double op +
// quantize into the format, operands pre-quantized) against the native
// float op it displaces; the per-op time ratio below is that quotient.
//
// Provenance — re-measure with `bench_micro --benchmark_filter=SoftEmu`
// and update when the emulation code changes:
//   2026-08-08, Intel Xeon @ 2.70GHz, gcc 12.2.0 -O2, google-benchmark
//   CPU time, >= 4.7M iterations per op.
//     float   : add 0.92ns  mul 0.92ns  div 1.05ns  rem 6.58ns
//     e4m3    : add 29.8ns  mul 34.0ns  div 32.4ns  rem 37.9ns
//     fposit16: add 58.8ns  mul 64.4ns  div 63.2ns  rem 72.8ns
// The ratio is dominated by the host's integer pipeline (decode, clamp,
// re-encode), not the float datapath, so it transfers across machines far
// better than an absolute time: each platform's row is its own float row
// scaled by the measured ratio. rem ratios are small only because float
// rem is itself a library call.
struct SoftEmulatedRow {
  const char* op;
  double fp8, fposit; ///< measured time ratio vs. the native float op
};
constexpr SoftEmulatedRow kSoftEmulated[] = {
    {"add", 32.5, 64.1}, {"sub", 32.5, 64.1}, {"mul", 37.0, 70.1},
    {"div", 30.9, 60.2}, {"rem", 5.76, 11.1},
};

OpTimeTable make_table(const std::string& name, double Row::*column) {
  OpTimeTable table(name);
  for (const Row& row : kTable2) table.set(row.op, row.type, row.*column);
  for (const SoftEmulatedRow& row : kSoftEmulated) {
    const double f = table.op_time(row.op, "float");
    table.set(row.op, "fp8", row.fp8 * f);
    table.set(row.op, "fposit", row.fposit * f);
  }
  return table;
}

} // namespace

OpTimeParseResult parse_optime_table(std::string_view text) {
  OpTimeParseResult out;
  bool have_machine = false;
  int line_no = 0;
  std::size_t start = 0;
  // Records an error at 1-based (line, column) and returns the result.
  const auto fail = [&](int line, std::size_t column, std::string message) {
    out.error = std::move(message);
    out.line = line;
    out.column = static_cast<int>(column);
    return out;
  };
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    // Whitespace-separated tokens, each with its 1-based column.
    std::vector<std::pair<std::string_view, std::size_t>> tokens;
    for (std::size_t at = 0; at < line.size();) {
      const std::size_t from = line.find_first_not_of(" \t\r", at);
      if (from == std::string_view::npos) break;
      at = std::min(line.find_first_of(" \t\r", from), line.size());
      tokens.emplace_back(line.substr(from, at - from), from + 1);
    }
    if (tokens.empty()) continue;
    const auto& [first, first_col] = tokens.front();
    if (!have_machine) {
      if (tokens.size() != 2 || first != "machine")
        return fail(line_no, first_col, "want 'machine NAME' first");
      out.table = OpTimeTable(std::string(tokens[1].first));
      have_machine = true;
      continue;
    }
    if (tokens.size() != 3)
      return fail(line_no, tokens.size() > 3 ? tokens[3].second : first_col,
                  "want 'OP TYPE VALUE'");
    const std::string op(first), type(tokens[1].first);
    const auto [value_text, value_col] = tokens[2];
    const std::optional<double> value = parse_number<double>(value_text);
    if (!value || !std::isfinite(*value) || *value <= 0.0)
      return fail(line_no, value_col,
                  "op-time must be a finite number > 0, got '" +
                      std::string(value_text) + "'");
    if (out.table.has(op, type))
      return fail(line_no, first_col,
                  "repeated entry '" + op + " " + type + "'");
    out.table.set(op, type, *value);
  }
  if (!have_machine) return fail(line_no + 1, 1, "want 'machine NAME' first");
  for (const Row& row : kTable2)
    if (!out.table.has(row.op, row.type))
      return fail(line_no + 1, 1,
                  std::string("missing entry '") + row.op + " " + row.type +
                      "' (every Table II op-time is required)");
  return out;
}

const OpTimeTable& stm32_table() {
  static const OpTimeTable t = make_table("Stm32", &Row::stm32);
  return t;
}
const OpTimeTable& raspberry_table() {
  static const OpTimeTable t = make_table("Raspberry", &Row::raspberry);
  return t;
}
const OpTimeTable& intel_table() {
  static const OpTimeTable t = make_table("Intel", &Row::intel);
  return t;
}
const OpTimeTable& amd_table() {
  static const OpTimeTable t = make_table("AMD", &Row::amd);
  return t;
}

std::span<const OpTimeTable* const> standard_platforms() {
  static const OpTimeTable* const kAll[] = {&stm32_table(), &raspberry_table(),
                                            &intel_table(), &amd_table()};
  return kAll;
}

const OpTimeTable* platform_by_name(const std::string& name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (const OpTimeTable* table : standard_platforms()) {
    std::string m = table->machine();
    std::transform(m.begin(), m.end(), m.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (m == lower) return table;
  }
  return nullptr;
}

} // namespace luis::platform
