// Platform characterization: the op-time(o, t) function of Section IV-C.
//
// An OpTimeTable holds the normalized execution time of every elementary
// operation in every type class, as measured by instruction-level
// micro-benchmarks (128 iterations each, normalized to the fastest
// operation on the machine). The four tables of the paper's Table II are
// provided as canned platform models; the host machine can be
// characterized live with run_microbenchmark (see microbench.hpp).
#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>

namespace luis::platform {

class OpTimeTable {
public:
  OpTimeTable() = default;
  explicit OpTimeTable(std::string machine) : machine_(std::move(machine)) {}

  const std::string& machine() const { return machine_; }

  void set(const std::string& op, const std::string& type, double time) {
    times_[{op, type}] = time;
  }

  /// op-time(o, t). `op` is one of add/sub/mul/div/rem (plus the math
  /// intrinsics, see the fallback rules), `type` is a cost class:
  /// "fix", "float", "double" (plus "half"/"bfloat16"/"posit" extensions).
  ///
  /// Fallback rules for entries a table does not measure directly:
  ///  - half and bfloat16 fall back to the float datapath;
  ///  - fp8 and fposit arithmetic uses explicit measured rows (the
  ///    bench_micro SoftEmu pass; see optime.cpp) — only their casts
  ///    fall back;
  ///  - posit arithmetic falls back to float times a software-emulation
  ///    factor (posits have no hardware here);
  ///  - neg/abs/min/max cost like add (keeping a measured row's type
  ///    class when one exists);
  ///  - sqrt costs 2x div; exp/pow cost like rem (library calls).
  double op_time(const std::string& op, const std::string& type) const;

  /// op-time(cast_from, to).
  double cast_time(const std::string& from, const std::string& to) const {
    return op_time("cast_" + from, to);
  }

  bool has(const std::string& op, const std::string& type) const {
    return times_.count({op, type}) > 0;
  }
  const std::map<std::pair<std::string, std::string>, double>& entries() const {
    return times_;
  }

  /// Divides every entry by the minimum entry (Section IV-C normalization).
  void normalize();

  /// Serializes as "op type value" lines (with a "machine NAME" header).
  std::string to_text() const;

private:
  std::string machine_;
  std::map<std::pair<std::string, std::string>, double> times_;
};

/// Software-emulation slowdown applied to posit arithmetic (no posit
/// hardware exists on any of the modeled machines).
inline constexpr double kPositSoftwareFactor = 8.0;

// Canned characterizations of the paper's four machines (Table II).
const OpTimeTable& stm32_table();     // Cortex-M3, no FPU
const OpTimeTable& raspberry_table(); // ARMv6, single precision FPU
const OpTimeTable& intel_table();     // Pentium E5300
const OpTimeTable& amd_table();       // Opteron 8435 NUMA node

/// The four canned platforms, in the paper's order.
std::span<const OpTimeTable* const> standard_platforms();

/// Looks up a canned platform by name ("Stm32", "Raspberry", "Intel",
/// "AMD"; case-insensitive). Returns nullptr if unknown.
const OpTimeTable* platform_by_name(const std::string& name);

struct OpTimeParseResult {
  OpTimeTable table;
  std::string error; ///< empty on success
  int line = 0;      ///< 1-based position of the error
  int column = 0;
  bool ok() const { return error.empty(); }
};

/// Parses OpTimeTable::to_text: `machine NAME`, then `OP TYPE VALUE` lines
/// (values finite, > 0, read whole; each key once; every Table II key, the
/// ones op_time's fallbacks reduce to). This carries a characterization
/// measured on a target machine ("luis characterize -o target.optime") to
/// the compiling one, the paper's cross-compilation workflow.
OpTimeParseResult parse_optime_table(std::string_view text);

} // namespace luis::platform
