// The closed set of representation systems: one constant policy table.
//
// A NumericFormat is pure data; the behavior of its class lives in that
// class's FormatClassOps row of kFormatClassOps, a table indexed by
// FormatClass and fixed at compile time. Every consumer binds through it:
// the quantize entry point and the VM's op x format kernel table through
// ops.quantize, IEBW (and with it the ILP's Err term and `luis check`'s
// certified bounds) through ops.iebw/min_positive/max_value, candidate-type
// filtering through ops.feasible, platform pricing through ops.cost_class,
// and the Multi preset, the fuzz palettes and the input checks through
// ops.executable. The catalog and the name parser live beside the table
// (standard_formats, executable_formats and parse_format in formats.hpp).
//
// A new in-tree class is one FormatClass value plus one row here; a
// static_assert refuses a row with a missing entry (docs/FORMATS.md).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "numrep/formats.hpp"

namespace luis::numrep {

/// Per-class policy vtable. Function pointers (not std::function) so the
/// table is constant data. Value-level entry points take a ConcreteType
/// because fixed point behavior depends on the per-variable fractional bit
/// count.
struct FormatClassOps {
  /// Canonical spelling; must round-trip through parse_format.
  std::string (*name)(const NumericFormat&) = nullptr;

  /// Round `x` into the type (the single rounding step every kernel and
  /// the reference interpreter share — bit-identity depends on it).
  double (*quantize)(const ConcreteType&, double x) = nullptr;

  /// Pointwise IEBW (Definition 1 of the paper). `x` nonzero and finite.
  int (*iebw)(const ConcreteType&, double x) = nullptr;

  /// Largest finite representable magnitude.
  double (*max_value)(const ConcreteType&) = nullptr;

  /// Smallest positive representable magnitude.
  double (*min_positive)(const ConcreteType&) = nullptr;

  /// True if quantize/arith kernels can execute this format (e.g. false
  /// for the binary128/binary256 descriptors of Table I).
  bool (*executable)(const NumericFormat&) = nullptr;

  /// ILP candidate filter: can the format hold every value of [lo, hi]?
  bool (*feasible)(const NumericFormat&, double lo, double hi) = nullptr;

  /// Platform cost class keying the op-time tables ("fix", "float",
  /// "double", "half", "bfloat16", "fp8", "posit", "fposit").
  std::string (*cost_class)(const NumericFormat&) = nullptr;

  /// Overflow behavior: true = values beyond max_value saturate to it;
  /// false = they overflow to +-infinity (Ieee floats).
  bool (*saturates)(const NumericFormat&) = nullptr;

  /// Posit-style underflow: nonzero values below min_positive round to
  /// +-min_positive, never to zero.
  bool (*never_underflows)(const NumericFormat&) = nullptr;

  /// True when 2^-IEBW already bounds the worst rounding error (floats,
  /// Definition 3); false when it is the lattice step, of which rounding
  /// incurs at most half (fixed point, posits).
  bool (*eps_is_half_step)(const NumericFormat&) = nullptr;

  // --- Bit-level codec (exhaustive <=8-bit correctness proofs). ---
  // Null for value-only formats. The contract the exhaustive suite
  // enforces: decode is total over the 2^w patterns (NaN patterns decode
  // to NaN), encode(decode(bits)) == bits for every non-NaN pattern, and
  // decoded values are monotone in ordering_key.

  /// True if encode/decode cover this format (typically width <= 16).
  bool (*encodable)(const NumericFormat&) = nullptr;
  /// Exact encoding of a representable value (quantize first otherwise).
  std::uint64_t (*encode)(const ConcreteType&, double x) = nullptr;
  /// Value of a bit pattern (only the low width() bits are read).
  double (*decode)(const ConcreteType&, std::uint64_t bits) = nullptr;
  /// Total-order rank of an encoding; decoded values are monotone in it.
  std::int64_t (*ordering_key)(const ConcreteType&, std::uint64_t bits) = nullptr;
};

/// The policy of every FormatClass, indexed by its value. Constant-
/// initialized, so it is safe to read from any thread at any time.
extern const std::array<FormatClassOps, kNumFormatClasses> kFormatClassOps;

/// Policy of a format's class.
inline const FormatClassOps& format_ops(const NumericFormat& fmt) {
  return kFormatClassOps[static_cast<std::size_t>(fmt.format_class())];
}
inline const FormatClassOps& format_ops(const ConcreteType& type) {
  return format_ops(type.format);
}

} // namespace luis::numrep
