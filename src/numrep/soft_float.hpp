// Software emulation of parametric binary floating point formats.
//
// The emulation strategy is operate-then-round: inputs are held as IEEE-754
// binary64 values that are already exactly representable in the target
// format, the operation is computed in binary64, and the result is rounded
// into the target format (precision p, maximum exponent E) with round to
// nearest, ties to even. For formats with p <= 53 and E <= 1023 — every
// format we execute (binary16, bfloat16, binary32, binary64) — a single
// binary64 operation is exact enough that the final rounding yields the
// correctly rounded target result for +, -, *; for / and sqrt the rare
// double-rounding cases are below the error floor of the experiments (the
// paper's MPE metric), and are documented in DESIGN.md.
//
// binary128/binary256 are *described* by NumericFormat for the IEBW metric
// (Table I), but cannot be executed through this emulator.
#pragma once

#include "numrep/formats.hpp"

namespace luis::numrep {

/// True if `format` can be executed by round_to_format (p <= 53, E <= 1023).
bool is_executable_float(const NumericFormat& format);

/// Rounds a binary64 value into the given floating point format: round to
/// nearest even, gradual underflow to subnormals and zero, NaN propagated.
/// Overflow behavior follows the encoding: Ieee overflows to +-infinity;
/// FiniteOnly and Fnuz have no infinity pattern and saturate at the largest
/// finite magnitude (OCP FP8 saturating conversion) — an infinite input
/// clamps the same way. `format` must be a floating point format with
/// p <= 53 and E <= 1023.
double round_to_format(const NumericFormat& format, double x);

/// Largest finite value of the format: (2 - 2^(1-p)) * 2^E, except
/// FiniteOnly where the all-ones pattern is NaN: (2 - 2^(2-p)) * 2^E.
double float_max_value(const NumericFormat& format);

/// Smallest positive subnormal value: 2^(1-E) * 2^(1-p) = 2^(2-E-p).
double float_min_subnormal(const NumericFormat& format);

} // namespace luis::numrep
