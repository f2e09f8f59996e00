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
// The rounding step is FloatRounder: the format's constants are resolved
// once (FloatRounder::of, or numrep::make_quant_spec for the VM), and each
// rounding is integer and bit arithmetic on the binary64 pattern plus one
// binary64 add/subtract pair in the target's subnormal range — no libm
// call. round_to_format is that same rounder, resolved per call; it is the
// only float rounding in src/ (the reference interpreter, the VM kernels
// and numrep::quantize all reach it), so the engines agree bit for bit.
//
// binary128/binary256 are *described* by NumericFormat for the IEBW metric
// (Table I), but cannot be executed through this emulator.
#pragma once

#include <bit>
#include <cstdint>

#include "numrep/formats.hpp"

namespace luis::numrep {

/// True if `format` can be executed by round_to_format (p <= 53, E <= 1023).
bool is_executable_float(const NumericFormat& format);

/// The rounding constants of one executable float format.
///
/// round() works on the magnitude bits m of x. Below `sub_limit` (2^emin,
/// or the smallest normal binary64 when emin is lower) the quantum is the
/// fixed 2^(emin-p+1), and (|x| + 2^(emin-p+53)) - 2^(emin-p+53) rounds to
/// it: the sum's unit in the last place is that quantum, so the binary64
/// add performs the round to nearest even. Above it the quantum is one
/// target ulp, 2^(53-p) binary64 ulps, and m + (2^(52-p) - 1) + (the bit
/// that decides ties) with the low 53-p bits cleared rounds to nearest
/// even; a carry out of the mantissa bumps the exponent, which is the
/// correct result. A magnitude above `max_bits` overflows to `overflow_bits`:
/// infinity for Ieee, the largest finite value for the saturating
/// encodings (FiniteOnly, Fnuz), which also clamp an infinite input. NaN is
/// returned unchanged, payload included; a zero keeps its sign.
struct FloatRounder {
  std::uint64_t sub_limit = 0;     ///< magnitudes below round in the fixed quantum
  double sub_bias = 0.0;           ///< 2^(emin-p+53)
  int shift = 0;                   ///< 53 - p: binary64 bits below the target ulp
  std::uint64_t half_m1 = 0;       ///< 2^(52-p) - 1, or 0 when p = 53
  std::uint64_t tie_bit = 0;       ///< 1, or 0 when p = 53 (nothing to round)
  std::uint64_t keep = ~std::uint64_t{0}; ///< clears the `shift` low bits
  std::uint64_t max_bits = 0;      ///< pattern of the largest finite magnitude
  std::uint64_t overflow_bits = 0; ///< what a larger magnitude becomes

  /// Resolves the constants of `format`, which must be a floating point
  /// format with p <= 53 and E <= 1023. Integer arithmetic only.
  static FloatRounder of(const NumericFormat& format);

  double round(double x) const {
    constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
    constexpr std::uint64_t kInf = std::uint64_t{0x7ff} << 52;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t sign = bits & kSign;
    std::uint64_t mag = bits ^ sign;
    if (mag > kInf) return x; // NaN
    if (mag < sub_limit) {
      const double a = std::bit_cast<double>(mag);
      mag = std::bit_cast<std::uint64_t>((a + sub_bias) - sub_bias);
    } else {
      mag = (mag + half_m1 + ((mag >> shift) & tie_bit)) & keep;
    }
    if (mag > max_bits) mag = overflow_bits;
    return std::bit_cast<double>(sign | mag);
  }
};

/// Rounds a binary64 value into the given floating point format: round to
/// nearest even, gradual underflow to subnormals and zero, NaN propagated.
/// Overflow behavior follows the encoding: Ieee overflows to +-infinity;
/// FiniteOnly and Fnuz have no infinity pattern and saturate at the largest
/// finite magnitude (OCP FP8 saturating conversion) — an infinite input
/// clamps the same way. `format` must be a floating point format with
/// p <= 53 and E <= 1023. Equivalent to FloatRounder::of(format).round(x).
double round_to_format(const NumericFormat& format, double x);

/// Largest finite value of the format: (2 - 2^(1-p)) * 2^E, except
/// FiniteOnly where the all-ones pattern is NaN: (2 - 2^(2-p)) * 2^E.
double float_max_value(const NumericFormat& format);

/// Smallest positive subnormal value: 2^(1-E) * 2^(1-p) = 2^(2-E-p).
double float_min_subnormal(const NumericFormat& format);

} // namespace luis::numrep
