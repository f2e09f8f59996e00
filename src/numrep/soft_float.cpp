#include "numrep/soft_float.hpp"

#include <cmath>

#include "support/diag.hpp"

namespace luis::numrep {
namespace {

void check_executable(const NumericFormat& f) {
  LUIS_ASSERT(f.is_float(), "round_to_format requires a floating point format");
  LUIS_ASSERT(f.precision() >= 2 && f.precision() <= 53,
              "executable float precision must be in [2, 53]");
  LUIS_ASSERT(f.max_exponent() >= 1 && f.max_exponent() <= 1023,
              "executable float max exponent must be in [1, 1023]");
}

/// Rounds x to an integral multiple of 2^q, round to nearest even.
/// Exact because |x / 2^q| < 2^53 at every call site.
double round_to_quantum(double x, int q) {
  const double scaled = std::ldexp(x, -q);
  // nearbyint honours the current rounding mode; the default mode is
  // round-to-nearest-even, which is what every format here uses.
  return std::ldexp(std::nearbyint(scaled), q);
}

} // namespace

bool is_executable_float(const NumericFormat& format) {
  return format.is_float() && format.precision() >= 2 &&
         format.precision() <= 53 && format.max_exponent() >= 1 &&
         format.max_exponent() <= 1023;
}

double round_to_format(const NumericFormat& format, double x) {
  check_executable(format);
  if (format == kBinary64) return x; // identity: the host format
  // The FiniteOnly and Fnuz encodings have no infinity pattern: out-of-range
  // values saturate at the largest finite magnitude (OCP FP8 saturating
  // conversion), and an infinite input clamps the same way.
  const bool saturating = format.encoding() != FloatEncoding::Ieee;
  if (!std::isfinite(x)) {
    if (std::isnan(x) || !saturating) return x;
    return std::copysign(float_max_value(format), x);
  }
  if (x == 0.0) return x;

  const int p = format.precision();
  const int emax = format.max_exponent();
  const int emin = format.min_exponent();

  const int e = std::ilogb(x); // floor(log2 |x|), exact for finite x
  double rounded;
  if (e < emin) {
    // Subnormal range: fixed quantum 2^(emin - p + 1).
    rounded = round_to_quantum(x, emin - p + 1);
  } else {
    // Normal range: quantum is one ULP, 2^(e - p + 1). Rounding can bump
    // the exponent (e.g. 1.111..1 -> 10.0), which the overflow check below
    // picks up because it looks at the rounded value.
    rounded = round_to_quantum(x, e - p + 1);
  }

  if (saturating) {
    const double maxv = float_max_value(format);
    if (std::abs(rounded) > maxv) return std::copysign(maxv, x);
    return rounded;
  }
  // Overflow: values that round to or beyond 2^(emax+1) - for IEEE round to
  // nearest even, anything >= (2 - 2^-p) * 2^emax becomes infinity.
  const double threshold =
      std::ldexp(2.0 - std::ldexp(1.0, -p), emax); // halfway to 2^(emax+1)
  if (std::abs(rounded) >= threshold)
    return std::copysign(HUGE_VAL, x);
  if (std::abs(rounded) > float_max_value(format))
    return std::copysign(float_max_value(format), x);
  return rounded;
}

double float_max_value(const NumericFormat& f) {
  LUIS_ASSERT(f.is_float(), "float_max_value requires a float format");
  // FiniteOnly spends its all-ones (exp, mantissa) pattern on NaN, so the
  // top binade stops one ULP early: (2 - 2^(2-p)) * 2^E (448 for E4M3).
  const int top = f.encoding() == FloatEncoding::FiniteOnly ? 2 : 1;
  return std::ldexp(2.0 - std::ldexp(1.0, top - f.precision()),
                    f.max_exponent());
}

double float_min_subnormal(const NumericFormat& f) {
  LUIS_ASSERT(f.is_float(), "float_min_subnormal requires a float format");
  return std::ldexp(1.0, f.min_exponent() - f.precision() + 1);
}

} // namespace luis::numrep
