#include "numrep/soft_float.hpp"

#include <algorithm>
#include <bit>
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

/// Bit pattern of 2^k, k in [-1074, 1023].
std::uint64_t pow2_bits(int k) {
  if (k >= -1022) return static_cast<std::uint64_t>(k + 1023) << 52;
  return std::uint64_t{1} << (k + 1074);
}

} // namespace

bool is_executable_float(const NumericFormat& format) {
  return format.is_float() && format.precision() >= 2 &&
         format.precision() <= 53 && format.max_exponent() >= 1 &&
         format.max_exponent() <= 1023;
}

FloatRounder FloatRounder::of(const NumericFormat& f) {
  check_executable(f);
  const int p = f.precision();
  const int emin = f.min_exponent();
  FloatRounder r;
  r.sub_limit = pow2_bits(std::max(emin, -1022));
  r.sub_bias = std::bit_cast<double>(pow2_bits(emin - p + 53));
  r.shift = 53 - p;
  r.half_m1 = p < 53 ? (std::uint64_t{1} << (52 - p)) - 1 : 0;
  r.tie_bit = p < 53 ? 1 : 0;
  r.keep = ~((std::uint64_t{1} << r.shift) - 1);
  // (2 - 2^(top-p)) * 2^E: FiniteOnly spends its all-ones pattern on NaN.
  const int top = f.encoding() == FloatEncoding::FiniteOnly ? 2 : 1;
  r.max_bits = (static_cast<std::uint64_t>(f.max_exponent() + 1023) << 52) |
               ((std::uint64_t{1} << 52) - (std::uint64_t{1} << (52 + top - p)));
  r.overflow_bits = f.encoding() == FloatEncoding::Ieee
                        ? std::uint64_t{0x7ff} << 52
                        : r.max_bits;
  return r;
}

double round_to_format(const NumericFormat& format, double x) {
  return FloatRounder::of(format).round(x);
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
