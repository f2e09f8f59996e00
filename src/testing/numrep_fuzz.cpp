#include "testing/numrep_fuzz.hpp"

#include <cmath>

#include <vector>

#include "numrep/fixed_point.hpp"
#include "numrep/iebw.hpp"
#include "numrep/quantize.hpp"
#include "numrep/registry.hpp"
#include "numrep/soft_float.hpp"
#include "support/string_utils.hpp"

namespace luis::testing {
namespace {

using numrep::ConcreteType;
using numrep::NumericFormat;
using numrep::quantize;

/// The formats under test: every executable catalog format (FP8 and
/// fixed-posit included), with a representative fixed point layout for
/// the fixed family — half the word in fractional bits keeps moderate
/// magnitudes in range.
const std::vector<ConcreteType>& palette() {
  static const std::vector<ConcreteType> kPalette = [] {
    std::vector<ConcreteType> out;
    for (const NumericFormat& f : numrep::executable_formats())
      out.push_back({f, f.is_fixed() ? f.width() / 2 : 0});
    return out;
  }();
  return kPalette;
}

CheckResult fail_at(const char* property, const ConcreteType& type, double x,
                    double got, double expected) {
  return CheckResult::fail(format_string(
      "%s violated for %s at x=%.17g: got %.17g, expected %.17g", property,
      type.name().c_str(), x, got, expected));
}

/// Idempotence: re-rounding an already-rounded value must not move it.
CheckResult check_idempotent(const ConcreteType& type, double x) {
  const double once = quantize(type, x);
  if (!std::isfinite(once)) return CheckResult::pass(); // saturated to inf
  const double twice = quantize(type, once);
  if (twice != once) return fail_at("idempotence", type, x, twice, once);
  return CheckResult::pass();
}

/// Rounding is monotone: x <= y implies q(x) <= q(y).
CheckResult check_monotone(const ConcreteType& type, double x, double y) {
  if (x > y) std::swap(x, y);
  const double qx = quantize(type, x), qy = quantize(type, y);
  if (qx > qy)
    return CheckResult::fail(format_string(
        "monotonicity violated for %s: q(%.17g)=%.17g > q(%.17g)=%.17g",
        type.name().c_str(), x, qx, y, qy));
  return CheckResult::pass();
}

/// Width nesting: every value a narrow format represents, a strictly wider
/// format of the same family represents exactly.
CheckResult check_nesting(const ConcreteType& narrow, const ConcreteType& wide,
                          double x) {
  const double in_narrow = quantize(narrow, x);
  if (!std::isfinite(in_narrow)) return CheckResult::pass();
  const double relifted = quantize(wide, in_narrow);
  if (relifted != in_narrow)
    return fail_at("width nesting", wide, x, relifted, in_narrow);
  return CheckResult::pass();
}

/// Definition 1 error bound: |q(x) - x| < 2^(1-IEBW) (the IEBW floors the
/// log of the smallest representation-changing perturbation, so the true
/// rounding error can exceed 2^-IEBW by at most one binade).
CheckResult check_error_bound(const ConcreteType& type, double x) {
  // Only meaningful inside the format's dynamic range: below min_positive
  // the result is underflow/flush policy, above max_value it is overflow
  // policy, and neither is a rounding error.
  const numrep::FormatClassOps& ops = numrep::format_ops(type);
  const double mag = std::abs(x);
  if (mag < ops.min_positive(type) || mag > ops.max_value(type))
    return CheckResult::pass();
  const double q = quantize(type, x);
  if (!std::isfinite(q) || q == 0.0) return CheckResult::pass();
  const int iebw = numrep::iebw_of_value(type.format, q, type.frac_bits);
  const double bound = std::ldexp(1.0, 1 - iebw);
  if (std::abs(q - x) > bound)
    return CheckResult::fail(format_string(
        "error bound violated for %s at x=%.17g: |q(x)-x|=%.17g > "
        "2^(1-%d)=%.17g",
        type.name().c_str(), x, std::abs(q - x), iebw, bound));
  return CheckResult::pass();
}

/// Cross-representation agreement at representable points: half-integers
/// in [-2, 2] are exactly representable by every palette format (FP8
/// e5m2's two mantissa bits are the binding constraint — above magnitude
/// 4 its step grows past one half), so all of them must return the value
/// unchanged.
CheckResult check_cross_representation(double half_integer) {
  for (const ConcreteType& type : palette()) {
    const double q = quantize(type, half_integer);
    if (q != half_integer)
      return fail_at("representable point", type, half_integer, q,
                     half_integer);
  }
  return CheckResult::pass();
}

/// IEBW is monotone in width within the float family: more precision and
/// more exponent range never lose fractional resolution. Only meaningful
/// while x stays inside the narrower format's normal range — beyond it the
/// Definition 3 clamp e_v = min(E, floor(log2|x|)) freezes the narrow
/// format's exponent term, so its nominal IEBW stops decreasing even
/// though the value itself has saturated to infinity.
CheckResult check_iebw_float_monotone(double x) {
  const NumericFormat ladder[] = {numrep::kBinary16, numrep::kBinary32,
                                  numrep::kBinary64, numrep::kBinary128};
  for (std::size_t i = 0; i + 1 < std::size(ladder); ++i) {
    if (std::ilogb(std::abs(x)) > ladder[i].max_exponent()) continue;
    const int narrow = numrep::iebw_float(ladder[i], x);
    const int wide = numrep::iebw_float(ladder[i + 1], x);
    if (wide < narrow)
      return CheckResult::fail(format_string(
          "IEBW width monotonicity violated at x=%.17g: %s gives %d, %s "
          "gives %d",
          x, ladder[i].name().c_str(), narrow, ladder[i + 1].name().c_str(),
          wide));
  }
  return CheckResult::pass();
}

/// Fixed point: Definition 4 says IEBW is exactly the fractional bit
/// count, and rounding error is at most half a grid step.
CheckResult check_fixed_point(const numrep::FixedSpec& spec, double x) {
  if (numrep::iebw_fixed(spec.frac) != spec.frac)
    return CheckResult::fail("iebw_fixed is not the fractional bit count");
  if (x < spec.min_value() || x > spec.max_value()) return CheckResult::pass();
  const double q = numrep::quantize_fixed(spec, x);
  const double half_step = std::ldexp(1.0, -spec.frac - 1);
  if (std::abs(q - x) > half_step * (1.0 + 1e-12))
    return CheckResult::fail(format_string(
        "fixed point rounding error exceeds half a step for %s at x=%.17g",
        spec.name().c_str(), x));
  return CheckResult::pass();
}

} // namespace

CheckResult check_numrep_trial(Rng& rng) {
  // Signed magnitudes across a chosen binade range.
  const auto random_value = [&rng](int min_exp, int max_exp) {
    const double magnitude =
        std::ldexp(rng.next_double(1.0, 2.0),
                   static_cast<int>(rng.next_int(min_exp, max_exp)));
    return rng.next_bool(0.5) ? magnitude : -magnitude;
  };

  for (int i = 0; i < 8; ++i) {
    // Wide range — hits subnormals, overflow-to-infinity, and fixed/posit
    // saturation; valid for idempotence, monotonicity, and nesting.
    const double x = random_value(-30, 30);
    const double y = random_value(-30, 30);
    // Moderate range, inside every palette format's exactly-representable
    // span; required by the error-bound property (saturation breaks it).
    const double moderate = random_value(-6, 3);
    for (const ConcreteType& type : palette()) {
      if (CheckResult r = check_idempotent(type, x); !r.ok) return r;
      if (CheckResult r = check_monotone(type, x, y); !r.ok) return r;
      if (CheckResult r = check_error_bound(type, moderate); !r.ok) return r;
    }
    // Family nesting ladders (narrow, wide).
    const std::pair<ConcreteType, ConcreteType> ladders[] = {
        {{numrep::kBinary16, 0}, {numrep::kBinary32, 0}},
        {{numrep::kBfloat16, 0}, {numrep::kBinary32, 0}},
        {{numrep::kBinary32, 0}, {numrep::kBinary64, 0}},
        {{numrep::kFixed16, 8}, {numrep::kFixed32, 8}},
        {{numrep::kFixed16, 8}, {numrep::kFixed32, 16}},
        {{numrep::kPosit8, 0}, {numrep::kPosit16, 0}},
        {{numrep::kPosit16, 0}, {numrep::kPosit32, 0}},
        // FP8 values are exact binary16 values (e5m2's max 57344 and min
        // subnormal 2^-16 both fit), and fixed_posit8_0_3's lattice is a
        // subset of fixed_posit16_1_4's wider scale range and mantissa.
        {{numrep::kFp8E4M3, 0}, {numrep::kBinary16, 0}},
        {{numrep::kFp8E5M2, 0}, {numrep::kBinary16, 0}},
        {{numrep::kFixedPosit8, 0}, {numrep::kFixedPosit16, 0}},
    };
    for (const auto& [narrow, wide] : ladders)
      if (CheckResult r = check_nesting(narrow, wide, x); !r.ok) return r;
    if (CheckResult r = check_iebw_float_monotone(x); !r.ok) return r;

    const numrep::FixedSpec spec{
        rng.next_bool(0.5) ? 16 : 32,
        static_cast<int>(rng.next_int(2, 11)),
        true,
    };
    if (CheckResult r = check_fixed_point(spec, x); !r.ok) return r;
  }
  if (CheckResult r =
          check_cross_representation(static_cast<double>(rng.next_int(-4, 4)) / 2.0);
      !r.ok)
    return r;
  return CheckResult::pass();
}

} // namespace luis::testing
