#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <tuple>

#include "numrep/fixed_point.hpp"
#include "numrep/iebw.hpp"
#include "numrep/posit.hpp"
#include "numrep/soft_float.hpp"
#include "support/rng.hpp"
#include "format_param_names.hpp"

namespace luis::numrep {
namespace {

// Brute-force evaluation of Definition 1: the smallest eps such that
// R(x + eps) != R(x) or R(x - eps) != R(x), located by bisection over
// binary64 values (the predicate is monotone in eps). Returns
// -floor(log2 eps).
int iebw_by_definition(const std::function<double(double)>& repr, double x) {
  const double rx = repr(x);
  auto changes = [&](double eps) {
    return repr(x + eps) != rx || repr(x - eps) != rx;
  };
  double lo = 0.0, hi = std::max(std::abs(x), 1.0);
  while (!changes(hi)) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = lo / 2 + hi / 2;
    if (mid == lo || mid == hi) break;
    (changes(mid) ? hi : lo) = mid;
  }
  return -static_cast<int>(std::floor(std::log2(hi)));
}

TEST(Iebw, FloatFormulaMatchesDefinitionOne) {
  Rng rng(1);
  for (const auto& fmt : {kBinary16, kBfloat16, kBinary32}) {
    auto repr = [&](double v) { return round_to_format(fmt, v); };
    for (int i = 0; i < 300; ++i) {
      // Representable points with mantissa away from power-of-two
      // boundaries. The bisection runs in binary64, so at an exact
      // half-ULP tie the measured threshold can land one power-of-two
      // window below the closed form (double rounding); Definition 1 and
      // Definition 3 agree within that one-unit window.
      const int e = static_cast<int>(rng.next_int(-10, 10));
      const double x = round_to_format(fmt, std::ldexp(1.2 + 0.6 * rng.next_double(), e));
      const int measured = iebw_by_definition(repr, x);
      const int closed = iebw_float(fmt, x);
      EXPECT_GE(measured, closed) << fmt.name() << " x=" << x;
      EXPECT_LE(measured, closed + 1) << fmt.name() << " x=" << x;
    }
  }
}

TEST(Iebw, FixedFormulaMatchesDefinitionOne) {
  Rng rng(2);
  for (int frac : {4, 8, 16}) {
    const FixedSpec spec{32, frac, true};
    auto repr = [&](double v) { return quantize_fixed(spec, v); };
    for (int i = 0; i < 100; ++i) {
      const double x = quantize_fixed(spec, rng.next_double(-100, 100));
      // Definition 1's eps is half the grid step, so the bisection lands at
      // frac + 1 (or frac + 2 when binary64 double rounding nudges the
      // threshold across the tie); the paper's Definition 4 fixes
      // IEBW_fix = f, one unit of deliberate conservatism.
      const int measured = iebw_by_definition(repr, x);
      EXPECT_GE(measured, frac + 1) << spec.name();
      EXPECT_LE(measured, frac + 2) << spec.name();
      EXPECT_EQ(iebw_fixed(frac), frac);
    }
  }
}

TEST(Iebw, FloatKnownValues) {
  // binary32, x in [1, 2): e_v = 0, IEBW = p = 24.
  EXPECT_EQ(iebw_float(kBinary32, 1.5), 24);
  // x in [2, 4): one fewer fractional bit.
  EXPECT_EQ(iebw_float(kBinary32, 3.0), 23);
  // x in [0.5, 1): one more.
  EXPECT_EQ(iebw_float(kBinary32, 0.75), 25);
  // Large x: IEBW can go negative (ULP > 1).
  EXPECT_LT(iebw_float(kBinary32, 1e9), 0);
  // binary64 at the same points is 29 bits better (p 53 vs 24).
  EXPECT_EQ(iebw_float(kBinary64, 1.5), 53);
  EXPECT_EQ(iebw_float(kBfloat16, 1.5), 8);
  EXPECT_EQ(iebw_float(kBinary16, 1.5), 11);
}

TEST(Iebw, FloatSubnormalLosesHiddenBit) {
  // In the subnormal range p_hat = 1 and e_v clamps at emin: every
  // subnormal shares the lattice step 2^(emin - p + 1), so the IEBW is
  // constant below 2^emin rather than growing with -ilogb(x) (the
  // unclamped formula would overclaim resolution the format lacks).
  const int emin = kBinary32.min_exponent();
  const double sub = std::ldexp(1.0, emin - 3);
  EXPECT_EQ(iebw_float(kBinary32, sub), 24 - 1 - emin);
  EXPECT_EQ(iebw_float(kBinary32, std::ldexp(1.0, emin - 10)),
            iebw_float(kBinary32, sub));
  // At the minimum normal the two regimes agree.
  EXPECT_EQ(iebw_float(kBinary32, std::ldexp(1.0, emin)), 24 - 1 - emin);
}

TEST(Iebw, FloatGrowsAsMagnitudeShrinks) {
  int prev = INT32_MIN;
  for (double x = 1e10; x > 1e-10; x /= 8) {
    const int now = iebw_float(kBinary32, x);
    EXPECT_GT(now, prev);
    prev = now;
  }
}

TEST(Iebw, PositDefinitionFive) {
  // posit32_2 at 1.0: n_f = 27, k = 0, e = 0 -> IEBW = 27.
  EXPECT_EQ(iebw_posit(kPosit32, 1.0), 27);
  // At 16 = useed^1 (k=1, e=0): regime one bit longer -> n_f = 26,
  // scale 4 -> IEBW = 26 - 4 = 22.
  EXPECT_EQ(iebw_posit(kPosit32, 16.0), 22);
  // Tapered precision: IEBW decreases much faster than floats away from 1.
  EXPECT_GT(iebw_posit(kPosit32, 1.0), iebw_posit(kPosit32, 1e6));
}

TEST(Iebw, PositMatchesDefinitionOne) {
  Rng rng(3);
  auto repr = [&](double v) { return quantize_posit(kPosit16, v); };
  for (int i = 0; i < 200; ++i) {
    const int e = static_cast<int>(rng.next_int(-4, 4));
    const double x = quantize_posit(kPosit16, std::ldexp(1.2 + 0.6 * rng.next_double(), e));
    // Posit grids behave like fixed point locally: Definition 1's bisected
    // eps is half an ULP, one unit above Definition 5's closed form (two
    // when binary64 double rounding nudges the threshold across a tie).
    const int by_def = iebw_by_definition(repr, x);
    const int closed = iebw_posit(kPosit16, x);
    EXPECT_GE(by_def, closed + 1) << "x=" << x;
    EXPECT_LE(by_def, closed + 2) << "x=" << x;
  }
}

TEST(Iebw, RangeUsesGuaranteedPrecision) {
  // Worst case over [0.1, 100] for binary32 is at |x| = 100 (e_v = 6).
  EXPECT_EQ(iebw_of_range(kBinary32, 0.1, 100.0), 24 - 6);
  EXPECT_EQ(iebw_of_range(kBinary32, -100.0, 0.5), 24 - 6);
  // Best case is at the smallest magnitude (0.1 -> e_v = -4).
  EXPECT_EQ(iebw_of_range_best_case(kBinary32, 0.1, 100.0), 24 + 4);
  // Fixed point ranges are frac-determined.
  EXPECT_EQ(iebw_of_range(kFixed32, -5, 5, 13), 13);
  EXPECT_EQ(iebw_of_range_best_case(kFixed32, -5, 5, 13), 13);
}

TEST(Iebw, RangeStraddlingZero) {
  // Guaranteed precision still evaluates at the magnitude extreme.
  EXPECT_EQ(iebw_of_range(kBinary32, -2.5, 2.5), iebw_float(kBinary32, 2.5));
  // Literal best case on a zero-straddling range clamps at the smallest
  // positive representable value.
  EXPECT_EQ(iebw_of_range_best_case(kBinary32, -1.0, 1.0),
            iebw_float(kBinary32, float_min_subnormal(kBinary32)));
}

TEST(Iebw, DegenerateZeroRange) {
  // [0, 0] is representable exactly by everything; the convention is the
  // IEBW at the smallest positive value.
  EXPECT_EQ(iebw_of_range(kBinary32, 0.0, 0.0),
            iebw_float(kBinary32, float_min_subnormal(kBinary32)));
}

TEST(Iebw, FixMaxBasics) {
  // Range [-5, 5] in a signed 32-bit word: 3 integer bits + sign leaves 28.
  EXPECT_EQ(fixed_point_max_frac(32, true, -5, 5), 28);
  // Range within [-1, 1] needs no integer bits at all.
  EXPECT_EQ(fixed_point_max_frac(32, true, -1, 1), 30);
  EXPECT_EQ(fixed_point_max_frac(32, true, -0.25, 0.25), 31); // capped at w-1
  // Zero-width range.
  EXPECT_EQ(fixed_point_max_frac(32, true, 0, 0), 31);
  // Huge ranges make narrow fixed types infeasible.
  EXPECT_LT(fixed_point_max_frac(16, true, -1e9, 1e9), 0);
}

TEST(Iebw, FixMaxNeverOverflows) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double hi = std::ldexp(rng.next_double(0.5, 2.0), rng.next_int(-20, 20));
    const int width = static_cast<int>(rng.next_int(8, 64));
    const int f = fixed_point_max_frac(width, true, -hi, hi);
    if (f < 0) continue;
    const FixedSpec spec{width, f, true};
    // The range extreme must quantize without saturating.
    EXPECT_LE(hi, spec.max_value() * (1 + 1e-12)) << width << " " << hi;
    // And one more fractional bit must overflow (maximality).
    if (f + 1 < width) {
      const FixedSpec tighter{width, f + 1, true};
      EXPECT_GT(hi, tighter.max_value() * (1 - 1e-12));
    }
  }
}

TEST(Iebw, CrossRepresentationComparisonAtUnitScale) {
  // The headline use of the metric: comparable numbers across systems.
  // Around |x| ~ 1: fix32 with 28 fractional bits beats binary32 (24),
  // binary64 (53) beats both; posit32_2 (27) sits between.
  const double lo = -4.0, hi = 4.0;
  const int fix_f = fixed_point_max_frac(32, true, lo, hi);
  EXPECT_EQ(fix_f, 28);
  EXPECT_GT(iebw_of_range(kFixed32, lo, hi, fix_f),
            iebw_of_range(kBinary32, lo, hi));
  EXPECT_GT(iebw_of_range(kBinary64, lo, hi),
            iebw_of_range(kFixed32, lo, hi, fix_f));
  EXPECT_GT(iebw_of_range(kPosit32, lo, hi), iebw_of_range(kBinary32, lo, hi));
}

TEST(Iebw, CrossRepresentationComparisonAtLargeScale) {
  // At large magnitude, floats retain relative precision while fixed point
  // runs out of fractional bits: IEBW captures exactly this.
  const double lo = 0.0, hi = 1e6;
  const int fix_f = fixed_point_max_frac(32, true, lo, hi);
  EXPECT_LT(iebw_of_range(kFixed32, lo, hi, fix_f),
            iebw_of_range(kBinary64, lo, hi));
}

class IebwFloatSweep
    : public ::testing::TestWithParam<std::tuple<NumericFormat, int>> {};

TEST_P(IebwFloatSweep, ClosedFormIsPMinusExponent) {
  const auto& [fmt, e] = GetParam();
  const double x = std::ldexp(1.5, e);
  EXPECT_EQ(iebw_float(fmt, x), fmt.precision() - e);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IebwFloatSweep,
    ::testing::Combine(::testing::Values(kBinary16, kBinary32, kBinary64,
                                         kBfloat16),
                       ::testing::Values(-8, -2, 0, 1, 7)),
    [](const auto& info) {
      const int e = std::get<1>(info.param);
      return test_case_name(std::get<0>(info.param)) +
             (e < 0 ? "_em" : "_e") + std::to_string(std::abs(e));
    });

} // namespace
} // namespace luis::numrep
