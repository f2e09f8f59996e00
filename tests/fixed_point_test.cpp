#include <gtest/gtest.h>

#include <cmath>

#include "numrep/fixed_point.hpp"
#include "support/rng.hpp"

namespace luis::numrep {
namespace {

TEST(FixedSpec, RangeAndResolution) {
  const FixedSpec q16{32, 16, true};
  EXPECT_DOUBLE_EQ(q16.resolution(), std::ldexp(1.0, -16));
  EXPECT_DOUBLE_EQ(q16.max_value(), (std::ldexp(1.0, 31) - 1) * std::ldexp(1.0, -16));
  EXPECT_DOUBLE_EQ(q16.min_value(), -std::ldexp(1.0, 15));

  const FixedSpec u8{8, 4, false};
  EXPECT_DOUBLE_EQ(u8.max_value(), 255.0 / 16.0);
  EXPECT_DOUBLE_EQ(u8.min_value(), 0.0);
  EXPECT_EQ(u8.name(), "ufix8.4");
}

TEST(FixedValue, ExactRoundTripOnGridPoints) {
  const FixedSpec spec{32, 12, true};
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = static_cast<double>(rng.next_int(-1000000, 1000000)) *
                     spec.resolution();
    EXPECT_DOUBLE_EQ(FixedValue::from_double(spec, x).to_double(), x);
  }
}

TEST(FixedValue, QuantizationErrorBoundedByHalfUlp) {
  const FixedSpec spec{32, 10, true};
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double(-1000.0, 1000.0);
    const double q = quantize_fixed(spec, x);
    EXPECT_LE(std::abs(q - x), spec.resolution() / 2 + 1e-15);
  }
}

TEST(FixedValue, SaturatesInsteadOfWrapping) {
  const FixedSpec spec{16, 8, true};
  EXPECT_DOUBLE_EQ(quantize_fixed(spec, 1e9), spec.max_value());
  EXPECT_DOUBLE_EQ(quantize_fixed(spec, -1e9), spec.min_value());
  EXPECT_DOUBLE_EQ(quantize_fixed(spec, HUGE_VAL), spec.max_value());

  const auto big = FixedValue::from_double(spec, 127.0);
  EXPECT_DOUBLE_EQ((big + big).to_double(), spec.max_value());
}

TEST(FixedValue, NanQuantizesToZero) {
  const FixedSpec spec{32, 16, true};
  EXPECT_DOUBLE_EQ(quantize_fixed(spec, std::nan("")), 0.0);
}

TEST(FixedValue, AddSubExactWhenInRange) {
  const FixedSpec spec{32, 16, true};
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double a = std::round(rng.next_double(-1000, 1000) * 65536) / 65536;
    const double b = std::round(rng.next_double(-1000, 1000) * 65536) / 65536;
    const auto fa = FixedValue::from_double(spec, a);
    const auto fb = FixedValue::from_double(spec, b);
    EXPECT_DOUBLE_EQ((fa + fb).to_double(), a + b);
    EXPECT_DOUBLE_EQ((fa - fb).to_double(), a - b);
  }
}

TEST(FixedValue, MulRoundsToNearest) {
  const FixedSpec spec{32, 16, true};
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const double a = quantize_fixed(spec, rng.next_double(-100, 100));
    const double b = quantize_fixed(spec, rng.next_double(-100, 100));
    const double got = (FixedValue::from_double(spec, a) *
                        FixedValue::from_double(spec, b))
                           .to_double();
    EXPECT_LE(std::abs(got - a * b), spec.resolution() / 2 + 1e-12);
  }
}

TEST(FixedValue, DivRoundsToNearest) {
  const FixedSpec spec{32, 16, true};
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double a = quantize_fixed(spec, rng.next_double(-100, 100));
    double b = quantize_fixed(spec, rng.next_double(-100, 100));
    if (std::abs(b) < 1.0) b = std::copysign(1.0, b == 0 ? 1.0 : b);
    const double got = (FixedValue::from_double(spec, a) /
                        FixedValue::from_double(spec, b))
                           .to_double();
    EXPECT_LE(std::abs(got - a / b), spec.resolution() / 2 + 1e-12)
        << a << " / " << b;
  }
}

TEST(FixedValue, DivByZeroSaturates) {
  const FixedSpec spec{32, 16, true};
  const auto one = FixedValue::from_double(spec, 1.0);
  const auto minus = FixedValue::from_double(spec, -1.0);
  const auto zero = FixedValue::from_double(spec, 0.0);
  EXPECT_DOUBLE_EQ((one / zero).to_double(), spec.max_value());
  EXPECT_DOUBLE_EQ((minus / zero).to_double(), spec.min_value());
}

FixedValue zeroed(const FixedSpec& spec) { return FixedValue{spec, 0}; }

TEST(FixedValue, RemSignFollowsDividend) {
  const FixedSpec spec{32, 8, true};
  const auto a = FixedValue::from_double(spec, 7.5);
  const auto b = FixedValue::from_double(spec, 2.0);
  EXPECT_DOUBLE_EQ(fixed_rem(a, b).to_double(), 1.5);
  EXPECT_DOUBLE_EQ(fixed_rem(a.negate(), b).to_double(), -1.5);
  EXPECT_DOUBLE_EQ(fixed_rem(a, zeroed(spec)).to_double(), 0.0);
}

TEST(FixedValue, ShiftCastPreservesValueWhenWidening) {
  const FixedSpec narrow{32, 8, true};
  const FixedSpec wide{32, 20, true};
  const auto x = FixedValue::from_double(narrow, 13.25);
  EXPECT_DOUBLE_EQ(x.cast_to(wide).to_double(), 13.25);
}

TEST(FixedValue, ShiftCastRoundsWhenNarrowing) {
  const FixedSpec wide{32, 20, true};
  const FixedSpec narrow{32, 2, true};
  const auto x = FixedValue::from_double(wide, 1.3);
  EXPECT_DOUBLE_EQ(x.cast_to(narrow).to_double(), 1.25);
}

TEST(FixedValue, CastSaturatesWhenIntegerBitsShrink) {
  const FixedSpec src{32, 0, true};
  const FixedSpec dst{32, 24, true};
  const auto big = FixedValue::from_double(src, 1e6);
  EXPECT_DOUBLE_EQ(big.cast_to(dst).to_double(), dst.max_value());
}

TEST(FixedValue, NegateSaturatesAtIntMin) {
  const FixedSpec spec{16, 0, true};
  const FixedValue min_val{spec, -32768};
  EXPECT_DOUBLE_EQ(min_val.negate().to_double(), 32767.0);
}

// Property sweep: round trip through casts never increases error beyond the
// coarser resolution, across a grid of layouts.
class FixedCastSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FixedCastSweep, RoundTripErrorBounded) {
  const auto [f1, f2] = GetParam();
  const FixedSpec a{32, f1, true};
  const FixedSpec b{32, f2, true};
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const double x = quantize_fixed(a, rng.next_double(-50, 50));
    const double rt = FixedValue::from_double(a, x).cast_to(b).cast_to(a).to_double();
    const double coarse = std::max(a.resolution(), b.resolution());
    EXPECT_LE(std::abs(rt - x), coarse) << a.name() << " <-> " << b.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, FixedCastSweep,
                         ::testing::Combine(::testing::Values(4, 8, 16, 24),
                                            ::testing::Values(4, 8, 16, 24)));

// Mixed-format integer fixed point ops: the integer reference showing
// that the executed model (compute in binary64, then quantize) stays
// within one output ulp of integer arithmetic.
TEST(MixedFixed, AddAlignsOperands) {
  const FixedSpec a_spec{32, 20, true}, b_spec{32, 8, true}, out{32, 12, true};
  const auto a = FixedValue::from_double(a_spec, 1.25);
  const auto b = FixedValue::from_double(b_spec, 100.5);
  EXPECT_DOUBLE_EQ(fixed_add_mixed(a, b, out).to_double(), 101.75);
  EXPECT_DOUBLE_EQ(fixed_sub_mixed(b, a, out).to_double(), 99.25);
}

TEST(MixedFixed, MulFoldsRescale) {
  const FixedSpec a_spec{32, 16, true}, b_spec{32, 10, true}, out{32, 12, true};
  const auto a = FixedValue::from_double(a_spec, 3.5);
  const auto b = FixedValue::from_double(b_spec, -2.25);
  EXPECT_DOUBLE_EQ(fixed_mul_mixed(a, b, out).to_double(), -7.875);
}

TEST(MixedFixed, DivScalesDividend) {
  const FixedSpec a_spec{32, 16, true}, b_spec{32, 8, true}, out{32, 16, true};
  const auto a = FixedValue::from_double(a_spec, 7.5);
  const auto b = FixedValue::from_double(b_spec, 2.5);
  EXPECT_DOUBLE_EQ(fixed_div_mixed(a, b, out).to_double(), 3.0);
  // Division by zero saturates by dividend sign.
  const auto zero = FixedValue::from_double(b_spec, 0.0);
  EXPECT_DOUBLE_EQ(fixed_div_mixed(a, zero, out).to_double(), out.max_value());
}

TEST(MixedFixed, SaturatesAtOutputRange) {
  const FixedSpec wide{32, 4, true}, narrow{16, 8, true};
  const auto big = FixedValue::from_double(wide, 1000.0);
  EXPECT_DOUBLE_EQ(fixed_add_mixed(big, big, narrow).to_double(),
                   narrow.max_value());
  EXPECT_DOUBLE_EQ(fixed_mul_mixed(big, big, narrow).to_double(),
                   narrow.max_value());
}

// Property: the exact mixed ops agree with compute-in-double-then-quantize
// to within one output ULP (the double path's extra rounding).
class MixedFixedSweep : public ::testing::TestWithParam<int> {};

TEST_P(MixedFixedSweep, AgreesWithDoubleModel) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 2000; ++trial) {
    const FixedSpec sa{32, static_cast<int>(rng.next_int(4, 24)), true};
    const FixedSpec sb{32, static_cast<int>(rng.next_int(4, 24)), true};
    const FixedSpec so{32, static_cast<int>(rng.next_int(4, 24)), true};
    const double av = quantize_fixed(sa, rng.next_double(-30, 30));
    const double bv = quantize_fixed(sb, rng.next_double(-30, 30));
    const auto a = FixedValue::from_double(sa, av);
    const auto b = FixedValue::from_double(sb, bv);

    const double ulp = so.resolution();
    EXPECT_NEAR(fixed_add_mixed(a, b, so).to_double(),
                quantize_fixed(so, av + bv), ulp);
    EXPECT_NEAR(fixed_sub_mixed(a, b, so).to_double(),
                quantize_fixed(so, av - bv), ulp);
    EXPECT_NEAR(fixed_mul_mixed(a, b, so).to_double(),
                quantize_fixed(so, av * bv), ulp);
    if (std::abs(bv) > 0.5) {
      EXPECT_NEAR(fixed_div_mixed(a, b, so).to_double(),
                  quantize_fixed(so, av / bv), ulp)
          << av << " / " << bv;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedFixedSweep, ::testing::Values(1, 2, 3));

} // namespace
} // namespace luis::numrep
