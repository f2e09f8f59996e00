#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "numrep/soft_float.hpp"
#include "support/rng.hpp"
#include "format_param_names.hpp"

namespace luis::numrep {
namespace {

TEST(Formats, TableOneParameters) {
  // Table I of the paper.
  EXPECT_EQ(kBinary16.precision(), 11);
  EXPECT_EQ(kBinary16.max_exponent(), 15);
  EXPECT_EQ(kBinary32.precision(), 24);
  EXPECT_EQ(kBinary32.max_exponent(), 127);
  EXPECT_EQ(kBinary64.precision(), 53);
  EXPECT_EQ(kBinary64.max_exponent(), 1023);
  EXPECT_EQ(kBinary128.precision(), 113);
  EXPECT_EQ(kBinary128.max_exponent(), 16383);
  EXPECT_EQ(kBinary256.precision(), 237);
  EXPECT_EQ(kBinary256.max_exponent(), 262143);
  EXPECT_EQ(kBfloat16.precision(), 8);
  EXPECT_EQ(kBfloat16.max_exponent(), 127);
}

TEST(Formats, NamesRoundTripThroughParser) {
  for (const NumericFormat& fmt : standard_formats()) {
    const auto parsed = parse_format(fmt.name());
    ASSERT_TRUE(parsed.has_value()) << fmt.name();
    EXPECT_EQ(*parsed, fmt) << fmt.name();
  }
  EXPECT_FALSE(parse_format("binary42").has_value());
  EXPECT_EQ(*parse_format("float"), kBinary32);
  EXPECT_EQ(*parse_format("double"), kBinary64);
  EXPECT_EQ(*parse_format("fix"), kFixed32);
  EXPECT_EQ(parse_format("fix24")->width(), 24);
  EXPECT_FALSE(parse_format("fix24")->is_float());
  EXPECT_EQ(parse_format("posit10_1")->es(), 1);
}

TEST(SoftFloat, Binary64IsIdentity) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.next_double(-1e300, 1e300);
    EXPECT_EQ(round_to_format(kBinary64, x), x);
  }
}

TEST(SoftFloat, Binary32MatchesNativeFloat) {
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    double x;
    switch (i % 4) {
    case 0: x = rng.next_double(-1e3, 1e3); break;
    case 1: x = rng.next_double(-1e-30, 1e-30); break;
    case 2: x = rng.next_double(-1e38, 1e38); break;
    default: x = std::ldexp(rng.next_double(-1, 1), rng.next_int(-140, 130));
    }
    const double expected = static_cast<double>(static_cast<float>(x));
    EXPECT_EQ(round_to_format(kBinary32, x), expected) << x;
  }
}

TEST(SoftFloat, Binary32SubnormalsMatchNative) {
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const double x = std::ldexp(rng.next_double(-1, 1), rng.next_int(-150, -125));
    const double expected = static_cast<double>(static_cast<float>(x));
    EXPECT_EQ(round_to_format(kBinary32, x), expected) << x;
  }
}

TEST(SoftFloat, Binary32OverflowMatchesNative) {
  const double just_over = std::ldexp(1.9999999999, 127);
  EXPECT_EQ(round_to_format(kBinary32, just_over),
            static_cast<double>(static_cast<float>(just_over)));
  EXPECT_TRUE(std::isinf(round_to_format(kBinary32, 1e39)));
  EXPECT_TRUE(std::isinf(round_to_format(kBinary32, -1e39)));
  EXPECT_LT(round_to_format(kBinary32, -1e39), 0.0);
}

TEST(SoftFloat, SpecialValuesPassThrough) {
  EXPECT_EQ(round_to_format(kBinary16, 0.0), 0.0);
  EXPECT_TRUE(std::signbit(round_to_format(kBinary16, -0.0)));
  EXPECT_TRUE(std::isnan(round_to_format(kBinary16, std::nan(""))));
  EXPECT_TRUE(std::isinf(round_to_format(kBinary16, HUGE_VAL)));
}

TEST(SoftFloat, Binary16KnownValues) {
  // 1 + 2^-10 is the next binary16 value after 1.0.
  EXPECT_EQ(round_to_format(kBinary16, 1.0), 1.0);
  EXPECT_EQ(round_to_format(kBinary16, 1.0 + std::ldexp(1.0, -11)), 1.0); // tie to even
  EXPECT_EQ(round_to_format(kBinary16, 1.0 + std::ldexp(1.5, -11)),
            1.0 + std::ldexp(1.0, -10));
  // Max finite binary16 is 65504; 65520 is the rounding boundary to inf.
  EXPECT_EQ(float_max_value(kBinary16), 65504.0);
  EXPECT_EQ(round_to_format(kBinary16, 65519.0), 65504.0);
  EXPECT_TRUE(std::isinf(round_to_format(kBinary16, 65520.0)));
  // Smallest positive subnormal: 2^-24.
  EXPECT_EQ(float_min_subnormal(kBinary16), std::ldexp(1.0, -24));
  EXPECT_EQ(round_to_format(kBinary16, std::ldexp(1.0, -25) * 1.5),
            std::ldexp(1.0, -24));
}

TEST(SoftFloat, BfloatKnownValues) {
  // bfloat16 has 8 bits of precision: ULP at 1.0 is 2^-7.
  EXPECT_EQ(round_to_format(kBfloat16, 1.0 + std::ldexp(1.0, -9)), 1.0);
  EXPECT_EQ(round_to_format(kBfloat16, 1.0 + std::ldexp(1.1, -8)),
            1.0 + std::ldexp(1.0, -7));
  // Same exponent range as binary32: 1e38 is finite, 1e39 overflows.
  EXPECT_TRUE(std::isfinite(round_to_format(kBfloat16, 1e38)));
  EXPECT_TRUE(std::isinf(round_to_format(kBfloat16, 1e39)));
}

TEST(SoftFloat, IdempotentRounding) {
  Rng rng(4);
  for (const auto& fmt : {kBinary16, kBfloat16, kBinary32}) {
    for (int i = 0; i < 2000; ++i) {
      const double x = std::ldexp(rng.next_double(-2, 2), rng.next_int(-30, 30));
      const double once = round_to_format(fmt, x);
      EXPECT_EQ(round_to_format(fmt, once), once);
    }
  }
}

TEST(SoftFloat, MonotoneRounding) {
  Rng rng(5);
  for (const auto& fmt : {kBinary16, kBfloat16, kBinary32}) {
    for (int i = 0; i < 2000; ++i) {
      const double a = rng.next_double(-1e4, 1e4);
      const double b = rng.next_double(-1e4, 1e4);
      const double ra = round_to_format(fmt, std::min(a, b));
      const double rb = round_to_format(fmt, std::max(a, b));
      EXPECT_LE(ra, rb);
    }
  }
}

TEST(SoftFloat, ArithmeticMatchesNativeFloat) {
  // A binary64 operation, then one rounding: for binary32 operands this is
  // the correctly rounded binary32 sum, difference and product.
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    const auto fa = static_cast<float>(rng.next_double(-1e3, 1e3));
    const auto fb = static_cast<float>(rng.next_double(-1e3, 1e3));
    const double a = fa, b = fb;
    EXPECT_EQ(round_to_format(kBinary32, a + b), static_cast<double>(fa + fb));
    EXPECT_EQ(round_to_format(kBinary32, a - b), static_cast<double>(fa - fb));
    EXPECT_EQ(round_to_format(kBinary32, a * b), static_cast<double>(fa * fb));
  }
}

TEST(SoftFloat, ExecutabilityPredicate) {
  EXPECT_TRUE(is_executable_float(kBinary16));
  EXPECT_TRUE(is_executable_float(kBinary32));
  EXPECT_TRUE(is_executable_float(kBinary64));
  EXPECT_TRUE(is_executable_float(kBfloat16));
  EXPECT_FALSE(is_executable_float(kBinary128));
  EXPECT_FALSE(is_executable_float(kBinary256));
  EXPECT_FALSE(is_executable_float(kFixed32));
}

// Parameterized property: for every executable format, |round(x) - x| is at
// most half an ULP of x in that format (normal range).
class RoundingErrorSweep : public ::testing::TestWithParam<NumericFormat> {};

TEST_P(RoundingErrorSweep, HalfUlpBound) {
  const NumericFormat fmt = GetParam();
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    const int e = static_cast<int>(rng.next_int(fmt.min_exponent() + 1,
                                                std::min(fmt.max_exponent() - 1, 100)));
    const double x = std::ldexp(1.0 + rng.next_double(), e);
    const double ulp = std::ldexp(1.0, e - fmt.precision() + 1);
    EXPECT_LE(std::abs(round_to_format(fmt, x) - x), ulp / 2 * (1 + 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, RoundingErrorSweep,
                         ::testing::Values(kBinary16, kBfloat16, kBinary32,
                                           NumericFormat::floating(10, 63, 16),
                                           NumericFormat::floating(30, 255, 32)),
                         [](const auto& info) {
                           return test_case_name(info.param);
                         });

} // namespace
} // namespace luis::numrep
