#include <gtest/gtest.h>

#include <cmath>

#include "numrep/posit.hpp"
#include "support/rng.hpp"
#include "format_param_names.hpp"

namespace luis::numrep {
namespace {

TEST(Posit, ZeroAndNaR) {
  const auto zero = Posit::from_double(kPosit16, 0.0);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.to_double(), 0.0);

  const auto nar = Posit::from_double(kPosit16, std::nan(""));
  EXPECT_TRUE(nar.is_nar());
  EXPECT_TRUE(std::isnan(nar.to_double()));
  EXPECT_TRUE(Posit::from_double(kPosit16, HUGE_VAL).is_nar());
  EXPECT_EQ(nar.bits(), 0x8000u);
}

TEST(Posit, KnownPosit8Encodings) {
  // posit8_0: 1.0 = 0b0100'0000, useed = 2.
  EXPECT_EQ(Posit::from_double(kPosit8, 1.0).bits(), 0x40u);
  EXPECT_EQ(Posit::from_double(kPosit8, 2.0).bits(), 0x60u);
  EXPECT_EQ(Posit::from_double(kPosit8, 0.5).bits(), 0x20u);
  EXPECT_EQ(Posit::from_double(kPosit8, 1.5).bits(), 0x50u);
  EXPECT_EQ(Posit::from_double(kPosit8, -1.0).bits(), 0xC0u);
  // maxpos for posit8_0 is 2^6 = 64, minpos is 2^-6.
  EXPECT_EQ(posit_max_value(kPosit8), 64.0);
  EXPECT_EQ(posit_min_value(kPosit8), 1.0 / 64.0);
  EXPECT_EQ(Posit::from_double(kPosit8, 64.0).bits(), 0x7Fu);
  EXPECT_EQ(Posit::from_double(kPosit8, 1.0 / 64).bits(), 0x01u);
}

TEST(Posit, KnownPosit16Values) {
  // posit16_1: 1.0 = 0b0100'0000'0000'0000.
  EXPECT_EQ(Posit::from_double(kPosit16, 1.0).bits(), 0x4000u);
  EXPECT_EQ(Posit::from_double(kPosit16, 1.0).to_double(), 1.0);
  // useed = 2^(2^1) = 4 -> 4.0 has regime k=1, e=0.
  const auto four = Posit::from_double(kPosit16, 4.0);
  EXPECT_EQ(four.to_double(), 4.0);
  const auto fields = four.fields();
  EXPECT_EQ(fields.regime, 1);
  EXPECT_EQ(fields.exponent, 0);
}

TEST(Posit, SaturationNeverOverflowsOrUnderflows) {
  EXPECT_EQ(Posit::from_double(kPosit8, 1e30).to_double(), 64.0);
  EXPECT_EQ(Posit::from_double(kPosit8, -1e30).to_double(), -64.0);
  EXPECT_EQ(Posit::from_double(kPosit8, 1e-30).to_double(), 1.0 / 64.0);
  EXPECT_EQ(Posit::from_double(kPosit8, -1e-30).to_double(), -1.0 / 64.0);
}

TEST(Posit, NegationIsExact) {
  // Rounding is symmetric: the posit of -x is the exact negation of the
  // posit of x, and its pattern is the two's complement of x's pattern.
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const double x = std::ldexp(rng.next_double(-2, 2), rng.next_int(-10, 10));
    EXPECT_EQ(quantize_posit(kPosit16, -x), -quantize_posit(kPosit16, x));
    const auto p = Posit::from_double(kPosit16, x);
    EXPECT_EQ(Posit::from_double(kPosit16, -x).bits(),
              (~p.bits() + 1) & 0xFFFFu);
  }
}

TEST(Posit, RoundTripIsIdempotent) {
  Rng rng(2);
  for (const auto& fmt : {kPosit8, kPosit16, kPosit32}) {
    for (int i = 0; i < 1000; ++i) {
      const double x = std::ldexp(rng.next_double(-2, 2), rng.next_int(-20, 20));
      const double once = quantize_posit(fmt, x);
      EXPECT_EQ(quantize_posit(fmt, once), once) << fmt.name() << " " << x;
    }
  }
}

TEST(Posit, AllPosit8BitPatternsRoundTripExactly) {
  // Exhaustive: decode every posit8 pattern and re-encode it.
  for (unsigned bits = 0; bits < 256; ++bits) {
    const Posit p{kPosit8, bits};
    if (p.is_nar()) continue;
    const double v = p.to_double();
    EXPECT_EQ(Posit::from_double(kPosit8, v).bits(), bits) << "pattern " << bits;
  }
}

TEST(Posit, AllPosit16BitPatternsRoundTripExactly) {
  for (unsigned bits = 0; bits < 65536; ++bits) {
    const Posit p{kPosit16, bits};
    if (p.is_nar()) continue;
    const double v = p.to_double();
    ASSERT_EQ(Posit::from_double(kPosit16, v).bits(), bits) << "pattern " << bits;
  }
}

TEST(Posit, MonotoneInValue) {
  // Posit bit patterns (as signed integers) are ordered like their values.
  double prev = -HUGE_VAL;
  for (int sbits = -128; sbits < 128; ++sbits) {
    const auto bits = static_cast<std::uint32_t>(sbits) & 0xFFu;
    const Posit p{kPosit8, bits};
    if (p.is_nar()) {
      prev = -HUGE_VAL; // NaR is the most negative pattern; restart
      continue;
    }
    const double v = p.to_double();
    EXPECT_GT(v, prev) << "pattern " << sbits;
    prev = v;
  }
}

TEST(Posit, RoundsToNearest) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double x = std::ldexp(1.0 + rng.next_double(), rng.next_int(-5, 5));
    const auto p = Posit::from_double(kPosit16, x);
    const double v = p.to_double();
    // The neighbour patterns must not be closer to x than the chosen one.
    const Posit up{kPosit16, (p.bits() + 1) & 0xFFFFu};
    const Posit down{kPosit16, (p.bits() - 1) & 0xFFFFu};
    if (!up.is_nar()) {
      EXPECT_LE(std::abs(v - x), std::abs(up.to_double() - x) * (1 + 1e-12));
    }
    if (!down.is_nar()) {
      EXPECT_LE(std::abs(v - x), std::abs(down.to_double() - x) * (1 + 1e-12));
    }
  }
}

TEST(Posit, ArithmeticBasics) {
  // Posit arithmetic is a binary64 operation, then one rounding.
  const double a = quantize_posit(kPosit16, 1.5);
  const double b = quantize_posit(kPosit16, 0.25);
  EXPECT_EQ(quantize_posit(kPosit16, a + b), 1.75);
  EXPECT_EQ(quantize_posit(kPosit16, a - b), 1.25);
  EXPECT_EQ(quantize_posit(kPosit16, a * b), 0.375);
  EXPECT_EQ(quantize_posit(kPosit16, a / b), 6.0);
  // A result between two posits rounds to one of them: posit16_1 has 12
  // fraction bits at 1.0, so 1 + 2^-14 rounds back to 1.
  EXPECT_EQ(quantize_posit(kPosit16, 1.0 + std::ldexp(1.0, -14)), 1.0);
}

TEST(Posit, FieldsOfOne) {
  const auto one = Posit::from_double(kPosit32, 1.0).fields();
  EXPECT_FALSE(one.negative);
  EXPECT_EQ(one.regime, 0);
  EXPECT_EQ(one.exponent, 0);
  EXPECT_EQ(one.fraction, 0u);
  // posit32_2: sign(1) + regime(2) + es(2) -> 27 fraction bits.
  EXPECT_EQ(one.fraction_bits, 27);
}

TEST(Posit, FractionBitsShrinkWithRegime) {
  // Larger magnitudes need longer regimes, leaving fewer fraction bits:
  // tapered precision is the defining posit property.
  int prev_frac_bits = 64;
  for (double x = 1.0; x <= 1e6; x *= 16.0) {
    const auto f = Posit::from_double(kPosit32, x * 1.000001).fields();
    EXPECT_LE(f.fraction_bits, prev_frac_bits);
    prev_frac_bits = f.fraction_bits;
  }
}

class PositWidthSweep : public ::testing::TestWithParam<NumericFormat> {};

TEST_P(PositWidthSweep, QuantizationIdempotentAndBounded) {
  const NumericFormat fmt = GetParam();
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const double x = std::ldexp(rng.next_double(-2, 2), rng.next_int(-8, 8));
    const double q = quantize_posit(fmt, x);
    EXPECT_EQ(quantize_posit(fmt, q), q);
    // Inside the dynamic range (away from the minpos/maxpos taper, where
    // posit saturation has unbounded relative error by design) rounding
    // keeps at least one significant bit.
    if (x != 0.0 && std::abs(x) >= posit_min_value(fmt) * 4 &&
        std::abs(x) <= posit_max_value(fmt) / 4) {
      EXPECT_LT(std::abs(q - x) / std::abs(x), 0.5) << fmt.name() << " " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PositWidthSweep,
                         ::testing::Values(kPosit8, kPosit16, kPosit32,
                                           NumericFormat::posit(6, 0),
                                           NumericFormat::posit(12, 2)),
                         [](const auto& info) {
                           return test_case_name(info.param);
                         });

} // namespace
} // namespace luis::numrep
