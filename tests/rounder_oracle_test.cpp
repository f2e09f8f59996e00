// Bitwise oracle tests for the float and fixed point rounders.
//
// The rounders in src/numrep (FloatRounder, FixedRounder) work on resolved
// constants with integer and bit arithmetic. The routines below are the
// libm-based rounders they replaced, copied verbatim, and serve as the
// oracle: every entry point that rounds (round_to_format, quantize_fixed,
// FixedValue::from_double / to_double, numrep::quantize and the VM's bound
// quantizer) must return the oracle's bit pattern on every input tried.
// The VM-vs-reference checks cannot catch a rounding change, because both
// engines call the same rounders, and format_exhaustive_test covers only
// formats of 8 bits or fewer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "numrep/fixed_point.hpp"
#include "numrep/kernels.hpp"
#include "numrep/quantize.hpp"
#include "numrep/soft_float.hpp"
#include "support/rng.hpp"

namespace luis::numrep {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the pre-change soft_float.cpp rounder, verbatim, except that
// its float_max_value calls name this copy (argument-dependent lookup
// would also find numrep::float_max_value).
// ---------------------------------------------------------------------------
namespace oracle {

void check_executable(const NumericFormat& f) {
  ASSERT_TRUE(f.is_float()) << "round_to_format requires a floating point format";
  ASSERT_TRUE(f.precision() >= 2 && f.precision() <= 53)
      << "executable float precision must be in [2, 53]";
  ASSERT_TRUE(f.max_exponent() >= 1 && f.max_exponent() <= 1023)
      << "executable float max exponent must be in [1, 1023]";
}

/// Rounds x to an integral multiple of 2^q, round to nearest even.
/// Exact because |x / 2^q| < 2^53 at every call site.
double round_to_quantum(double x, int q) {
  const double scaled = std::ldexp(x, -q);
  // nearbyint honours the current rounding mode; the default mode is
  // round-to-nearest-even, which is what every format here uses.
  return std::ldexp(std::nearbyint(scaled), q);
}

double float_max_value(const NumericFormat& f) {
  // FiniteOnly spends its all-ones (exp, mantissa) pattern on NaN, so the
  // top binade stops one ULP early: (2 - 2^(2-p)) * 2^E (448 for E4M3).
  const int top = f.encoding() == FloatEncoding::FiniteOnly ? 2 : 1;
  return std::ldexp(2.0 - std::ldexp(1.0, top - f.precision()),
                    f.max_exponent());
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
    return std::copysign(oracle::float_max_value(format), x);
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
    const double maxv = oracle::float_max_value(format);
    if (std::abs(rounded) > maxv) return std::copysign(maxv, x);
    return rounded;
  }
  // Overflow: values that round to or beyond 2^(emax+1) - for IEEE round to
  // nearest even, anything >= (2 - 2^-p) * 2^emax becomes infinity.
  const double threshold =
      std::ldexp(2.0 - std::ldexp(1.0, -p), emax); // halfway to 2^(emax+1)
  if (std::abs(rounded) >= threshold)
    return std::copysign(HUGE_VAL, x);
  if (std::abs(rounded) > oracle::float_max_value(format))
    return std::copysign(oracle::float_max_value(format), x);
  return rounded;
}

// ---------------------------------------------------------------------------
// Oracle: the pre-change fixed_point.cpp from_double / to_double, verbatim.
// ---------------------------------------------------------------------------

std::int64_t raw_max(const FixedSpec& s) {
  const int magnitude_bits = s.is_signed ? s.width - 1 : s.width;
  if (magnitude_bits >= 63) return INT64_MAX;
  return (std::int64_t{1} << magnitude_bits) - 1;
}

std::int64_t raw_min(const FixedSpec& s) {
  if (!s.is_signed) return 0;
  if (s.width - 1 >= 63) return INT64_MIN;
  return -(std::int64_t{1} << (s.width - 1));
}

void check_spec(const FixedSpec& s) {
  ASSERT_TRUE(s.width >= 2 && s.width <= 64) << "fixed width must be in [2, 64]";
  ASSERT_TRUE(s.frac >= 0 && s.frac < s.width) << "frac bits must be in [0, width)";
}

/// FixedValue::from_double's raw integer.
std::int64_t from_double(FixedSpec spec, double x) {
  check_spec(spec);
  if (std::isnan(x)) return 0;
  const double scaled = std::ldexp(x, spec.frac);
  // Saturate on overflow, including +-inf inputs.
  if (scaled >= static_cast<double>(raw_max(spec)))
    return raw_max(spec);
  if (scaled <= static_cast<double>(raw_min(spec)))
    return raw_min(spec);
  return static_cast<std::int64_t>(std::llround(scaled));
}

/// FixedValue::to_double.
double to_double(FixedSpec spec, std::int64_t raw) {
  return std::ldexp(static_cast<double>(raw), -spec.frac);
}

} // namespace oracle

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

/// The float formats under test: every executable catalog float (all three
/// encodings), plus parametric spellings at the corners of the constant
/// resolution — p = 2 and p = 53, E = 1 and E = 1023, and the Fnuz layout
/// whose emin (-1023) is below binary64's.
std::vector<NumericFormat> float_formats() {
  std::vector<NumericFormat> out;
  for (const NumericFormat& f : executable_formats())
    if (f.is_float()) out.push_back(f);
  for (const char* name :
       {"float2_1", "float2_1_finite", "float2_1_fnuz", "float3_4_finite",
        "float53_1023_fnuz", "float52_1023_fnuz", "float51_1023_fnuz",
        "float53_1023_finite", "float53_100", "float24_1023", "float2_1023",
        "float12_1020_finite", "float30_200_fnuz"}) {
    const auto f = parse_executable_format(name);
    EXPECT_TRUE(f.has_value()) << name;
    if (f) out.push_back(*f);
  }
  return out;
}

/// Inputs at the float rounder's edges for `f`: signed zeros, NaNs with
/// payloads, infinities, binary64 subnormals, the target's subnormals and
/// every binade's ties at the target quantum, and the largest finite value
/// and the overflow threshold, each with its binary64 neighbours.
std::vector<double> float_edge_inputs(const NumericFormat& f) {
  std::vector<double> xs = {
      0.0, -0.0, HUGE_VAL, -HUGE_VAL,
      from_bits(0x7ff8000000000000), from_bits(0xfff8000000000000),
      from_bits(0x7ff8000000000001), from_bits(0x7ff0000000000001),
      from_bits(0xfff00000deadbeef), from_bits(0x7fffffffffffffff),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      from_bits(0x000fffffffffffff), from_bits(0x0008000000000000),
      from_bits(0x0008000000000001), from_bits(0x0007ffffffffffff),
      from_bits(0x0000000000000003), from_bits(0x0000000000123456),
      std::numeric_limits<double>::max(), 1.0, 1.5, 3.0};
  const auto near = [&xs](double v) {
    xs.push_back(v);
    xs.push_back(std::nextafter(v, HUGE_VAL));
    xs.push_back(std::nextafter(v, -HUGE_VAL));
  };
  const int p = f.precision();
  const int emax = f.max_exponent();
  const int emin = f.min_exponent();
  const double maxv = oracle::float_max_value(f);
  near(maxv);
  near(std::ldexp(2.0 - std::ldexp(1.0, -p), emax)); // overflow threshold
  near(std::ldexp(1.0, emax + 1 > 1023 ? 1023 : emax + 1));
  near(std::ldexp(1.0, emin));                      // smallest normal
  near(std::ldexp(1.0, emin - p + 1));              // smallest subnormal
  near(std::ldexp(1.0, emin - p));                  // half of it: a tie
  near(std::ldexp(1.5, emin - p));
  // Ties in the subnormal range: (k + 1/2) quanta for even and odd k.
  const int sub_q = emin - p + 1;
  for (std::int64_t k : {0, 1, 2, 3, 4, 5, 6, 7, 100, 101})
    if (p >= 2 && k < (std::int64_t{1} << std::min(p - 1, 62)))
      near(std::ldexp(static_cast<double>(2 * k + 1), sub_q - 1));
  // Ties in every normal binade: significands m + 1/2 with m even and odd,
  // at the bottom, middle and top of the binade.
  for (int e = std::max(emin, -1074 + p); e <= emax; ++e) {
    const int q = e - p + 1;
    const std::int64_t top = (std::int64_t{1} << (p - 1)) * 2 - 1;
    for (std::int64_t m :
         {std::int64_t{1} << (p - 1), (std::int64_t{1} << (p - 1)) + 1,
          (std::int64_t{3} << (p - 1)) / 2, top - 1, top}) {
      const double tie = std::ldexp(static_cast<double>(2 * m + 1), q - 1);
      if (std::isfinite(tie)) near(tie);
    }
  }
  const std::size_t n = xs.size();
  for (std::size_t i = 0; i < n; ++i) xs.push_back(-xs[i]);
  return xs;
}

/// Random inputs: uniform bit patterns (every class of double, NaNs
/// included) and log-uniform magnitudes across the format's range.
std::vector<double> random_inputs(std::uint64_t seed, int lo_exp, int hi_exp,
                                  int count) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      xs.push_back(from_bits(rng.next_u64()));
    } else {
      const double mag = std::ldexp(rng.next_double(1.0, 2.0),
                                    static_cast<int>(rng.next_int(lo_exp, hi_exp)));
      xs.push_back(rng.next_bool() ? mag : -mag);
    }
  }
  return xs;
}

/// Checks every float entry point against the oracle on `x`. Returns false
/// (after one failure message) on the first mismatch.
bool float_matches(const NumericFormat& f, const QuantSpec& spec,
                   QuantFn bound, double x) {
  const std::uint64_t want = bits_of(oracle::round_to_format(f, x));
  const ConcreteType type{f, 0};
  const std::uint64_t got[] = {
      bits_of(round_to_format(f, x)), bits_of(FloatRounder::of(f).round(x)),
      bits_of(quantize(type, x)), bits_of(bound(spec, x))};
  for (std::uint64_t g : got) {
    if (g != want) {
      ADD_FAILURE() << f.name() << " x=" << std::hexfloat << x << " bits=0x"
                    << std::hex << bits_of(x) << " got 0x" << g
                    << " want 0x" << want;
      return false;
    }
  }
  return true;
}

TEST(RounderOracle, FloatFormatsMatchBitForBit) {
  std::uint64_t seed = 1;
  for (const NumericFormat& f : float_formats()) {
    const ConcreteType type{f, 0};
    const QuantSpec spec = make_quant_spec(type);
    const QuantFn bound = bind_quantizer(type);
    for (double x : float_edge_inputs(f))
      if (!float_matches(f, spec, bound, x)) return;
    const int lo = std::max(f.min_exponent() - f.precision() - 3, -1074);
    const int hi = std::min(f.max_exponent() + 3, 1023);
    for (double x : random_inputs(seed++, lo, hi, 100000))
      if (!float_matches(f, spec, bound, x)) return;
  }
}

TEST(RounderOracle, Binary64IsTheIdentityOnEveryBitPattern) {
  const QuantFn bound = bind_quantizer({kBinary64, 0});
  const QuantSpec spec = make_quant_spec({kBinary64, 0});
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double x = from_bits(rng.next_u64());
    ASSERT_EQ(bits_of(bound(spec, x)), bits_of(x));
    ASSERT_EQ(bits_of(round_to_format(kBinary64, x)), bits_of(x));
  }
}

/// Inputs at the fixed point rounder's edges for `s`: signed zeros, NaNs,
/// infinities, binary64 subnormals, ties at the quantum 2^-f near zero and
/// near both saturation limits, and the limits themselves with their
/// binary64 neighbours.
std::vector<double> fixed_edge_inputs(const FixedSpec& s) {
  std::vector<double> xs = {
      0.0, -0.0, HUGE_VAL, -HUGE_VAL, std::nan(""), -std::nan(""),
      from_bits(0x7ff0000000000001), std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::min(), 1e300, -1e300};
  const auto near = [&xs](double v) {
    xs.push_back(v);
    xs.push_back(std::nextafter(v, HUGE_VAL));
    xs.push_back(std::nextafter(v, -HUGE_VAL));
  };
  const double q = std::ldexp(1.0, -s.frac);
  const double hi = static_cast<double>(oracle::raw_max(s)) * q;
  const double lo = static_cast<double>(oracle::raw_min(s)) * q;
  near(hi);
  near(lo);
  near(hi + q / 2);
  near(hi - q / 2);
  near(lo - q / 2);
  near(lo + q / 2);
  for (int k = -4; k <= 4; ++k) near((k + 0.5) * q); // ties near zero
  for (int k = 1; k <= 3; ++k) {
    near(hi - (k + 0.5) * q); // ties below the upper limit
    near(lo + (k + 0.5) * q);
  }
  return xs;
}

/// Checks every fixed point entry point against the oracle on `x`.
bool fixed_matches(const FixedSpec& s, const QuantSpec& spec, QuantFn bound,
                   double x) {
  const std::int64_t want_raw = oracle::from_double(s, x);
  const std::uint64_t want = bits_of(oracle::to_double(s, want_raw));
  const ConcreteType type{NumericFormat::fixed(s.width, s.is_signed), s.frac};
  const FixedValue v = FixedValue::from_double(s, x);
  const std::uint64_t got[] = {
      bits_of(quantize_fixed(s, x)), bits_of(FixedRounder::of(s).round(x)),
      bits_of(v.to_double()), bits_of(quantize(type, x)),
      bits_of(bound(spec, x))};
  bool ok = v.raw() == want_raw;
  for (std::uint64_t g : got) ok = ok && g == want;
  if (!ok)
    ADD_FAILURE() << s.name() << " x=" << std::hexfloat << x << " raw "
                  << v.raw() << " want raw " << want_raw;
  return ok;
}

TEST(RounderOracle, FixedLayoutsMatchBitForBit) {
  std::uint64_t seed = 100;
  for (bool is_signed : {true, false}) {
    for (int width = 2; width <= 64; ++width) {
      std::vector<FixedSpec> specs;
      std::vector<QuantSpec> resolved;
      std::vector<QuantFn> bound;
      for (int frac = 0; frac < width; ++frac) {
        const FixedSpec s{width, frac, is_signed};
        const ConcreteType type{NumericFormat::fixed(width, is_signed), frac};
        specs.push_back(s);
        resolved.push_back(make_quant_spec(type));
        bound.push_back(bind_quantizer(type));
        for (double x : fixed_edge_inputs(s))
          if (!fixed_matches(s, resolved.back(), bound.back(), x)) return;
      }
      // 10^5 random doubles per (width, signedness), over every frac.
      const std::vector<double> xs =
          random_inputs(seed++, -width - 4, width + 4, 100000);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const std::size_t k = i % specs.size();
        if (!fixed_matches(specs[k], resolved[k], bound[k], xs[i])) return;
      }
    }
  }
}

} // namespace
} // namespace luis::numrep
