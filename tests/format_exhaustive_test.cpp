// Exhaustive correctness proofs for every format narrow enough
// to enumerate: all 2^w encodings of each <= 8-bit encodable format are
// decoded, re-encoded, ordered, re-quantized, and checked against a
// brute-force nearest-neighbor resolution derived from the enumerated
// value set itself. Because the value set is *complete*, these are not
// spot checks — any disagreement between the codec, the rounding kernel,
// and the IEBW model is guaranteed to surface.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "numrep/formats.hpp"
#include "numrep/quantize.hpp"
#include "numrep/registry.hpp"
#include "support/rng.hpp"

namespace luis::numrep {
namespace {

/// One enumerated encoding of a format.
struct Entry {
  std::uint64_t bits;
  double value;
  std::int64_t key;
};

/// Every <= 8-bit encodable format: the catalog's narrow members
/// plus parametric spellings covering each class and encoding variant the
/// catalog alone would miss (signed/unsigned fixed, a 6-bit Ieee float, a
/// sub-byte fixed-posit, odd posit es).
std::vector<ConcreteType> formats_under_test() {
  std::vector<ConcreteType> out;
  for (const NumericFormat& f : standard_formats())
    if (f.width() <= 8 && format_ops(f).encodable(f))
      out.push_back({f, f.is_fixed() ? 3 : 0});
  // The minifloat extras use exponents whose bit layout is exact (Ieee and
  // Fnuz need E = 2^(eb-1) - 1, FiniteOnly needs E = 2^(eb-1)); other E
  // values are legal IEBW descriptors but have no bit codec.
  for (const char* name : {"fix8", "ufix8", "posit6_1", "fposit7_0_2",
                           "float3_3", "float4_3_fnuz", "float3_4_finite"}) {
    const auto fmt = parse_format(name);
    if (!fmt) {
      ADD_FAILURE() << "parse_format rejected " << name;
      continue;
    }
    EXPECT_LE(fmt->width(), 8) << name;
    EXPECT_TRUE(format_ops(*fmt).encodable(*fmt)) << name;
    out.push_back({*fmt, fmt->is_fixed() ? 3 : 0});
  }
  return out;
}

/// Decodes all 2^w patterns; NaN patterns are dropped (their count is
/// reported through `nan_patterns`).
std::vector<Entry> enumerate(const ConcreteType& t, int* nan_patterns) {
  const FormatClassOps& ops = format_ops(t);
  std::vector<Entry> out;
  *nan_patterns = 0;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << t.format.width());
       ++bits) {
    const double v = ops.decode(t, bits);
    if (std::isnan(v)) {
      ++*nan_patterns;
      continue;
    }
    out.push_back({bits, v, ops.ordering_key(t, bits)});
  }
  return out;
}

/// The finite values of the enumeration, ascending and deduplicated
/// (+0/-0 collapse to one entry).
std::vector<double> finite_values(const std::vector<Entry>& entries) {
  std::vector<double> vals;
  for (const Entry& e : entries)
    if (std::isfinite(e.value)) vals.push_back(e.value);
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

TEST(FormatExhaustive, DecodeEncodeRoundTrip) {
  for (const ConcreteType& t : formats_under_test()) {
    SCOPED_TRACE(t.name());
    const FormatClassOps& ops = format_ops(t);
    int nan_patterns = 0;
    const std::vector<Entry> entries = enumerate(t, &nan_patterns);
    ASSERT_FALSE(entries.empty());
    // Non-fixed formats all reserve at least one NaN pattern; fixed point
    // reserves none (every word is a lattice point).
    if (t.format.is_fixed()) {
      EXPECT_EQ(nan_patterns, 0);
    } else {
      EXPECT_GE(nan_patterns, 1);
    }
    for (const Entry& e : entries) {
      EXPECT_EQ(ops.encode(t, e.value), e.bits)
          << "bits=" << e.bits << " value=" << e.value;
      // The sign of a decoded zero must survive the round trip, so both
      // Ieee zero patterns re-encode to themselves (checked by the EQ
      // above); here make sure decode really produced the signed zero.
      if (e.value == 0.0 && !t.format.is_fixed() &&
          t.format.encoding() == FloatEncoding::Ieee && t.format.is_float()) {
        EXPECT_EQ(std::signbit(e.value),
                  (e.bits >> (t.format.width() - 1)) != 0);
      }
    }
  }
}

TEST(FormatExhaustive, OrderingKeyIsMonotone) {
  for (const ConcreteType& t : formats_under_test()) {
    SCOPED_TRACE(t.name());
    int nan_patterns = 0;
    std::vector<Entry> entries = enumerate(t, &nan_patterns);
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    for (std::size_t i = 1; i < entries.size(); ++i) {
      const Entry& lo = entries[i - 1];
      const Entry& hi = entries[i];
      EXPECT_LT(lo.key, hi.key) << "duplicate ordering keys";
      if (!(lo.value <= hi.value))
        ADD_FAILURE() << "decoded values not monotone in ordering_key: "
                      << "key " << lo.key << " -> " << lo.value << ", key "
                      << hi.key << " -> " << hi.value;
      // Distinct encodings may only decode equal when they are the +-0
      // pair.
      if (lo.value == hi.value) {
        EXPECT_EQ(lo.value, 0.0);
      }
    }
  }
}

TEST(FormatExhaustive, QuantizeIsIdempotentOnEveryEncoding) {
  for (const ConcreteType& t : formats_under_test()) {
    SCOPED_TRACE(t.name());
    int nan_patterns = 0;
    for (const Entry& e : enumerate(t, &nan_patterns)) {
      if (!std::isfinite(e.value)) continue;
      const double q = quantize(t, e.value);
      EXPECT_EQ(q, e.value) << "quantize moved the representable value "
                            << e.value << " to " << q;
    }
  }
}

// The IEBW model versus ground truth: for every representable value, the
// claimed resolution 2^-IEBW must sit within a binade of the distance to
// the enumerated nearest neighbors. The slack covers the definitional gap
// between "grid step" and "smallest representation-changing perturbation"
// (half a step under round-to-nearest) and posit regime boundaries, where
// the step below a value is up to useed/2 times finer than the step above.
TEST(FormatExhaustive, IebwMatchesEnumeratedNeighborGap) {
  for (const ConcreteType& t : formats_under_test()) {
    SCOPED_TRACE(t.name());
    const FormatClassOps& ops = format_ops(t);
    int nan_patterns = 0;
    const std::vector<double> vals = finite_values(enumerate(t, &nan_patterns));
    ASSERT_GE(vals.size(), 3u);
    // Posit/fixed-posit regimes change step by 2^(2^es); floats and fixed
    // by at most 2.
    const int es_slack =
        (t.format.is_posit() || t.format.is_fixed_posit())
            ? (1 << t.format.es())
            : 1;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      const double v = vals[i];
      if (v == 0.0) continue;
      const double gap_down = i > 0 ? v - vals[i - 1] : HUGE_VAL;
      const double gap_up = i + 1 < vals.size() ? vals[i + 1] - v : HUGE_VAL;
      const double gap_min = std::min(gap_down, gap_up);
      const double gap_max =
          std::isinf(std::max(gap_down, gap_up)) ? gap_min
                                                 : std::max(gap_down, gap_up);
      const double eps = std::ldexp(1.0, -ops.iebw(t, v));
      EXPECT_GE(eps, gap_min / (2.0 * es_slack))
          << "IEBW overclaims resolution at v=" << v << ": eps=" << eps
          << " but the nearest neighbor is " << gap_min << " away";
      EXPECT_LE(eps, gap_max * 2.0)
          << "IEBW underclaims resolution at v=" << v << ": eps=" << eps
          << " but the farthest neighbor is only " << gap_max << " away";
    }
  }
}

// Rounding never invents values: whatever quantize returns for an
// arbitrary finite input must be an enumerated encoding's value (or the
// Ieee overflow infinity).
TEST(FormatExhaustive, QuantizeLandsOnEnumeratedValues) {
  Rng rng(20260808);
  for (const ConcreteType& t : formats_under_test()) {
    SCOPED_TRACE(t.name());
    int nan_patterns = 0;
    const std::vector<double> vals = finite_values(enumerate(t, &nan_patterns));
    for (int trial = 0; trial < 2000; ++trial) {
      const double mag = std::ldexp(rng.next_double(1.0, 2.0),
                                    static_cast<int>(rng.next_int(-20, 20)));
      const double x = rng.next_bool(0.5) ? mag : -mag;
      const double q = quantize(t, x);
      if (std::isinf(q)) {
        EXPECT_EQ(t.format.encoding(), FloatEncoding::Ieee);
        continue;
      }
      ASSERT_TRUE(std::isfinite(q)) << "quantize(" << x << ") -> " << q;
      EXPECT_TRUE(std::binary_search(vals.begin(), vals.end(), q))
          << "quantize(" << x << ") produced " << q
          << ", which is not a representable value";
    }
  }
}

// The catalog's two FP8 formats match the OCP spec values bit for bit:
// spot anchors pinning the enumeration to external ground truth.
TEST(FormatExhaustive, Fp8SpecAnchors) {
  const ConcreteType e4m3{kFp8E4M3, 0};
  const ConcreteType e5m2{kFp8E5M2, 0};
  const FormatClassOps& ops = format_ops(e4m3.format);
  EXPECT_EQ(ops.decode(e4m3, 0x7E), 448.0);       // S.1111.110, max finite
  EXPECT_TRUE(std::isnan(ops.decode(e4m3, 0x7F))); // S.1111.111 is NaN
  EXPECT_EQ(ops.decode(e4m3, 0x01), 0x1p-9);      // min subnormal
  EXPECT_EQ(ops.decode(e4m3, 0x08), 0x1p-6);      // min normal
  EXPECT_EQ(ops.decode(e5m2, 0x7B), 57344.0);     // max finite
  EXPECT_TRUE(std::isinf(ops.decode(e5m2, 0x7C))); // inf
  EXPECT_EQ(ops.decode(e5m2, 0x01), 0x1p-16);     // min subnormal
  const ConcreteType fnuz{kFp8E4M3Fnuz, 0};
  EXPECT_EQ(format_ops(fnuz.format).decode(fnuz, 0x7F), 240.0); // max finite
  EXPECT_TRUE(std::isnan(format_ops(fnuz.format).decode(fnuz, 0x80)));
  EXPECT_EQ(format_ops(fnuz.format).decode(fnuz, 0x01), 0x1p-10);
}

} // namespace
} // namespace luis::numrep
