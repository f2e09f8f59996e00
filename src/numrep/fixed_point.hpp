// Run-time parameterized fixed point arithmetic.
//
// A FixedSpec is a concrete fixed point layout: total width w (2..64 bits),
// signedness, and fractional bit count f. Values are stored as raw two's
// complement integers scaled by 2^-f. Arithmetic saturates on overflow
// (matching the behaviour of TAFFO's generated code) and rounds to nearest
// with ties away from zero on precision loss, which is what LLVM emits for
// float-to-fixed conversion sequences.
//
// The rounding step is FixedRounder: a layout's scale and saturation
// limits are resolved once (FixedRounder::of, or numrep::make_quant_spec
// for the VM), and each rounding is a multiply by 2^f, two compares and a
// truncate-and-correct round half away from zero — no libm call.
// FixedValue::from_double and quantize_fixed go through it, so it is the
// only fixed point rounding in src/.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "numrep/formats.hpp"

namespace luis::numrep {

struct FixedSpec {
  int width = 32;
  int frac = 16;
  bool is_signed = true;

  static FixedSpec from(const ConcreteType& type) {
    return FixedSpec{type.format.width(), type.frac_bits, type.format.is_signed()};
  }

  /// Largest representable value.
  double max_value() const;
  /// Smallest representable value (negative for signed, 0 for unsigned).
  double min_value() const;
  /// Value of one unit in the last place: 2^-frac.
  double resolution() const;

  std::string name() const;
  friend bool operator==(const FixedSpec&, const FixedSpec&) = default;
};

/// The rounding constants of one fixed point layout.
struct FixedRounder {
  double scale = 1.0;   ///< 2^f
  double unscale = 1.0; ///< 2^-f
  double hi = 0.0;      ///< raw_hi as a double: scaled values at or above saturate
  double lo = 0.0;      ///< raw_lo as a double: scaled values at or below saturate
  std::int64_t raw_hi = 0, raw_lo = 0;

  /// Resolves the constants of `spec` (width in [2, 64], f in [0, width)).
  static FixedRounder of(const FixedSpec& spec);

  /// Round to nearest, ties away from zero, saturating at the raw limits
  /// (+-inf included); NaN becomes 0.
  std::int64_t raw(double x) const {
    if (std::isnan(x)) return 0;
    const double scaled = x * scale; // exact: a power-of-two scale
    if (scaled >= hi) return raw_hi;
    if (scaled <= lo) return raw_lo;
    // |scaled| < 2^63 here, so the truncation is defined, and the
    // remainder scaled - t is exact.
    const auto t = static_cast<std::int64_t>(scaled);
    const double rest = scaled - static_cast<double>(t);
    return t + (rest >= 0.5 ? 1 : 0) - (rest <= -0.5 ? 1 : 0);
  }

  double round(double x) const {
    return static_cast<double>(raw(x)) * unscale;
  }
};

/// A fixed point value: raw integer plus its layout.
class FixedValue {
public:
  FixedValue() = default;
  FixedValue(FixedSpec spec, std::int64_t raw) : spec_(spec), raw_(raw) {}

  /// Quantizes `x` into `spec` (round to nearest, saturating).
  static FixedValue from_double(FixedSpec spec, double x);

  const FixedSpec& spec() const { return spec_; }
  std::int64_t raw() const { return raw_; }
  double to_double() const;

  /// Reinterprets this value in a different layout (the "shift cast" of the
  /// paper's C_fix term when widths match, a full cast otherwise).
  FixedValue cast_to(FixedSpec target) const;

  friend FixedValue operator+(const FixedValue& a, const FixedValue& b);
  friend FixedValue operator-(const FixedValue& a, const FixedValue& b);
  friend FixedValue operator*(const FixedValue& a, const FixedValue& b);
  friend FixedValue operator/(const FixedValue& a, const FixedValue& b);
  /// Remainder with the sign of the dividend, like LLVM frem.
  friend FixedValue fixed_rem(const FixedValue& a, const FixedValue& b);
  FixedValue negate() const;

private:
  FixedSpec spec_{};
  std::int64_t raw_ = 0;
};

/// Round-to-nearest quantization of `x` onto the grid of `spec`, saturating
/// at the representable range. This is the single entry point the IR
/// interpreter uses to model fixed point rounding.
double quantize_fixed(const FixedSpec& spec, double x);

// --- Mixed-format arithmetic ---
//
// What TAFFO-generated fixed point code actually computes: operands keep
// their own Q formats and the operation produces `out` directly. Additive
// operations realign both operands to `out` first (shift casts); the
// multiplicative ones fold the realignment into the product/quotient
// rescale. All results round to nearest and saturate at `out`'s range.

FixedValue fixed_add_mixed(const FixedValue& a, const FixedValue& b,
                           const FixedSpec& out);
FixedValue fixed_sub_mixed(const FixedValue& a, const FixedValue& b,
                           const FixedSpec& out);
/// (a_raw * b_raw) >> (fa + fb - f_out), rounded and saturated.
FixedValue fixed_mul_mixed(const FixedValue& a, const FixedValue& b,
                           const FixedSpec& out);
/// (a_raw << (f_out + fb - fa)) / b_raw, rounded and saturated.
FixedValue fixed_div_mixed(const FixedValue& a, const FixedValue& b,
                           const FixedSpec& out);

} // namespace luis::numrep
