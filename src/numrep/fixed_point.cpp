#include "numrep/fixed_point.hpp"

#include <bit>
#include <cmath>

#include "support/diag.hpp"
#include "support/string_utils.hpp"

namespace luis::numrep {
namespace {

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

std::int64_t saturate(const FixedSpec& s, __int128 raw) {
  const std::int64_t hi = raw_max(s);
  const std::int64_t lo = raw_min(s);
  if (raw > hi) return hi;
  if (raw < lo) return lo;
  return static_cast<std::int64_t>(raw);
}

/// Arithmetic shift right by `n` with round-to-nearest, ties away from zero.
__int128 shift_right_rounded(__int128 v, int n) {
  if (n <= 0) return v << -n;
  if (n > 126) return 0;
  const __int128 half = __int128{1} << (n - 1);
  if (v >= 0) return (v + half) >> n;
  return -((-v + half) >> n);
}

/// 2^k, k in [-1022, 1023].
double pow2(int k) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
}

void check_spec(const FixedSpec& s) {
  LUIS_ASSERT(s.width >= 2 && s.width <= 64, "fixed width must be in [2, 64]");
  LUIS_ASSERT(s.frac >= 0 && s.frac < s.width, "frac bits must be in [0, width)");
}

} // namespace

double FixedSpec::max_value() const {
  return static_cast<double>(raw_max(*this)) * resolution();
}

double FixedSpec::min_value() const {
  return static_cast<double>(raw_min(*this)) * resolution();
}

double FixedSpec::resolution() const { return std::ldexp(1.0, -frac); }

std::string FixedSpec::name() const {
  return format_string("%sfix%d.%d", is_signed ? "" : "u", width, frac);
}

FixedRounder FixedRounder::of(const FixedSpec& spec) {
  check_spec(spec);
  FixedRounder r;
  r.scale = pow2(spec.frac);
  r.unscale = pow2(-spec.frac);
  r.raw_hi = raw_max(spec);
  r.raw_lo = raw_min(spec);
  r.hi = static_cast<double>(r.raw_hi);
  r.lo = static_cast<double>(r.raw_lo);
  return r;
}

FixedValue FixedValue::from_double(FixedSpec spec, double x) {
  return FixedValue{spec, FixedRounder::of(spec).raw(x)};
}

double FixedValue::to_double() const {
  return std::ldexp(static_cast<double>(raw_), -spec_.frac);
}

FixedValue FixedValue::cast_to(FixedSpec target) const {
  check_spec(target);
  const __int128 shifted =
      shift_right_rounded(static_cast<__int128>(raw_), spec_.frac - target.frac);
  return FixedValue{target, saturate(target, shifted)};
}

FixedValue operator+(const FixedValue& a, const FixedValue& b) {
  LUIS_ASSERT(a.spec() == b.spec(), "fixed add requires matching layouts");
  const __int128 sum = static_cast<__int128>(a.raw()) + b.raw();
  return FixedValue{a.spec(), saturate(a.spec(), sum)};
}

FixedValue operator-(const FixedValue& a, const FixedValue& b) {
  LUIS_ASSERT(a.spec() == b.spec(), "fixed sub requires matching layouts");
  const __int128 diff = static_cast<__int128>(a.raw()) - b.raw();
  return FixedValue{a.spec(), saturate(a.spec(), diff)};
}

FixedValue operator*(const FixedValue& a, const FixedValue& b) {
  LUIS_ASSERT(a.spec() == b.spec(), "fixed mul requires matching layouts");
  const __int128 prod = static_cast<__int128>(a.raw()) * b.raw();
  const __int128 rescaled = shift_right_rounded(prod, a.spec().frac);
  return FixedValue{a.spec(), saturate(a.spec(), rescaled)};
}

FixedValue operator/(const FixedValue& a, const FixedValue& b) {
  LUIS_ASSERT(a.spec() == b.spec(), "fixed div requires matching layouts");
  if (b.raw() == 0) {
    // Saturate like a hardware divider with exception masking.
    return FixedValue{a.spec(), a.raw() >= 0 ? raw_max(a.spec()) : raw_min(a.spec())};
  }
  const __int128 scaled = static_cast<__int128>(a.raw()) << a.spec().frac;
  // Round-to-nearest (ties away from zero) division on magnitudes.
  const bool negative = (scaled < 0) != (b.raw() < 0);
  const unsigned __int128 n = scaled < 0 ? static_cast<unsigned __int128>(-scaled)
                                         : static_cast<unsigned __int128>(scaled);
  const unsigned __int128 d = b.raw() < 0 ? static_cast<unsigned __int128>(-static_cast<__int128>(b.raw()))
                                          : static_cast<unsigned __int128>(b.raw());
  const unsigned __int128 q = (n + d / 2) / d;
  const __int128 signed_q = negative ? -static_cast<__int128>(q) : static_cast<__int128>(q);
  return FixedValue{a.spec(), saturate(a.spec(), signed_q)};
}

FixedValue fixed_rem(const FixedValue& a, const FixedValue& b) {
  LUIS_ASSERT(a.spec() == b.spec(), "fixed rem requires matching layouts");
  if (b.raw() == 0) return FixedValue{a.spec(), 0};
  return FixedValue{a.spec(), a.raw() % b.raw()};
}

FixedValue FixedValue::negate() const {
  return FixedValue{spec_, saturate(spec_, -static_cast<__int128>(raw_))};
}

double quantize_fixed(const FixedSpec& spec, double x) {
  return FixedRounder::of(spec).round(x);
}

FixedValue fixed_add_mixed(const FixedValue& a, const FixedValue& b,
                           const FixedSpec& out) {
  check_spec(out);
  const __int128 ar =
      shift_right_rounded(static_cast<__int128>(a.raw()), a.spec().frac - out.frac);
  const __int128 br =
      shift_right_rounded(static_cast<__int128>(b.raw()), b.spec().frac - out.frac);
  return FixedValue{out, saturate(out, ar + br)};
}

FixedValue fixed_sub_mixed(const FixedValue& a, const FixedValue& b,
                           const FixedSpec& out) {
  check_spec(out);
  const __int128 ar =
      shift_right_rounded(static_cast<__int128>(a.raw()), a.spec().frac - out.frac);
  const __int128 br =
      shift_right_rounded(static_cast<__int128>(b.raw()), b.spec().frac - out.frac);
  return FixedValue{out, saturate(out, ar - br)};
}

FixedValue fixed_mul_mixed(const FixedValue& a, const FixedValue& b,
                           const FixedSpec& out) {
  check_spec(out);
  const __int128 prod = static_cast<__int128>(a.raw()) * b.raw();
  const int shift = a.spec().frac + b.spec().frac - out.frac;
  return FixedValue{out, saturate(out, shift_right_rounded(prod, shift))};
}

FixedValue fixed_div_mixed(const FixedValue& a, const FixedValue& b,
                           const FixedSpec& out) {
  check_spec(out);
  if (b.raw() == 0) {
    return FixedValue{out, a.raw() >= 0 ? raw_max(out) : raw_min(out)};
  }
  // Scale the dividend so the quotient lands on out's grid:
  // (a / 2^fa) / (b / 2^fb) * 2^fout = a * 2^(fout + fb - fa) / b.
  const int shift = out.frac + b.spec().frac - a.spec().frac;
  __int128 num = static_cast<__int128>(a.raw());
  if (shift >= 0) {
    if (shift > 100) return FixedValue{out, num >= 0 ? raw_max(out) : raw_min(out)};
    num <<= shift;
  } else {
    num = shift_right_rounded(num, -shift);
  }
  const bool negative = (num < 0) != (b.raw() < 0);
  const unsigned __int128 n = num < 0 ? static_cast<unsigned __int128>(-num)
                                      : static_cast<unsigned __int128>(num);
  const unsigned __int128 d =
      b.raw() < 0 ? static_cast<unsigned __int128>(-static_cast<__int128>(b.raw()))
                  : static_cast<unsigned __int128>(b.raw());
  const unsigned __int128 q = (n + d / 2) / d;
  const __int128 signed_q =
      negative ? -static_cast<__int128>(q) : static_cast<__int128>(q);
  return FixedValue{out, saturate(out, signed_q)};
}

} // namespace luis::numrep
