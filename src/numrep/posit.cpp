#include "numrep/posit.hpp"

#include <cmath>

#include "support/diag.hpp"

namespace luis::numrep {
namespace {

using u128 = unsigned __int128;

void check_format(const NumericFormat& f) {
  LUIS_ASSERT(f.is_posit(), "Posit requires a posit format");
  LUIS_ASSERT(f.width() >= 3 && f.width() <= 32, "posit width must be in [3, 32]");
  LUIS_ASSERT(f.es() >= 0 && f.es() <= 4, "posit es must be in [0, 4]");
}

std::uint32_t width_mask(int w) {
  return w == 32 ? 0xFFFFFFFFu : ((std::uint32_t{1} << w) - 1);
}

std::uint32_t nar_pattern(int w) { return std::uint32_t{1} << (w - 1); }

} // namespace

Posit::Posit(NumericFormat format, std::uint32_t bits)
    : format_(format), bits_(bits & width_mask(format.width())) {
  check_format(format);
}

bool Posit::is_nar() const { return bits_ == nar_pattern(format_.width()); }

Posit Posit::from_double(const NumericFormat& format, double x) {
  check_format(format);
  const int w = format.width();
  const int es = format.es();
  if (x == 0.0) return Posit{format, 0};
  if (!std::isfinite(x)) return Posit{format, nar_pattern(w)};

  const bool negative = x < 0.0;
  const double a = std::abs(x);
  const int t = std::ilogb(a);         // floor(log2 a)
  const double sig = std::ldexp(a, -t); // significand in [1, 2)

  // C++20 guarantees arithmetic right shift for signed values, so this is
  // floor division by 2^es even for negative scales.
  int k = t >> es;
  const int e = t - (k << es);
  // Regimes beyond the representable range saturate; clamping k here keeps
  // the bit stream bounded, and the body clamp below finishes the job.
  if (k > w - 2) k = w - 2;
  if (k < -(w - 1)) k = -(w - 1);

  // Assemble the unrounded magnitude bit stream: regime, exponent, and 63
  // bits of fraction (exact for a binary64 significand).
  const int regime_len = k >= 0 ? k + 2 : -k + 1;
  const u128 regime_pattern = k >= 0 ? ((u128{1} << (k + 1)) - 1) << 1 // 1...10
                                     : u128{1};                       // 0...01
  const auto fraction63 = static_cast<std::uint64_t>(std::ldexp(sig - 1.0, 63));
  u128 stream = regime_pattern;
  stream = (stream << es) | static_cast<unsigned>(e);
  stream = (stream << 63) | fraction63;
  const int stream_len = regime_len + es + 63;

  // Round the stream into the w-1 magnitude bits: nearest, ties to even.
  const int body_bits = w - 1;
  std::uint64_t body;
  if (stream_len <= body_bits) {
    body = static_cast<std::uint64_t>(stream) << (body_bits - stream_len);
  } else {
    const int shift = stream_len - body_bits;
    u128 keep = stream >> shift;
    const u128 rest = stream & ((u128{1} << shift) - 1);
    const u128 half = u128{1} << (shift - 1);
    if (rest > half || (rest == half && (keep & 1)))
      ++keep;
    body = static_cast<std::uint64_t>(keep);
  }

  // Posits saturate: never round a nonzero value to zero or past maxpos.
  const std::uint64_t max_body = (std::uint64_t{1} << body_bits) - 1;
  if (body < 1) body = 1;
  if (body > max_body) body = max_body;

  std::uint32_t bits = static_cast<std::uint32_t>(body);
  if (negative) bits = (~bits + 1) & width_mask(w); // two's complement
  return Posit{format, bits};
}

PositFields Posit::fields() const {
  const int w = format_.width();
  const int es = format_.es();
  PositFields out;
  if (bits_ == 0) {
    out.is_zero = true;
    return out;
  }
  if (is_nar()) {
    out.is_nar = true;
    return out;
  }
  out.negative = (bits_ >> (w - 1)) & 1;
  const std::uint32_t magnitude =
      out.negative ? (~bits_ + 1) & width_mask(w) : bits_;
  const std::uint32_t body = magnitude & (width_mask(w) >> 1);

  // Scan the regime run from the top magnitude bit downward.
  const int top = w - 2;
  const int first = (body >> top) & 1;
  int run = 0;
  while (run <= top && static_cast<int>((body >> (top - run)) & 1) == first)
    ++run;
  out.regime = first ? run - 1 : -run;

  // Skip the terminator bit (absent if the run fills the body).
  const int remaining = top - run; // bits available after regime + terminator
  const int exp_bits = remaining < es ? (remaining < 0 ? 0 : remaining) : es;
  const int frac_bits = remaining > es ? remaining - es : 0;
  std::uint32_t chunk = frac_bits + exp_bits > 0
                            ? body & ((std::uint32_t{1} << (exp_bits + frac_bits)) - 1)
                            : 0;
  // Truncated exponent bits are implicitly zero (low-order padding).
  out.exponent = exp_bits > 0
                     ? static_cast<int>(chunk >> frac_bits) << (es - exp_bits)
                     : 0;
  out.fraction_bits = frac_bits;
  out.fraction = frac_bits > 0 ? (chunk & ((std::uint32_t{1} << frac_bits) - 1)) : 0;
  return out;
}

double Posit::to_double() const {
  const PositFields f = fields();
  if (f.is_zero) return 0.0;
  if (f.is_nar) return std::nan("");
  const int scale = (f.regime << format_.es()) + f.exponent;
  const double frac =
      f.fraction_bits > 0
          ? std::ldexp(static_cast<double>(f.fraction), -f.fraction_bits)
          : 0.0;
  const double magnitude = std::ldexp(1.0 + frac, scale);
  return f.negative ? -magnitude : magnitude;
}

double posit_max_value(const NumericFormat& format) {
  check_format(format);
  return std::ldexp(1.0, (format.width() - 2) << format.es());
}

double posit_min_value(const NumericFormat& format) {
  check_format(format);
  return std::ldexp(1.0, -((format.width() - 2) << format.es()));
}

double quantize_posit(const NumericFormat& format, double x) {
  return Posit::from_double(format, x).to_double();
}

} // namespace luis::numrep
