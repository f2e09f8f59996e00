// Bit-level codec for small binary floating point formats (width <= 16),
// covering the three FloatEncoding layouts: Ieee (binary16-style, the
// FP8 E5M2 layout), FiniteOnly (OCP FP8 E4M3: no infinity, the all-ones
// exponent code carries finite values, only the all-ones (exp, mantissa)
// pattern is NaN), and Fnuz (no infinity, no -0, NaN is the lone
// sign-bit-only pattern; one extra low binade from re-biasing).
//
// Value-level rounding stays in soft_float.cpp (round_to_format is the
// single rounding routine every kernel shares); this codec exists for
// encode/decode — the bit patterns the exhaustive <=8-bit enumeration
// suite walks.
#pragma once

#include <cstdint>

#include "numrep/formats.hpp"

namespace luis::numrep {

/// Field geometry of a minifloat: sign | exp_bits | mant_bits, with the
/// exponent bias implied by the encoding (Ieee: E, FiniteOnly: E - 1,
/// Fnuz: E + 1).
struct MinifloatLayout {
  int width = 0;
  int exp_bits = 0;
  int mant_bits = 0; ///< stored mantissa bits, p - 1
  int bias = 0;
};

/// True when the format's (p, E, width, encoding) are mutually consistent
/// (1 + exp_bits + mant_bits == width) and width <= 16 — the formats this
/// codec covers.
bool is_minifloat_encodable(const NumericFormat& format);

/// Geometry of an encodable format.
MinifloatLayout minifloat_layout(const NumericFormat& format);

/// Value of the bit pattern `bits` (only the low width() bits are read).
/// Total: NaN patterns decode to quiet NaN, the Ieee inf patterns to
/// +-infinity.
double minifloat_decode(const NumericFormat& format, std::uint64_t bits);

/// Encodes a value that is exactly representable in the format (quantize
/// through round_to_format first otherwise); NaN encodes to the format's
/// canonical NaN pattern. Inverse of minifloat_decode on non-NaN patterns
/// (up to the canonical NaN choice).
std::uint64_t minifloat_encode(const NumericFormat& format, double x);

/// Total-order rank of a pattern: decoded values are monotone
/// (non-strictly, because of the Ieee -0/+0 pair) in this key. Only
/// meaningful for non-NaN patterns.
std::int64_t minifloat_ordering_key(const NumericFormat& format,
                                    std::uint64_t bits);

} // namespace luis::numrep
