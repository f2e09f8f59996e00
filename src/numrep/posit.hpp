// Posit (type III unum) numbers, parameterized by width and es.
//
// Implements the encoding of Gustafson & Yonemoto ("Beating floating point
// at its own game", 2017): sign bit, run-length-encoded regime, up to `es`
// exponent bits, and the remaining bits of fraction. Encoding rounds to the
// nearest posit (ties to even bit pattern) and saturates at +-maxpos /
// +-minpos: posits never overflow to infinity or underflow to zero.
// Posit arithmetic follows the one rule of every representation: the
// operation in binary64, then one rounding through quantize_posit.
//
// Supported widths: 3..32 bits, es 0..4 — this covers posit8_0, posit16_1
// and posit32_2, the configurations with adoption roadmaps cited by the
// paper.
#pragma once

#include <cstdint>

#include "numrep/formats.hpp"

namespace luis::numrep {

/// Decoded field view of a posit bit pattern, used by the IEBW metric
/// (Definition 5 of the paper).
struct PositFields {
  bool is_zero = false;
  bool is_nar = false; ///< Not a Real (the posit NaN/inf pattern)
  bool negative = false;
  int regime = 0;        ///< k
  int exponent = 0;      ///< e, 0 <= e < 2^es
  int fraction_bits = 0; ///< n_f: number of fraction bits physically present
  std::uint64_t fraction = 0; ///< fraction field value (n_f bits)
};

class Posit {
public:
  Posit() = default;
  Posit(NumericFormat format, std::uint32_t bits);

  /// Rounds `x` to the nearest posit of the given configuration.
  static Posit from_double(const NumericFormat& format, double x);

  const NumericFormat& format() const { return format_; }
  std::uint32_t bits() const { return bits_; }

  double to_double() const;
  PositFields fields() const;

  bool is_zero() const { return bits_ == 0; }
  bool is_nar() const;

private:
  NumericFormat format_ = kPosit32;
  std::uint32_t bits_ = 0;
};

/// Largest finite posit value: 2^((w-2) * 2^es).
double posit_max_value(const NumericFormat& format);
/// Smallest positive posit value: 2^(-(w-2) * 2^es).
double posit_min_value(const NumericFormat& format);

/// Round-trip quantization used by the IR interpreter.
double quantize_posit(const NumericFormat& format, double x);

} // namespace luis::numrep
