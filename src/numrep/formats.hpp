// Number representation descriptors.
//
// A NumericFormat describes one representation system the tuner can assign
// to a virtual register. The descriptor is pure data (bit geometry plus an
// encoding variant); everything behavioral — quantization, IEBW, kernel
// rows, cost classes, bit-level codecs — lives in the class's row of the
// constant policy table (see registry.hpp). The set of classes is closed:
//
//   FixedPoint     signed/unsigned fixed point of a given width (the
//                  fractional bit count is a per-variable decision, made by
//                  the ILP model through the z variables);
//   FloatingPoint  binary floating point parameterized by precision p and
//                  maximum exponent E (Table I of the paper), with three
//                  encoding variants: Ieee (inf + NaNs, the classic layout),
//                  FiniteOnly (OCP FP8 E4M3: no infinity, the all-ones
//                  pattern is NaN, one extra binade of finite range), and
//                  Fnuz (no infinity, no negative zero, NaN only at the
//                  sign-bit pattern — the E4M3FNUZ/E5M2FNUZ layouts);
//   Posit          posit(w, es), Gustafson type III unums;
//   FixedPosit     fixed-posit(w, es, rs) per Gohil et al. (arXiv
//                  2104.04763): a posit whose regime field has a fixed
//                  width rs instead of a run-length encoding.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace luis::numrep {

enum class FormatClass : std::uint8_t {
  FixedPoint,
  FloatingPoint,
  Posit,
  FixedPosit,
};

inline constexpr int kNumFormatClasses = 4;

/// Special-value layout of a floating point format. Only FloatingPoint
/// formats carry a meaningful encoding; every other class stores Ieee.
enum class FloatEncoding : std::uint8_t {
  Ieee,       ///< inf at the all-ones exponent, gradual underflow, -0
  FiniteOnly, ///< no inf; only the all-ones (exp, mantissa) pattern is NaN
  Fnuz,       ///< no inf, no -0; NaN is the lone sign-bit pattern
};

class NumericFormat {
public:
  /// Signed fixed point type of `width` total bits. The fractional bit count
  /// is not part of the format: it is chosen per variable.
  static constexpr NumericFormat fixed(int width, bool is_signed = true) {
    NumericFormat f;
    f.class_ = FormatClass::FixedPoint;
    f.width_ = width;
    f.signed_ = is_signed;
    return f;
  }

  /// Binary floating point with precision `p` (significand bits including
  /// the hidden bit) and maximum exponent `E`, as in Table I.
  static constexpr NumericFormat floating(int p, int max_exponent, int width) {
    NumericFormat f;
    f.class_ = FormatClass::FloatingPoint;
    f.width_ = width;
    f.precision_ = p;
    f.max_exponent_ = max_exponent;
    return f;
  }

  /// Floating point with an explicit special-value encoding (the FP8
  /// family). `max_exponent` is the largest exponent of a finite normal
  /// value under that encoding (448 = 1.75 * 2^8 for E4M3, so E = 8).
  static constexpr NumericFormat minifloat(int p, int max_exponent, int width,
                                           FloatEncoding encoding) {
    NumericFormat f = floating(p, max_exponent, width);
    f.encoding_ = encoding;
    return f;
  }

  /// Posit configuration posit(w, es).
  static constexpr NumericFormat posit(int width, int es) {
    NumericFormat f;
    f.class_ = FormatClass::Posit;
    f.width_ = width;
    f.es_ = es;
    return f;
  }

  /// Fixed-posit(w, es, rs): sign bit, rs-bit regime field, es exponent
  /// bits, and w - 1 - rs - es fraction bits (arXiv 2104.04763).
  static constexpr NumericFormat fixed_posit(int width, int es,
                                             int regime_bits) {
    NumericFormat f;
    f.class_ = FormatClass::FixedPosit;
    f.width_ = width;
    f.es_ = es;
    f.regime_bits_ = regime_bits;
    return f;
  }

  constexpr FormatClass format_class() const { return class_; }
  constexpr bool is_fixed() const { return class_ == FormatClass::FixedPoint; }
  constexpr bool is_float() const { return class_ == FormatClass::FloatingPoint; }
  constexpr bool is_posit() const { return class_ == FormatClass::Posit; }
  constexpr bool is_fixed_posit() const {
    return class_ == FormatClass::FixedPosit;
  }

  /// Total storage width in bits.
  constexpr int width() const { return width_; }

  /// Fixed point: signedness.
  constexpr bool is_signed() const { return signed_; }

  /// Floating point: precision p (includes the hidden bit).
  constexpr int precision() const { return precision_; }
  /// Floating point: maximum exponent E.
  constexpr int max_exponent() const { return max_exponent_; }
  /// Floating point: minimum normal exponent. The bias differs per
  /// encoding: Ieee pairs E with bias E (emin = 1 - E), FiniteOnly spends
  /// its top exponent code on finite values (bias E - 1, emin = 2 - E),
  /// and Fnuz reclaims the inf/NaN codes for one extra low binade
  /// (bias E + 1, emin = -E).
  constexpr int min_exponent() const {
    switch (encoding_) {
    case FloatEncoding::Ieee: return 1 - max_exponent_;
    case FloatEncoding::FiniteOnly: return 2 - max_exponent_;
    case FloatEncoding::Fnuz: return -max_exponent_;
    }
    return 1 - max_exponent_;
  }
  /// Floating point: special-value layout.
  constexpr FloatEncoding encoding() const { return encoding_; }

  /// Posit / fixed-posit: maximum exponent field size es.
  constexpr int es() const { return es_; }
  /// Fixed-posit: width of the fixed regime field.
  constexpr int regime_bits() const { return regime_bits_; }

  /// Canonical name, e.g. "fix32", "binary64", "e4m3", "posit32_2",
  /// "fposit8_0_3". Every name round-trips through parse_format.
  std::string name() const;

  friend constexpr bool operator==(const NumericFormat&, const NumericFormat&) = default;

private:
  FormatClass class_ = FormatClass::FloatingPoint;
  int width_ = 64;
  bool signed_ = true;    // fixed point only
  int precision_ = 53;    // floating point only
  int max_exponent_ = 1023; // floating point only
  int es_ = 2;            // posit / fixed-posit only
  int regime_bits_ = 0;   // fixed-posit only
  FloatEncoding encoding_ = FloatEncoding::Ieee; // floating point only
};

// --- Standard formats (Table I plus the fixed point widths we support). ---

inline constexpr NumericFormat kBinary16 = NumericFormat::floating(11, 15, 16);
inline constexpr NumericFormat kBinary32 = NumericFormat::floating(24, 127, 32);
inline constexpr NumericFormat kBinary64 = NumericFormat::floating(53, 1023, 64);
inline constexpr NumericFormat kBinary128 = NumericFormat::floating(113, 16383, 128);
inline constexpr NumericFormat kBinary256 = NumericFormat::floating(237, 262143, 256);
inline constexpr NumericFormat kBfloat16 = NumericFormat::floating(8, 127, 16);

// --- FP8 (OCP 8-bit floating point, arXiv 2209.05433) ---
// E4M3 uses the FiniteOnly layout: bias 7, but the all-ones exponent code
// carries finite values up to 448 = 1.75 * 2^8 (only S.1111.111 is NaN),
// so E = 8 here. E5M2 is a classic IEEE layout (bias 15, inf + NaNs).
// The FNUZ variants (used by several training stacks) drop inf and -0,
// move NaN to 0x80, and re-bias one binade lower.
inline constexpr NumericFormat kFp8E4M3 =
    NumericFormat::minifloat(4, 8, 8, FloatEncoding::FiniteOnly);
inline constexpr NumericFormat kFp8E5M2 =
    NumericFormat::minifloat(3, 15, 8, FloatEncoding::Ieee);
inline constexpr NumericFormat kFp8E4M3Fnuz =
    NumericFormat::minifloat(4, 7, 8, FloatEncoding::Fnuz);
inline constexpr NumericFormat kFp8E5M2Fnuz =
    NumericFormat::minifloat(3, 15, 8, FloatEncoding::Fnuz);

inline constexpr NumericFormat kFixed16 = NumericFormat::fixed(16);
inline constexpr NumericFormat kFixed32 = NumericFormat::fixed(32);
inline constexpr NumericFormat kFixed64 = NumericFormat::fixed(64);

inline constexpr NumericFormat kPosit8 = NumericFormat::posit(8, 0);
inline constexpr NumericFormat kPosit16 = NumericFormat::posit(16, 1);
inline constexpr NumericFormat kPosit32 = NumericFormat::posit(32, 2);

// --- Fixed-posit reference points (arXiv 2104.04763) ---
// fposit8_0_3: sign + 3 regime bits (k in [-4, 3]) + 4 fraction bits;
// fposit16_1_4: sign + 4 regime bits + 1 exponent bit + 10 fraction bits
// (scales in [-16, 15], binary16-like coverage without subnormals).
inline constexpr NumericFormat kFixedPosit8 = NumericFormat::fixed_posit(8, 0, 3);
inline constexpr NumericFormat kFixedPosit16 =
    NumericFormat::fixed_posit(16, 1, 4);

/// The catalog: every format known by name (luis formats, the fuzz
/// palettes, the Multi preset), in a fixed user-facing order.
std::span<const NumericFormat> standard_formats();

/// The catalog members an engine can execute, in catalog order: the
/// Multi preset's candidates and the fuzz palettes.
std::vector<NumericFormat> executable_formats();

/// Parses a canonical format name; returns nullopt if unknown. Accepts the
/// catalog names plus the parametric spellings "fixN"/"ufixN",
/// "positW_ES", "fpositW_ES_RS", and "float_pP_EE" / "floatP_E" (arbitrary
/// minifloats). When `error` is non-null and parsing fails, a diagnostic
/// is stored there.
std::optional<NumericFormat> parse_format(std::string_view name,
                                          std::string* error = nullptr);

/// parse_format for input that will run: a name that parses but no engine
/// can execute (binary128, float60_1023) is refused too, with a diagnostic
/// naming it. --type, --types and assignment files read formats this way.
std::optional<NumericFormat> parse_executable_format(
    std::string_view name, std::string* error = nullptr);

/// A fully concrete run-time type: a format plus, for fixed point, the
/// number of fractional bits selected by the tuner.
struct ConcreteType {
  NumericFormat format = kBinary64;
  int frac_bits = 0; ///< meaningful only when format.is_fixed()

  std::string name() const;
  friend bool operator==(const ConcreteType&, const ConcreteType&) = default;
};

} // namespace luis::numrep
