#include "numrep/registry.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "numrep/fixed_point.hpp"
#include "numrep/fixed_posit.hpp"
#include "numrep/iebw.hpp"
#include "numrep/minifloat.hpp"
#include "numrep/posit.hpp"
#include "numrep/soft_float.hpp"
#include "support/diag.hpp"
#include "support/string_utils.hpp"

namespace luis::numrep {
namespace {

// ---------------------------------------------------------------------------
// Fixed point policy
// ---------------------------------------------------------------------------

std::string fixed_name(const NumericFormat& f) {
  return format_string("%sfix%d", f.is_signed() ? "" : "u", f.width());
}
double fixed_quantize_fn(const ConcreteType& t, double x) {
  return quantize_fixed(FixedSpec::from(t), x);
}
int fixed_iebw_fn(const ConcreteType& t, double) { return iebw_fixed(t.frac_bits); }
double fixed_max_fn(const ConcreteType& t) {
  return FixedSpec::from(t).max_value();
}
double fixed_minpos_fn(const ConcreteType& t) {
  return FixedSpec::from(t).resolution();
}
bool fixed_exec(const NumericFormat& f) {
  return f.width() >= 2 && f.width() <= 64;
}
bool fixed_feasible(const NumericFormat& f, double lo, double hi) {
  return fixed_point_max_frac(f.width(), f.is_signed(), lo, hi) >= 0;
}
std::string fixed_cost(const NumericFormat&) { return "fix"; }
bool always_true(const NumericFormat&) { return true; }
bool always_false(const NumericFormat&) { return false; }
bool fixed_encodable(const NumericFormat& f) {
  return fixed_exec(f) && f.width() <= 16;
}
std::uint64_t fixed_encode_fn(const ConcreteType& t, double x) {
  const FixedValue v = FixedValue::from_double(FixedSpec::from(t), x);
  LUIS_ASSERT(v.to_double() == x, "value is not representable in this fixed type");
  const std::uint64_t mask = (std::uint64_t{1} << t.format.width()) - 1;
  return static_cast<std::uint64_t>(v.raw()) & mask;
}
std::int64_t fixed_raw_of_bits(const ConcreteType& t, std::uint64_t bits) {
  const int w = t.format.width();
  bits &= (std::uint64_t{1} << w) - 1;
  if (t.format.is_signed() && (bits >> (w - 1)))
    return static_cast<std::int64_t>(bits) - (std::int64_t{1} << w);
  return static_cast<std::int64_t>(bits);
}
double fixed_decode_fn(const ConcreteType& t, std::uint64_t bits) {
  return FixedValue(FixedSpec::from(t), fixed_raw_of_bits(t, bits)).to_double();
}
std::int64_t fixed_order_fn(const ConcreteType& t, std::uint64_t bits) {
  return fixed_raw_of_bits(t, bits);
}

// ---------------------------------------------------------------------------
// Floating point policy (all three encodings)
// ---------------------------------------------------------------------------

std::string float_name(const NumericFormat& f) {
  if (f == kBinary16) return "binary16";
  if (f == kBinary32) return "binary32";
  if (f == kBinary64) return "binary64";
  if (f == kBinary128) return "binary128";
  if (f == kBinary256) return "binary256";
  if (f == kBfloat16) return "bfloat16";
  if (f == kFp8E4M3) return "e4m3";
  if (f == kFp8E5M2) return "e5m2";
  if (f == kFp8E4M3Fnuz) return "e4m3fnuz";
  if (f == kFp8E5M2Fnuz) return "e5m2fnuz";
  const char* suffix = "";
  if (f.encoding() == FloatEncoding::FiniteOnly) suffix = "_finite";
  if (f.encoding() == FloatEncoding::Fnuz) suffix = "_fnuz";
  return format_string("float_p%d_E%d%s", f.precision(), f.max_exponent(),
                       suffix);
}
double float_quantize_fn(const ConcreteType& t, double x) {
  return round_to_format(t.format, x);
}
int float_iebw_fn(const ConcreteType& t, double x) {
  return iebw_float(t.format, x);
}
double float_max_fn(const ConcreteType& t) { return float_max_value(t.format); }
double float_minpos_fn(const ConcreteType& t) {
  return float_min_subnormal(t.format);
}
// The table names only functions defined in this file: under UBSan's
// -fno-delete-null-pointer-checks, GCC cannot test the address of a
// function defined elsewhere against null in the static_assert below.
bool float_exec(const NumericFormat& f) { return is_executable_float(f); }
bool float_encodable(const NumericFormat& f) {
  return is_minifloat_encodable(f);
}
bool float_feasible(const NumericFormat& f, double lo, double hi) {
  return is_executable_float(f) &&
         std::max(std::abs(lo), std::abs(hi)) <= float_max_value(f);
}
std::string float_cost(const NumericFormat& f) {
  if (f == kBinary64) return "double";
  if (f == kBinary16) return "half";
  if (f == kBfloat16) return "bfloat16";
  if (f.width() <= 8) return "fp8";
  // binary32 and any other narrow float run on the float datapath.
  return "float";
}
bool float_saturates(const NumericFormat& f) {
  return f.encoding() != FloatEncoding::Ieee; // no infinity to overflow to
}
std::uint64_t float_encode_fn(const ConcreteType& t, double x) {
  return minifloat_encode(t.format, x);
}
double float_decode_fn(const ConcreteType& t, std::uint64_t bits) {
  return minifloat_decode(t.format, bits);
}
std::int64_t float_order_fn(const ConcreteType& t, std::uint64_t bits) {
  return minifloat_ordering_key(t.format, bits);
}

// ---------------------------------------------------------------------------
// Posit policy
// ---------------------------------------------------------------------------

std::string posit_name(const NumericFormat& f) {
  return format_string("posit%d_%d", f.width(), f.es());
}
double posit_quantize_fn(const ConcreteType& t, double x) {
  return quantize_posit(t.format, x);
}
int posit_iebw_fn(const ConcreteType& t, double x) {
  return iebw_posit(t.format, x);
}
double posit_max_fn(const ConcreteType& t) { return posit_max_value(t.format); }
double posit_minpos_fn(const ConcreteType& t) {
  return posit_min_value(t.format);
}
bool posit_exec(const NumericFormat& f) {
  return f.width() >= 3 && f.width() <= 32 && f.es() >= 0 && f.es() <= 4;
}
bool posit_feasible(const NumericFormat&, double, double) {
  return true; // posits saturate at maxpos/minpos, never trap or overflow
}
std::string posit_cost(const NumericFormat&) { return "posit"; }
bool posit_encodable(const NumericFormat& f) {
  return posit_exec(f) && f.width() <= 16;
}
std::uint64_t posit_encode_fn(const ConcreteType& t, double x) {
  const Posit p = Posit::from_double(t.format, x);
  LUIS_ASSERT(std::isnan(x) || p.to_double() == x,
              "value is not representable in this posit");
  return p.bits();
}
double posit_decode_fn(const ConcreteType& t, std::uint64_t bits) {
  return Posit(t.format, static_cast<std::uint32_t>(bits)).to_double();
}
std::int64_t posit_order_fn(const ConcreteType& t, std::uint64_t bits) {
  const int w = t.format.width();
  bits &= (std::uint64_t{1} << w) - 1;
  const std::uint64_t sign = std::uint64_t{1} << (w - 1);
  return static_cast<std::int64_t>(bits) -
         ((bits & sign) ? (std::int64_t{1} << w) : 0);
}

// ---------------------------------------------------------------------------
// Fixed-posit policy
// ---------------------------------------------------------------------------

std::string fposit_name(const NumericFormat& f) {
  return format_string("fposit%d_%d_%d", f.width(), f.es(), f.regime_bits());
}
double fposit_quantize_fn(const ConcreteType& t, double x) {
  return quantize_fixed_posit(t.format, x);
}
int fposit_iebw_fn(const ConcreteType& t, double x) {
  return iebw_fixed_posit(t.format, x);
}
double fposit_max_fn(const ConcreteType& t) {
  return fixed_posit_max_value(t.format);
}
double fposit_minpos_fn(const ConcreteType& t) {
  return fixed_posit_min_value(t.format);
}
bool fposit_feasible(const NumericFormat& f, double lo, double hi) {
  // Unlike run-length posits, a fixed regime field covers few binades
  // (fposit8_0_3 reaches only 2^3..2^4-ish magnitudes), so treating
  // saturation as feasibility would assign it to wildly out-of-range
  // data. Require the range to fit, like floats. See docs/FORMATS.md.
  return is_executable_fixed_posit(f) &&
         std::max(std::abs(lo), std::abs(hi)) <= fixed_posit_max_value(f);
}
std::string fposit_cost(const NumericFormat&) { return "fposit"; }
bool fposit_exec(const NumericFormat& f) { return is_executable_fixed_posit(f); }
bool fposit_encodable(const NumericFormat& f) {
  return is_executable_fixed_posit(f) && f.width() <= 16;
}
std::uint64_t fposit_encode_fn(const ConcreteType& t, double x) {
  return fixed_posit_encode(t.format, x);
}
double fposit_decode_fn(const ConcreteType& t, std::uint64_t bits) {
  return fixed_posit_decode(t.format, bits);
}
std::int64_t fposit_order_fn(const ConcreteType& t, std::uint64_t bits) {
  return fixed_posit_ordering_key(t.format, bits);
}

// ---------------------------------------------------------------------------
// Parametric name parsers
// ---------------------------------------------------------------------------

/// Parses an unsigned decimal with no sign or leading garbage.
bool parse_uint(std::string_view s, int* out) {
  if (s.empty() || s.size() > 7) return false;
  int v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

/// Splits "A_B" / "A_B_C" around '_' separators into integer fields.
template <std::size_t N>
bool split_uints(std::string_view s, std::array<int, N>& out) {
  for (std::size_t i = 0; i < N; ++i) {
    const std::size_t sep = s.find('_');
    const bool last = i + 1 == N;
    if (last != (sep == std::string_view::npos)) return false;
    if (!parse_uint(last ? s : s.substr(0, sep), &out[i])) return false;
    if (!last) s = s.substr(sep + 1);
  }
  return true;
}

bool alias_parser(std::string_view name, NumericFormat* out, std::string*) {
  if (name == "float") return *out = kBinary32, true;
  if (name == "double") return *out = kBinary64, true;
  if (name == "half") return *out = kBinary16, true;
  if (name == "fix") return *out = kFixed32, true;
  return false;
}

bool fixed_parser(std::string_view name, NumericFormat* out,
                  std::string* error) {
  const bool is_signed = !starts_with(name, "ufix");
  if (is_signed && !starts_with(name, "fix")) return false;
  int w = 0;
  if (!parse_uint(name.substr(is_signed ? 3 : 4), &w)) return false;
  if (w < 2 || w > 64) {
    if (error)
      *error = format_string("fixed point width must be in [2, 64], got %d", w);
    return false;
  }
  *out = NumericFormat::fixed(w, is_signed);
  return true;
}

bool posit_parser(std::string_view name, NumericFormat* out,
                  std::string* error) {
  if (!starts_with(name, "posit")) return false;
  std::array<int, 2> f{};
  if (!split_uints(name.substr(5), f)) return false;
  const NumericFormat fmt = NumericFormat::posit(f[0], f[1]);
  if (!posit_exec(fmt)) {
    if (error)
      *error = format_string(
          "posit width must be in [3, 32] and es in [0, 4], got posit(%d, %d)",
          f[0], f[1]);
    return false;
  }
  *out = fmt;
  return true;
}

bool fposit_parser(std::string_view name, NumericFormat* out,
                   std::string* error) {
  if (!starts_with(name, "fposit")) return false;
  std::array<int, 3> f{};
  if (!split_uints(name.substr(6), f)) return false;
  const NumericFormat fmt = NumericFormat::fixed_posit(f[0], f[1], f[2]);
  if (!is_executable_fixed_posit(fmt)) {
    if (error)
      *error = format_string(
          "fixed-posit needs width in [3, 32], es in [0, 4], regime bits in "
          "[1, 8] and a nonnegative fraction width; got fposit(%d, %d, %d)",
          f[0], f[1], f[2]);
    return false;
  }
  *out = fmt;
  return true;
}

/// "float_pP_EE" and the shorthand "floatP_E", both with optional
/// "_finite" / "_fnuz" encoding suffixes. The storage width is the
/// smallest layout that fits: 1 + (p - 1) + exponent field bits.
bool minifloat_parser(std::string_view name, NumericFormat* out,
                      std::string* error) {
  if (!starts_with(name, "float")) return false;
  std::string_view rest = name.substr(5);
  if (starts_with(rest, "_p")) rest = rest.substr(2);
  else if (rest.empty() || rest[0] < '0' || rest[0] > '9') return false;

  FloatEncoding encoding = FloatEncoding::Ieee;
  if (rest.ends_with("_finite")) {
    encoding = FloatEncoding::FiniteOnly;
    rest = rest.substr(0, rest.size() - 7);
  } else if (rest.ends_with("_fnuz")) {
    encoding = FloatEncoding::Fnuz;
    rest = rest.substr(0, rest.size() - 5);
  }

  const std::size_t sep = rest.find('_');
  int p = 0, E = 0;
  bool shape_ok = sep != std::string_view::npos &&
                  parse_uint(rest.substr(0, sep), &p) &&
                  parse_uint(starts_with(rest.substr(sep + 1), "E")
                                 ? rest.substr(sep + 2)
                                 : rest.substr(sep + 1),
                             &E);
  if (!shape_ok || p < 2 || p > 240 || E < 1 || E > 262143) {
    if (error)
      *error = "minifloat spelling is floatP_E or float_pP_EE with precision "
               "P in [2, 240] and max exponent E in [1, 262143], optionally "
               "suffixed _finite or _fnuz (e.g. float4_8_finite is e4m3)";
    return false;
  }
  // Exponent field width: smallest eb whose bias rule reaches E.
  const int target = encoding == FloatEncoding::FiniteOnly ? E : E + 1;
  int eb = 2;
  while ((1 << (eb - 1)) < target && eb < 20) ++eb;
  *out = NumericFormat::minifloat(p, E, 1 + eb + (p - 1), encoding);
  return true;
}

// ---------------------------------------------------------------------------
// The policy table, the catalog and the parsers
// ---------------------------------------------------------------------------

constexpr std::array<FormatClassOps, kNumFormatClasses> make_policy_table() {
  std::array<FormatClassOps, kNumFormatClasses> table{};
  table[static_cast<std::size_t>(FormatClass::FixedPoint)] = {
      .name = &fixed_name,
      .quantize = &fixed_quantize_fn,
      .iebw = &fixed_iebw_fn,
      .max_value = &fixed_max_fn,
      .min_positive = &fixed_minpos_fn,
      .executable = &fixed_exec,
      .feasible = &fixed_feasible,
      .cost_class = &fixed_cost,
      .saturates = &always_true,
      .never_underflows = &always_false,
      .eps_is_half_step = &always_false,
      .encodable = &fixed_encodable,
      .encode = &fixed_encode_fn,
      .decode = &fixed_decode_fn,
      .ordering_key = &fixed_order_fn,
  };
  table[static_cast<std::size_t>(FormatClass::FloatingPoint)] = {
      .name = &float_name,
      .quantize = &float_quantize_fn,
      .iebw = &float_iebw_fn,
      .max_value = &float_max_fn,
      .min_positive = &float_minpos_fn,
      .executable = &float_exec,
      .feasible = &float_feasible,
      .cost_class = &float_cost,
      .saturates = &float_saturates,
      .never_underflows = &always_false,
      .eps_is_half_step = &always_true,
      .encodable = &float_encodable,
      .encode = &float_encode_fn,
      .decode = &float_decode_fn,
      .ordering_key = &float_order_fn,
  };
  table[static_cast<std::size_t>(FormatClass::Posit)] = {
      .name = &posit_name,
      .quantize = &posit_quantize_fn,
      .iebw = &posit_iebw_fn,
      .max_value = &posit_max_fn,
      .min_positive = &posit_minpos_fn,
      .executable = &posit_exec,
      .feasible = &posit_feasible,
      .cost_class = &posit_cost,
      .saturates = &always_true,
      .never_underflows = &always_true,
      .eps_is_half_step = &always_false,
      .encodable = &posit_encodable,
      .encode = &posit_encode_fn,
      .decode = &posit_decode_fn,
      .ordering_key = &posit_order_fn,
  };
  table[static_cast<std::size_t>(FormatClass::FixedPosit)] = {
      .name = &fposit_name,
      .quantize = &fposit_quantize_fn,
      .iebw = &fposit_iebw_fn,
      .max_value = &fposit_max_fn,
      .min_positive = &fposit_minpos_fn,
      .executable = &fposit_exec,
      .feasible = &fposit_feasible,
      .cost_class = &fposit_cost,
      .saturates = &always_true,
      .never_underflows = &always_true,
      .eps_is_half_step = &always_false,
      .encodable = &fposit_encodable,
      .encode = &fposit_encode_fn,
      .decode = &fposit_decode_fn,
      .ordering_key = &fposit_order_fn,
  };
  return table;
}

/// The entries every consumer calls without a null check.
constexpr bool has_required_entries(const FormatClassOps& ops) {
  return ops.name && ops.quantize && ops.iebw && ops.max_value &&
         ops.min_positive && ops.executable && ops.feasible &&
         ops.cost_class && ops.saturates && ops.never_underflows &&
         ops.eps_is_half_step && ops.encodable;
}

// The catalog: Table I plus the formats this reproduction grew. Order is
// user-facing (luis formats, fuzz palettes, the Multi preset's candidate
// order), so keep it grouped.
constexpr NumericFormat kCatalog[] = {
    kFixed16, kFixed32, kFixed64, kBinary16, kBinary32, kBinary64,
    kBinary128, kBinary256, kBfloat16, kFp8E4M3, kFp8E5M2, kFp8E4M3Fnuz,
    kFp8E5M2Fnuz, kPosit8, kPosit16, kPosit32, kFixedPosit8,
    kFixedPosit16};

/// A parametric spelling parser. Returns true and fills `out` on a match;
/// returns false with a non-empty `error` for a recognized-but-malformed
/// spelling (e.g. "posit99_1"); returns false with `error` untouched when
/// the spelling is not this parser's.
using ParserFn = bool (*)(std::string_view name, NumericFormat* out,
                          std::string* error);
constexpr ParserFn kParsers[] = {
    &alias_parser, &fixed_parser,
    &fposit_parser, // before posit: "fposit" is not a posit
    &posit_parser, &minifloat_parser};

} // namespace

constexpr std::array<FormatClassOps, kNumFormatClasses> kFormatClassOps =
    make_policy_table();
static_assert(std::ranges::all_of(kFormatClassOps, has_required_entries),
              "a format class policy is missing required entries");

std::span<const NumericFormat> standard_formats() { return kCatalog; }

std::vector<NumericFormat> executable_formats() {
  std::vector<NumericFormat> out;
  for (const NumericFormat& f : kCatalog)
    if (format_ops(f).executable(f)) out.push_back(f);
  return out;
}

std::optional<NumericFormat> parse_format(std::string_view name,
                                          std::string* error) {
  for (const NumericFormat& fmt : kCatalog)
    if (fmt.name() == name) return fmt;
  for (const ParserFn parser : kParsers) {
    NumericFormat out;
    std::string diag;
    if (parser(name, &out, &diag)) return out;
    if (!diag.empty()) {
      if (error) *error = diag;
      return std::nullopt;
    }
  }
  if (error)
    *error = "unknown format '" + std::string(name) +
             "'; see `luis formats` for the catalog and parametric spellings";
  return std::nullopt;
}

std::optional<NumericFormat> parse_executable_format(std::string_view name,
                                                     std::string* error) {
  const std::optional<NumericFormat> fmt = parse_format(name, error);
  if (!fmt || format_ops(*fmt).executable(*fmt)) return fmt;
  if (error)
    *error = "format '" + std::string(name) +
             "' cannot execute: it describes IEBW only (see the exec column "
             "of `luis formats`)";
  return std::nullopt;
}

} // namespace luis::numrep
