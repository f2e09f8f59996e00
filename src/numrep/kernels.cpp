#include "numrep/kernels.hpp"

#include <cmath>

#include "numrep/fixed_posit.hpp"
#include "numrep/posit.hpp"
#include "support/diag.hpp"

namespace luis::numrep {
namespace {

// Rounding steps, one per format class. These run the rounders
// quantize() reaches, on constants resolved once, so a kernel result is
// bit-identical to "compute in binary64, then numrep::quantize".
double round_none(const QuantSpec&, double x) { return x; } // binary64
double round_float(const QuantSpec& s, double x) { return s.flt.round(x); }
double round_fixed(const QuantSpec& s, double x) { return s.fix.round(x); }
double round_posit(const QuantSpec& s, double x) {
  return quantize_posit(s.format, x);
}
double round_fposit(const QuantSpec& s, double x) {
  return quantize_fixed_posit(s.format, x);
}

// The binary64 operations, spelled with the same libm entry points the
// reference interpreter uses.
struct OpAdd { static double eval(double a, double b) { return a + b; } };
struct OpSub { static double eval(double a, double b) { return a - b; } };
struct OpMul { static double eval(double a, double b) { return a * b; } };
struct OpDiv { static double eval(double a, double b) { return a / b; } };
struct OpRem { static double eval(double a, double b) { return std::fmod(a, b); } };
struct OpPow { static double eval(double a, double b) { return std::pow(a, b); } };
struct OpMin { static double eval(double a, double b) { return std::fmin(a, b); } };
struct OpMax { static double eval(double a, double b) { return std::fmax(a, b); } };

struct OpNeg { static double eval(double a) { return -a; } };
struct OpAbs { static double eval(double a) { return std::abs(a); } };
struct OpSqrt { static double eval(double a) { return std::sqrt(a); } };
struct OpExp { static double eval(double a) { return std::exp(a); } };

template <typename Op, double (*Round)(const QuantSpec&, double)>
double fused2(const QuantSpec& s, double a, double b) {
  return Round(s, Op::eval(a, b));
}

template <typename Op, double (*Round)(const QuantSpec&, double)>
double fused1(const QuantSpec& s, double a) {
  return Round(s, Op::eval(a));
}

// One kernel per format class: the switches name every class, so a new
// class without a rounder here is a -Wswitch warning. binary64 results
// skip the rounding step.
template <typename Op>
Kernel2 row2(const NumericFormat& f) {
  if (f == kBinary64) return &fused2<Op, round_none>;
  switch (f.format_class()) {
  case FormatClass::FixedPoint: return &fused2<Op, round_fixed>;
  case FormatClass::FloatingPoint: return &fused2<Op, round_float>;
  case FormatClass::Posit: return &fused2<Op, round_posit>;
  case FormatClass::FixedPosit: return &fused2<Op, round_fposit>;
  }
  LUIS_UNREACHABLE("unknown format class");
}

template <typename Op>
Kernel1 row1(const NumericFormat& f) {
  if (f == kBinary64) return &fused1<Op, round_none>;
  switch (f.format_class()) {
  case FormatClass::FixedPoint: return &fused1<Op, round_fixed>;
  case FormatClass::FloatingPoint: return &fused1<Op, round_float>;
  case FormatClass::Posit: return &fused1<Op, round_posit>;
  case FormatClass::FixedPosit: return &fused1<Op, round_fposit>;
  }
  LUIS_UNREACHABLE("unknown format class");
}

} // namespace

QuantSpec make_quant_spec(const ConcreteType& type) {
  QuantSpec s;
  s.format = type.format;
  if (type.format.is_float()) s.flt = FloatRounder::of(type.format);
  if (type.format.is_fixed()) s.fix = FixedRounder::of(FixedSpec::from(type));
  return s;
}

QuantFn bind_quantizer(const ConcreteType& type) {
  if (type.format == kBinary64) return &round_none;
  switch (type.format.format_class()) {
  case FormatClass::FixedPoint: return &round_fixed;
  case FormatClass::FloatingPoint: return &round_float;
  case FormatClass::Posit: return &round_posit;
  case FormatClass::FixedPosit: return &round_fposit;
  }
  LUIS_UNREACHABLE("unknown format class");
}

Kernel2 bind_kernel2(KernelOp2 op, const ConcreteType& result) {
  const NumericFormat& fmt = result.format;
  switch (op) {
  case KernelOp2::Add: return row2<OpAdd>(fmt);
  case KernelOp2::Sub: return row2<OpSub>(fmt);
  case KernelOp2::Mul: return row2<OpMul>(fmt);
  case KernelOp2::Div: return row2<OpDiv>(fmt);
  case KernelOp2::Rem: return row2<OpRem>(fmt);
  case KernelOp2::Pow: return row2<OpPow>(fmt);
  case KernelOp2::Min: return row2<OpMin>(fmt);
  case KernelOp2::Max: return row2<OpMax>(fmt);
  }
  LUIS_UNREACHABLE("unknown binary kernel op");
}

Kernel1 bind_kernel1(KernelOp1 op, const ConcreteType& result) {
  const NumericFormat& fmt = result.format;
  switch (op) {
  case KernelOp1::Neg: return row1<OpNeg>(fmt);
  case KernelOp1::Abs: return row1<OpAbs>(fmt);
  case KernelOp1::Sqrt: return row1<OpSqrt>(fmt);
  case KernelOp1::Exp: return row1<OpExp>(fmt);
  }
  LUIS_UNREACHABLE("unknown unary kernel op");
}

} // namespace luis::numrep
