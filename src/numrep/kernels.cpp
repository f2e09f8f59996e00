#include "numrep/kernels.hpp"

#include <cmath>

#include "numrep/fixed_posit.hpp"
#include "numrep/posit.hpp"
#include "numrep/soft_float.hpp"
#include "support/diag.hpp"

namespace luis::numrep {
namespace {

// Rounding steps, one per format class. These call the exact routines
// quantize() dispatches to, so a kernel result is bit-identical to
// "compute in binary64, then numrep::quantize".
double round_float(const QuantSpec& s, double x) {
  return round_to_format(s.format, x);
}
double round_fixed(const QuantSpec& s, double x) {
  return quantize_fixed(s.fixed, x);
}
double round_posit(const QuantSpec& s, double x) {
  return quantize_posit(s.format, x);
}
double round_fposit(const QuantSpec& s, double x) {
  return quantize_fixed_posit(s.format, x);
}
// Extension classes registered at run time round through their policy;
// same routine as quantize(), so bit-identity holds for them too.
double round_generic(const QuantSpec& s, double x) {
  return s.ops->quantize(ConcreteType{s.format, s.fixed.frac}, x);
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

// Table slot index for a format class: the built-in classes get fused
// fast-path rounders, everything else the generic policy slot.
int class_index(const ConcreteType& type) {
  switch (type.format.format_class()) {
  case FormatClass::FixedPoint: return 0;
  case FormatClass::FloatingPoint: return 1;
  case FormatClass::Posit: return 2;
  case FormatClass::FixedPosit: return 3;
  default: return 4;
  }
}

template <typename Op>
constexpr Kernel2 row2(int cls) {
  return cls == 0   ? &fused2<Op, round_fixed>
         : cls == 1 ? &fused2<Op, round_float>
         : cls == 2 ? &fused2<Op, round_posit>
         : cls == 3 ? &fused2<Op, round_fposit>
                    : &fused2<Op, round_generic>;
}

template <typename Op>
constexpr Kernel1 row1(int cls) {
  return cls == 0   ? &fused1<Op, round_fixed>
         : cls == 1 ? &fused1<Op, round_float>
         : cls == 2 ? &fused1<Op, round_posit>
         : cls == 3 ? &fused1<Op, round_fposit>
                    : &fused1<Op, round_generic>;
}

} // namespace

QuantSpec make_quant_spec(const ConcreteType& type) {
  QuantSpec s;
  s.format = type.format;
  // FixedSpec doubles as the frac_bits carrier for the generic slot's
  // ConcreteType reconstruction, so fill it for every class.
  s.fixed = FixedSpec::from(type);
  s.ops = &format_ops(type);
  return s;
}

QuantFn bind_quantizer(const ConcreteType& type) {
  switch (class_index(type)) {
  case 0: return &round_fixed;
  case 1: return &round_float;
  case 2: return &round_posit;
  case 3: return &round_fposit;
  default: return &round_generic;
  }
}

Kernel2 bind_kernel2(KernelOp2 op, const ConcreteType& result) {
  const int cls = class_index(result);
  switch (op) {
  case KernelOp2::Add: return row2<OpAdd>(cls);
  case KernelOp2::Sub: return row2<OpSub>(cls);
  case KernelOp2::Mul: return row2<OpMul>(cls);
  case KernelOp2::Div: return row2<OpDiv>(cls);
  case KernelOp2::Rem: return row2<OpRem>(cls);
  case KernelOp2::Pow: return row2<OpPow>(cls);
  case KernelOp2::Min: return row2<OpMin>(cls);
  case KernelOp2::Max: return row2<OpMax>(cls);
  }
  LUIS_UNREACHABLE("unknown binary kernel op");
}

Kernel1 bind_kernel1(KernelOp1 op, const ConcreteType& result) {
  const int cls = class_index(result);
  switch (op) {
  case KernelOp1::Neg: return row1<OpNeg>(cls);
  case KernelOp1::Abs: return row1<OpAbs>(cls);
  case KernelOp1::Sqrt: return row1<OpSqrt>(cls);
  case KernelOp1::Exp: return row1<OpExp>(cls);
  }
  LUIS_UNREACHABLE("unknown unary kernel op");
}

} // namespace luis::numrep
