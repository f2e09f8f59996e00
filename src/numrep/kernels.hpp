// Pre-bound numeric kernels: one specialized (operation x format-class)
// function per table slot, selected once at bytecode-compile time instead
// of re-deriving the FormatClass and routing through the generic
// numrep::quantize switch on every executed instruction.
//
// Bit-identity contract. Every kernel computes exactly what the reference
// interpreter computes: the operation in binary64 (using the same libm
// entry points), then a rounding step through the same per-class rounder
// quantize() reaches — FloatRounder::round (soft_float.hpp),
// FixedRounder::round (fixed_point.hpp), quantize_posit or
// quantize_fixed_posit. The reference interpreter resolves the rounder's
// constants per call (round_to_format, quantize_fixed); the kernels read
// them from a QuantSpec resolved once per type. The constants are the
// same, and so is the rounding code, so VM and reference agree bit for
// bit. binary64 results take kernels with no rounding step at all: its
// rounder is the identity, NaN payloads included.
#pragma once

#include "numrep/fixed_point.hpp"
#include "numrep/formats.hpp"
#include "numrep/soft_float.hpp"

namespace luis::numrep {

/// Quantization parameters resolved once per ConcreteType at compile time:
/// the format for the posit rounders, and the rounding constants of the
/// float or fixed point rounder (whichever class the type has).
struct QuantSpec {
  NumericFormat format = kBinary64;
  FloatRounder flt{};
  FixedRounder fix{};
};

QuantSpec make_quant_spec(const ConcreteType& type);

/// A pre-selected rounding routine for one format class.
using QuantFn = double (*)(const QuantSpec&, double);

/// The rounder quantize() would dispatch to for `type`'s class (the
/// identity for binary64).
QuantFn bind_quantizer(const ConcreteType& type);

/// Binary real operations of the kernel table (the costed opcodes with two
/// real operands).
enum class KernelOp2 : int { Add, Sub, Mul, Div, Rem, Pow, Min, Max };
/// Unary real operations of the kernel table.
enum class KernelOp1 : int { Neg, Abs, Sqrt, Exp };

/// A fused operate-then-round kernel: binary64 op + one rounding step.
using Kernel2 = double (*)(const QuantSpec&, double, double);
using Kernel1 = double (*)(const QuantSpec&, double);

/// Kernel table lookups: the slot for (op, result format class).
Kernel2 bind_kernel2(KernelOp2 op, const ConcreteType& result);
Kernel1 bind_kernel1(KernelOp1 op, const ConcreteType& result);

} // namespace luis::numrep
