// Pre-bound numeric kernels: one specialized (operation x format-class)
// function per table slot, selected once at bytecode-compile time instead
// of re-deriving the FormatClass and routing through the generic
// numrep::quantize switch on every executed instruction.
//
// Bit-identity contract. Every kernel computes exactly what the reference
// interpreter computes: the operation in binary64 (using the same libm
// entry points), then a rounding step through the same per-class routine
// quantize() dispatches to (round_to_format / quantize_fixed /
// quantize_posit / quantize_fixed_posit, or the registered policy's
// quantize for extension classes). The only thing removed is the
// per-execution dispatch; the arithmetic is shared, so VM and reference
// agree bit for bit.
#pragma once

#include "numrep/fixed_point.hpp"
#include "numrep/formats.hpp"
#include "numrep/registry.hpp"

namespace luis::numrep {

/// Quantization parameters resolved once per ConcreteType at compile time:
/// the format for the float/posit rounders, the FixedSpec for the fixed
/// point one (so quantize_fixed no longer rebuilds it per call), and the
/// registry policy for extension classes bound through the generic slot.
struct QuantSpec {
  NumericFormat format = kBinary64;
  FixedSpec fixed{};
  const FormatClassOps* ops = nullptr;
};

QuantSpec make_quant_spec(const ConcreteType& type);

/// A pre-selected rounding routine for one format class.
using QuantFn = double (*)(const QuantSpec&, double);

/// The rounder quantize() would dispatch to for `type`'s class.
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
