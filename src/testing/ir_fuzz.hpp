// Random verifier-clean IR programs and their oracles.
//
// The generator builds small loop-nest kernels through KernelBuilder (the
// same vocabulary PolyBench kernels use), so every instance is well formed
// by construction; the oracles then check the properties the rest of the
// system leans on: printer/parser round-tripping, clone() exactness, and
// interpreter determinism under arbitrary quantize type assignments
// (including an assignment_io save/load across the text round trip).
//
// IR shrinking works on the generation recipe, not the program text: a
// failing (seed, options) pair is re-generated under smaller options until
// no single reduction keeps it failing, which preserves verifier-cleanness
// for free.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "interp/engine.hpp"
#include "interp/interpreter.hpp"
#include "ir/function.hpp"
#include "support/rng.hpp"
#include "testing/fuzz.hpp"

namespace luis::testing {

struct IrGenOptions {
  std::int64_t min_extent = 4; ///< array extent n, uniform in [min, max]
  std::int64_t max_extent = 10;
  int min_arrays = 2;
  int max_arrays = 4;
  int expr_depth = 3;       ///< maximum random expression tree depth
  bool allow_2d = true;     ///< permit rank-2 arrays
  bool allow_nested = true; ///< permit depth-2 guarded loop nests
};

struct GeneratedIr {
  ir::Function* function = nullptr; ///< owned by the module passed in
  interp::ArrayStore inputs;
};

/// Builds a random but well-formed kernel: arrays, a loop nest of depth
/// 1-2, and a random expression tree stored back. Expressions avoid
/// division by values straddling zero so every generated program is
/// numerically tame under binary64.
GeneratedIr generate_ir_kernel(ir::Module& module, Rng& rng,
                               const IrGenOptions& options = {},
                               const std::string& name = "fuzz");

/// Deterministic inputs for a parsed corpus kernel: arrays filled from
/// their range annotations with a fixed-seed generator.
interp::ArrayStore synth_ir_inputs(const ir::Function& f,
                                   std::uint64_t seed = 0xC0FFEE);

/// A random executable type assignment over the standard formats (floats,
/// posits, and fixed point with random fractional bits), used to exercise
/// the interpreter's quantization paths.
interp::TypeAssignment random_type_assignment(const ir::Function& f, Rng& rng);

/// The IR property set:
///   1. the function verifies;
///   2. print -> parse -> print is a fixpoint (a copy through the text is
///      print-exact);
///   3. the binary64 reference run succeeds with finite outputs;
///   4. a random quantized assignment runs deterministically (two runs are
///      bit-identical in outputs and cost counters), and re-running it on
///      the parsed-back text under the assignment_io round trip reproduces
///      the same outputs bit-for-bit;
///   5. the VM and reference engines agree bit for bit on that assignment:
///      outputs, ok/error, step count, and cost counters.
/// `type_rng` drives property 4's assignment. `engine` selects which
/// engine executes properties 3-4 (the other side of property 5 always
/// runs too, so either choice keeps the differential).
CheckResult check_ir_instance(
    const ir::Function& f, const interp::ArrayStore& inputs, Rng& type_rng,
    interp::EngineKind engine = interp::EngineKind::Reference);

struct IrShrinkResult {
  IrGenOptions options;
  int attempts = 0;
};

/// Greedy recipe-level shrinking: tries smaller extents, fewer arrays,
/// shallower expressions, and disabling 2-D/nesting, keeping reductions
/// for which `still_fails` (re-generating from the same seed) returns true.
IrShrinkResult shrink_ir_options(
    const IrGenOptions& options,
    const std::function<bool(const IrGenOptions&)>& still_fails);

} // namespace luis::testing
