// PolyBench/C 4.2.1 kernel suite, re-implemented on the LUIS IR.
//
// Each kernel builds the same loop nests and arithmetic as the original C
// source, with dataset sizes scaled down so that software-arithmetic
// interpretation of 30 kernels x 4 platforms x 4 configurations finishes
// in seconds (the paper runs native binaries; the *shape* of its results
// does not depend on the dataset size). Inputs use the original PolyBench
// init formulas.
//
// Range annotations are produced by a binary64 profiling run with a
// safety margin (annotate_from_run) — the "data pre-processing
// routine" route the paper explicitly allows as an alternative to manual
// annotations.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"
#include "ir/function.hpp"

namespace luis::polybench {

/// Dataset presets: Mini is the evaluation default (sized so that the
/// whole Figure 2 grid interprets in seconds); Small and Medium scale
/// every extent by 2x and 4x for the dataset-sensitivity experiments.
enum class DatasetSize { Mini, Small, Medium };

struct BuiltKernel {
  std::string name;
  ir::Function* function = nullptr; ///< owned by the module passed to build
  interp::ArrayStore inputs;        ///< initial array contents
  std::vector<std::string> outputs; ///< arrays compared for the MPE metric
};

/// The 30 kernels, in the row order of the paper's Figure 2.
std::span<const std::string> kernel_names();

/// Builds one kernel into `module`. If `annotate` is set (default), array
/// annotations are derived from a binary64 profiling run; otherwise the
/// placeholder annotations from construction remain.
BuiltKernel build_kernel(const std::string& name, ir::Module& module,
                         bool annotate = true,
                         DatasetSize size = DatasetSize::Mini);

/// Rewrites every array annotation of `kernel` to the range that `run`, a
/// binary64 run with RunOptions::track_array_ranges, observed, widened on
/// each side by 5% of its magnitude (interp::widen_observed_range). The
/// one annotation rule: build_kernel's profiling run goes through it too.
void annotate_from_run(BuiltKernel& kernel, const interp::RunResult& run);

} // namespace luis::polybench
