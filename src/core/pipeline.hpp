// The end-to-end LUIS tuning pipeline (Figure 1 of the paper):
//
//   annotated IR --VRA--> value ranges --Data Type Allocation--> ILP model
//   --solver--> type assignment --conversion--> tuned kernel
//
// The pipeline also exposes per-stage wall-clock timings, which the
// compilation-overhead experiment (Section V-B) consumes.
#pragma once

#include <utility>

#include "analysis/error_bounds.hpp"
#include "analysis/lint.hpp"
#include "core/config.hpp"
#include "core/ilp_allocator.hpp"
#include "core/greedy_allocator.hpp"
#include "platform/optime.hpp"

namespace luis::core {

enum class AllocatorKind { Ilp, Greedy };

/// Opt-in precision lint over the pipeline's output (see analysis/lint.hpp):
/// Warn collects diagnostics for reporting only; Error additionally fails
/// the pipeline (PipelineResult::lint_ok) on error-severity findings.
enum class LintMode { Off, Warn, Error };

struct PipelineOptions {
  AllocatorKind allocator = AllocatorKind::Ilp;
  vra::VraOptions vra;
  /// Run the IR cleanup passes (constant folding, DCE, CFG simplification)
  /// before analysis — the position LUIS occupies after LLVM's pipeline.
  /// Mutates the IR; off by default so one build can be tuned repeatedly.
  bool optimize_ir = false;
  /// Insert explicit Cast instructions into the function after allocation
  /// (mutates the IR; off by default so one build can be tuned repeatedly).
  bool materialize_casts = false;
  /// Run the precision lint after allocation (and after cast
  /// materialization when that stage is enabled, so the casts are checked
  /// too).
  LintMode lint = LintMode::Off;
  analysis::LintOptions lint_options;
  /// Run the static error-bound analysis over the allocator's output
  /// (analysis/error_bounds.hpp). The certified bounds land in
  /// PipelineResult::errors and feed the error-aware lint rules
  /// (L008–L011) when the lint stage is also enabled.
  bool analyze_errors = false;
};

/// Wall-clock seconds per pipeline stage. Each field is the interval of
/// one timed trace span (docs/OBSERVABILITY.md, "Timing"); the stage spans
/// are disjoint children of `pipeline.tune`, so their sum is bounded by
/// `total_seconds` (slightly below it: bookkeeping between stages, such as
/// the range refresh after cast materialization, belongs to no stage).
struct StageTimings {
  double ir_seconds = 0.0;          ///< optional IR cleanup passes
  double vra_seconds = 0.0;         ///< value range analysis only
  double allocation_seconds = 0.0;  ///< model build + solve (or greedy scan)
  double materialize_seconds = 0.0; ///< cast materialization
  double error_seconds = 0.0;       ///< static error-bound analysis
  double lint_seconds = 0.0;        ///< precision lint
  double total_seconds = 0.0;       ///< whole tune_kernel call
  /// Sub-stages of allocation, sourced from AllocationStats: ILP model
  /// construction vs. branch & bound solve. Greedy reports its scan as
  /// solve time. Both are contained in allocation_seconds, so they are
  /// excluded from stage_sum().
  double model_build_seconds = 0.0;
  double solve_seconds = 0.0;
  /// Interpretation time of the job's tuned-kernel execution, split by the
  /// engine into bytecode compilation (zero on the reference engine) and
  /// execution. Interpretation happens outside tune_kernel, so these are
  /// not part of stage_sum() or total_seconds.
  double interp_compile_seconds = 0.0;
  double interp_execute_seconds = 0.0;

  /// Sum of the disjoint top-level stages (always <= total_seconds).
  double stage_sum() const {
    return ir_seconds + vra_seconds + allocation_seconds +
           materialize_seconds + error_seconds + lint_seconds;
  }

  StageTimings& operator+=(const StageTimings& o);
  /// Divides every field by `n`: one row's share of stages measured once
  /// on behalf of `n` rows.
  StageTimings& operator/=(double n);
};

/// Every StageTimings field with its report key, in report order.
inline constexpr std::pair<const char*, double StageTimings::*>
    kStageTimingFields[] = {
        {"ir_seconds", &StageTimings::ir_seconds},
        {"vra_seconds", &StageTimings::vra_seconds},
        {"allocation_seconds", &StageTimings::allocation_seconds},
        {"model_build_seconds", &StageTimings::model_build_seconds},
        {"solve_seconds", &StageTimings::solve_seconds},
        {"materialize_seconds", &StageTimings::materialize_seconds},
        {"error_seconds", &StageTimings::error_seconds},
        {"lint_seconds", &StageTimings::lint_seconds},
        {"interp_compile_seconds", &StageTimings::interp_compile_seconds},
        {"interp_execute_seconds", &StageTimings::interp_execute_seconds},
        {"total_seconds", &StageTimings::total_seconds},
};

inline StageTimings& StageTimings::operator+=(const StageTimings& o) {
  for (const auto& [key, field] : kStageTimingFields) this->*field += o.*field;
  return *this;
}

inline StageTimings& StageTimings::operator/=(double n) {
  for (const auto& [key, field] : kStageTimingFields) this->*field /= n;
  return *this;
}

struct PipelineResult {
  AllocationResult allocation;
  vra::RangeMap ranges;
  int ir_changes = 0; ///< rewrites made by the optional cleanup passes
  StageTimings timings;
  int casts_inserted = 0;
  /// Certified error bounds (empty unless PipelineOptions::analyze_errors).
  analysis::ErrorAnalysisResult errors;
  /// Lint findings (empty when PipelineOptions::lint is Off).
  analysis::DiagnosticEngine lint;
  /// False iff lint ran in Error mode and found error-severity diagnostics.
  bool lint_ok = true;
};

/// Runs the pipeline on `f`. The op-time table is only consulted by the
/// ILP allocator (the greedy baseline is cost-blind, as in stock TAFFO).
PipelineResult tune_kernel(ir::Function& f, const platform::OpTimeTable& table,
                           const TuningConfig& config,
                           const PipelineOptions& options = {});

} // namespace luis::core
