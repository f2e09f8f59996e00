// Precision lint: static soundness checks over (Function, TypeAssignment,
// VRA ranges).
//
// The ILP allocator promises that its output respects the same-type operand
// constraints, the fix-max(v, f) fractional-bit bounds derived from the VRA
// ranges, and the representable range of every chosen format. Nothing
// downstream re-checks those promises: ir::verify only validates SSA
// structure, and a buggy allocation surfaces (or silently skews the
// measurements) only when the interpreter runs it. The lint suite proves a
// type assignment sound *before* it runs, as a dataflow analysis over the
// allocation artifacts.
//
// Checks ship as registered passes, each owning one stable diagnostic code:
//
//   L001  assignment-completeness   register/array/literal without a type
//   L002  dangling-entry            entry for a value not in the function
//   L003  same-type-operands        ILP same-type constraint violated
//   L004  fixed-point-overflow      frac bits exceed fix-max(v, f)
//   L005  precision-loss-cast       IEBW drop across a cast / double rounding
//   L006  redundant-cast            identity cast or cancelling cast pair
//   L007  range-escape              VRA range exceeds the format's range
//
// The error-aware rules (checks_error.cpp) additionally consult the static
// error-bound analysis (analysis/error_bounds.hpp) when the caller supplies
// one; without an ErrorMap they are silently skipped:
//
//   L008  error-budget-exceeded     certified output error above the budget
//   L009  error-dominated-output    certified error swamps the value scale
//   L010  catastrophic-cancellation subtraction cancels leading bits of
//                                   operands that carry rounding error
//   L011  phi-error-imbalance       join paths with wildly different
//                                   certified precision
//
// See docs/LINT.md for the full catalog with examples and fixes.
#pragma once

#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "interp/type_assignment.hpp"
#include "ir/function.hpp"
#include "ir/verifier.hpp"
#include "vra/range_analysis.hpp"

namespace luis::analysis {

class ErrorMap;

struct LintOptions {
  /// L005 trips when a single cast drops more than this many guaranteed
  /// fractional bits (IEBW over the operand's range).
  int precision_loss_threshold = 12;
  /// The function has been through cast materialization: every remaining
  /// representation mismatch — including at stores — is a hard error
  /// because no later stage will reconcile it.
  bool casts_materialized = false;
  /// L008: certified relative-error budget for stored-to arrays. The
  /// default (infinity) disables the check; `luis check --max-rel-error`
  /// and the CLI lint flag set it.
  double max_rel_error = std::numeric_limits<double>::infinity();
  /// Codes to suppress entirely (e.g. {"L006"}).
  std::vector<std::string> disabled_codes;
};

/// Everything a lint pass may consult, built once per run.
struct LintContext {
  const ir::Function& function;
  const interp::TypeAssignment& assignment;
  const vra::RangeMap& ranges;
  LintOptions options;

  /// Printer ids (%0, %1, ...) for result-producing instructions.
  std::map<const ir::Instruction*, int> ids;
  /// Def -> uses map (ir::compute_uses).
  std::map<const ir::Value*, std::vector<ir::Use>> uses;
  /// Certified error bounds for the error-aware rules (L008–L011), or
  /// nullptr when the caller did not run the error analysis.
  const ErrorMap* errors = nullptr;

  /// "%12 (mul) in body", "@A", "const 2.5" — never dereferences pointers
  /// outside the function.
  std::string describe(const ir::Value* value) const;
};

/// A registered check. `codes` names the diagnostic code(s) the pass owns.
struct LintPass {
  const char* name;
  const char* codes;
  void (*run)(const LintContext& context, DiagnosticEngine& engine);
};

/// The built-in pass registry, in execution (and code) order.
std::span<const LintPass> lint_passes();

/// Runs every registered pass (minus `options.disabled_codes`) and returns
/// the collected diagnostics. Deterministic: passes run in registry order
/// and walk the function in program order. Pass the ErrorMap from
/// analyze_errors to enable the error-aware rules (L008–L011); they are
/// skipped when `errors` is null.
DiagnosticEngine run_lint(const ir::Function& function,
                          const interp::TypeAssignment& assignment,
                          const vra::RangeMap& ranges,
                          const LintOptions& options = {},
                          const ErrorMap* errors = nullptr);

} // namespace luis::analysis
