// The error-aware lint passes (L008–L011, registered in lint.cpp).
//
// These rules consume the static error-bound analysis
// (analysis/error_bounds.hpp) through LintContext::errors and are skipped
// when the caller did not run it. Like the structural checks they walk the
// function in program order and never mutate anything.
#include <cmath>
#include <sstream>

#include "analysis/error_bounds.hpp"
#include "analysis/lint.hpp"

namespace luis::analysis {

using ir::Instruction;
using ir::Opcode;
using ir::ScalarType;

namespace {

/// L009: an output array whose certified absolute error reaches this
/// fraction of its value scale carries no trustworthy bits.
constexpr double kErrorDominatedRatio = 1.0;
/// L010 trips when a subtraction cancels at least this many leading
/// magnitude bits of error-carrying operands.
constexpr int kCancellationBits = 16;
/// L011 trips when two non-constant phi inputs' certified errors differ by
/// at least this many bits.
constexpr int kImbalanceBits = 20;

std::string fmt_error(double e) {
  if (e == ErrorMap::kUnbounded) return "unbounded";
  std::ostringstream os;
  os << e;
  return os.str();
}

/// Arrays the kernel writes: the values whose certified error the caller
/// observes after the run.
bool is_output_array(const LintContext& ctx, const ir::Value* arr) {
  const auto it = ctx.uses.find(arr);
  if (it == ctx.uses.end()) return false;
  for (const ir::Use& use : it->second)
    if (use.user->opcode() == Opcode::Store && use.operand_index == 1)
      return true;
  return false;
}

} // namespace

// ---------------------------------------------------------------------------
// L008 error-budget-exceeded: a stored-to array's certified relative error
// is above the configured budget (luis check --max-rel-error).
// ---------------------------------------------------------------------------
void check_error_budget(const LintContext& ctx, DiagnosticEngine& engine) {
  if (ctx.errors == nullptr) return;
  const double budget = ctx.options.max_rel_error;
  if (budget == std::numeric_limits<double>::infinity()) return;
  for (const auto& arr : ctx.function.arrays()) {
    if (!is_output_array(ctx, arr.get())) continue;
    const double abs = ctx.errors->of(arr.get());
    const double scale = ctx.ranges.of(arr.get()).max_magnitude();
    const double rel =
        (scale > 0.0 && std::isfinite(scale)) ? abs / scale : abs;
    if (!(rel > budget)) continue;
    std::ostringstream msg;
    msg << "certified relative error " << fmt_error(rel)
        << " exceeds the budget " << budget;
    engine.report({"L008", Severity::Error, "error-budget-exceeded",
                   ctx.describe(arr.get()), msg.str(),
                   "widen the formats on the paths feeding this array, or "
                   "relax --max-rel-error"});
  }
}

// ---------------------------------------------------------------------------
// L009 error-dominated-output: the certified error of an output array is as
// large as the values it holds — no stored bit is trustworthy.
// ---------------------------------------------------------------------------
void check_error_dominated(const LintContext& ctx, DiagnosticEngine& engine) {
  if (ctx.errors == nullptr) return;
  for (const auto& arr : ctx.function.arrays()) {
    if (!is_output_array(ctx, arr.get())) continue;
    const double abs = ctx.errors->of(arr.get());
    const double scale = ctx.ranges.of(arr.get()).max_magnitude();
    const double rel =
        (scale > 0.0 && std::isfinite(scale)) ? abs / scale : abs;
    if (!(rel >= kErrorDominatedRatio)) continue;
    std::ostringstream msg;
    msg << "certified error " << fmt_error(abs)
        << " dominates the value scale " << scale
        << "; the stored values carry no information";
    engine.report({"L009", Severity::Warning, "error-dominated-output",
                   ctx.describe(arr.get()), msg.str(),
                   "this usually means an unbounded loop accumulation or an "
                   "untrusted range; check the VRA report"});
  }
}

// ---------------------------------------------------------------------------
// L010 catastrophic-cancellation: a subtraction whose result range is many
// binades below its operands'. The absolute operand errors survive the
// subtraction unchanged, so the *relative* error of the small result is
// amplified by the cancelled magnitude ratio.
// ---------------------------------------------------------------------------
void check_cancellation(const LintContext& ctx, DiagnosticEngine& engine) {
  if (ctx.errors == nullptr) return;
  const double ratio = std::ldexp(1.0, kCancellationBits);
  for (const auto& bb : ctx.function.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != Opcode::Sub || inst->type() != ScalarType::Real)
        continue;
      const double in_mag =
          std::max(ctx.ranges.of(inst->operand(0)).max_magnitude(),
                   ctx.ranges.of(inst->operand(1)).max_magnitude());
      const double out_mag = ctx.ranges.of(inst.get()).max_magnitude();
      if (!(out_mag > 0.0) || !std::isfinite(in_mag)) continue;
      if (in_mag / out_mag < ratio) continue;
      // Exact operands cancel harmlessly; only rounded ones amplify.
      const double carried = std::max(ctx.errors->of(inst->operand(0)),
                                      ctx.errors->of(inst->operand(1)));
      if (!(carried > 0.0)) continue;
      std::ostringstream msg;
      msg << "operands of magnitude " << in_mag << " cancel to " << out_mag
          << " (" << std::ilogb(in_mag / out_mag)
          << " bits), amplifying carried error " << fmt_error(carried);
      engine.report({"L010", Severity::Warning, "catastrophic-cancellation",
                     ctx.describe(inst.get()), msg.str(),
                     "compute the difference in a wider format, or refactor "
                     "the expression to avoid the cancellation"});
    }
  }
}

// ---------------------------------------------------------------------------
// L011 phi-error-imbalance: a real phi joining paths whose certified errors
// differ by many bits — one path's precision is wasted on the other's
// sloppiness (or one path is under-allocated).
// ---------------------------------------------------------------------------
void check_phi_imbalance(const LintContext& ctx, DiagnosticEngine& engine) {
  if (ctx.errors == nullptr) return;
  const double ratio = std::ldexp(1.0, kImbalanceBits);
  for (const auto& bb : ctx.function.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (!inst->is_phi() || inst->type() != ScalarType::Real) continue;
      // Constant incomings are exact by construction; comparing them
      // against computed paths would flag every accumulator's init edge.
      double lo = std::numeric_limits<double>::infinity();
      double hi = 0.0;
      int considered = 0;
      for (std::size_t i = 0; i < inst->num_operands(); ++i) {
        const ir::Value* in = inst->operand(i);
        if (in->is_constant()) continue;
        const double e = ctx.errors->of(in);
        lo = std::min(lo, e);
        hi = std::max(hi, e);
        ++considered;
      }
      if (considered < 2 || !(lo > 0.0) || !std::isfinite(lo)) continue;
      if (!(hi / lo >= ratio)) continue;
      std::ostringstream msg;
      msg << "incoming certified errors span " << fmt_error(lo) << " to "
          << fmt_error(hi) << " (>= " << kImbalanceBits
          << " bits apart)";
      engine.report({"L011", Severity::Warning, "phi-error-imbalance",
                     ctx.describe(inst.get()), msg.str(),
                     "raise the precision of the sloppy incoming path (its "
                     "bits are discarded at this join anyway)"});
    }
  }
}

} // namespace luis::analysis
