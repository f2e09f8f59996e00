// Static rounding-error analysis: certified worst-case absolute error
// bounds for a (Function, TypeAssignment, RangeMap) triple.
//
// The pipeline's MPE numbers are dynamic — they measure the precision an
// allocation loses on the inputs that were actually executed. This
// analysis is the static counterpart (in the spirit of the bit-level
// tuners of arXiv 2103.05241): a forward abstract interpretation, built on
// analysis/dataflow.hpp, where every Real value carries a worst-case
// absolute deviation between the quantized execution and the exact (real
// arithmetic) execution over the annotated input ranges.
//
// The domain, per value v: err(v) such that for every execution whose
// array inputs respect the VRA ranges, |quantized(v) - exact(v)| <= err(v).
//
//   * Each arithmetic instruction first contributes the operate-then-round
//     model's own rounding: eps/2 of the result format's local resolution
//     (2^-IEBW over the perturbed result range, via the existing IEBW
//     machinery), plus eps/2 of binary64 for the internal computation (a
//     few ulps for the libm intrinsics), plus a saturation allowance for
//     fixed/posit formats and infinity past a float format's max value.
//   * Operand errors propagate through the operation's sensitivity on the
//     VRA intervals: linearly for add/sub, scaled by the co-operand's
//     magnitude for mul, through perturbed divisor bounds for div (the
//     bound is infinite when the perturbed divisor can straddle zero), and
//     via range-hull widths where no tighter argument exists (rem,
//     non-integer pow, unstable selects).
//   * Loop accumulation goes through arrays (and loop-carried phis). Join
//     effects that keep growing are widened geometrically: after a few
//     observation sweeps that estimate the loop's error-growth ratio r
//     (the largest pass-over-pass increment ratio — a Collatz-Wielandt
//     style upper bound on the system's loop gain), the bound jumps to
//     `current + increment * N * r^N`, where N is a trip-count bound
//     extracted from the loop's induction phis (constant guards,
//     guard-bounded outer phis for triangular nests, or trusted VRA
//     ranges). A target that outgrows two extrapolations saturates.
//   * Every array bound saturates at the *representation cap*: the format's
//     largest representable magnitude plus the reference range magnitude.
//     Fixed and posit kernels saturate in hardware, so the cap is
//     unconditional; float formats can overflow to infinity, so a capped
//     float bound is certified only for executions whose quantized run
//     stays finite (`assumes_finite_run` in the result).
//
// Soundness caveats (see docs/ANALYSIS.md for the full argument):
//   * Array range annotations are trusted, exactly as the rest of the
//     pipeline trusts them ("array ranges are authoritative"). Run the VRA
//     in join_stores mode for a self-contained certificate.
//   * Ranges that touch the VRA clamp magnitude are treated as unknown and
//     poison dependent bounds to infinity.
//   * A real-valued comparison steering control flow (CondBr on FCmp, or
//     an integer select on FCmp) can make the two executions diverge; every
//     store then charges the representation cap instead of a propagated
//     bound. Real-valued selects on FCmp are handled per-instruction via
//     comparison stability.
//
// Every bound is inflated multiplicatively so the analysis's own binary64
// rounding cannot undercut the true bound.
#pragma once

#include <limits>
#include <map>

#include "analysis/dataflow.hpp"
#include "interp/type_assignment.hpp"
#include "ir/function.hpp"
#include "numrep/formats.hpp"
#include "vra/range_analysis.hpp"

namespace luis::analysis {

/// Certified absolute error per value. Real registers and arrays have
/// entries; constants are exact (their quantization is charged at the
/// consuming instruction); anything unknown is unbounded.
class ErrorMap {
public:
  static constexpr double kUnbounded = std::numeric_limits<double>::infinity();

  double of(const ir::Value* value) const {
    const auto it = errors_.find(value);
    if (it != errors_.end()) return it->second;
    return value->is_constant() ? 0.0 : kUnbounded;
  }
  bool has(const ir::Value* value) const { return errors_.count(value) > 0; }
  void set(const ir::Value* value, double err) { errors_[value] = err; }
  std::size_t size() const { return errors_.size(); }
  const std::map<const ir::Value*, double>& entries() const { return errors_; }

private:
  std::map<const ir::Value*, double> errors_;
};

struct ErrorAnalysisResult {
  ErrorMap errors;
  DataflowStats stats;
  /// True when a real-valued comparison can steer control flow or integer
  /// data (CondBr on FCmp / integer select on FCmp): the two executions
  /// may diverge and every store charges the representation cap.
  bool divergent_control = false;
  /// Join updates that were truncated at an array's representation cap
  /// (the format's largest representable magnitude plus the reference
  /// range magnitude).
  long capped_bounds = 0;
  /// True when a cap on a *float*-format array carries the finite-run side
  /// condition: floats overflow to infinity instead of saturating, so the
  /// capped bound certifies only executions whose quantized run stays
  /// finite. Saturating formats (fixed, posit) cap unconditionally.
  bool assumes_finite_run = false;
  /// Wall-clock seconds of the analysis (its `analysis.error_bounds` span).
  double seconds = 0.0;

  /// Certified relative bound for `value`: abs bound normalized by the
  /// largest magnitude of its VRA range (the scale of the data flowing
  /// through it). Zero-width zero ranges normalize to the abs bound.
  double relative(const ir::Value* value, const vra::RangeMap& ranges) const;
};

/// Worst-case |quantize(type, x) - x| over |x| <= max_magnitude: half the
/// format's local resolution at the magnitude extreme (2^-IEBW), plus a
/// saturation allowance for fixed point and posits. Infinite when a float
/// format overflows to infinity at that magnitude.
double quantization_bound(const numrep::ConcreteType& type,
                          double max_magnitude);

/// The largest error a stored array cell can carry whatever the run
/// computes: the format's largest representable magnitude plus the
/// reference range's magnitude. Array bounds saturate at this cap.
double representation_cap(const numrep::ConcreteType& type,
                          const vra::Interval& range);

/// Runs the analysis. `ranges` must come from analyze_ranges over the same
/// function (its clamp magnitude marks untrusted top ranges).
ErrorAnalysisResult analyze_errors(const ir::Function& f,
                                   const interp::TypeAssignment& assignment,
                                   const vra::RangeMap& ranges);

} // namespace luis::analysis
