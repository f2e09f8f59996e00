#include "analysis/certificate_check.hpp"

#include <cmath>
#include <limits>

#include "support/json.hpp"
#include "support/string_utils.hpp"
#include "vra/range_analysis.hpp"

namespace luis::analysis {

CertificateCrossCheck
cross_check_certificates(const ir::Function& f,
                         const interp::TypeAssignment& assignment,
                         std::span<const interp::ArrayErrorStats> measured,
                         long control_divergences) {
  // join_stores makes the certificate self-contained: the only trusted
  // inputs are the array range annotations (same setup as the fuzz
  // oracle and `luis check`).
  vra::VraOptions vra_options;
  vra_options.join_stores = true;
  const vra::RangeMap ranges = vra::analyze_ranges(f, vra_options);
  const ErrorAnalysisResult certified =
      analyze_errors(f, assignment, ranges);
  const interp::TypeAssignment binary64;
  const ErrorAnalysisResult reference_err =
      analyze_errors(f, binary64, ranges);

  CertificateCrossCheck out;
  out.shadow_is_reference = control_divergences == 0;
  out.divergent_control =
      certified.divergent_control || reference_err.divergent_control;
  out.assumes_finite_run =
      certified.assumes_finite_run || reference_err.assumes_finite_run;
  out.capped_bounds = certified.capped_bounds + reference_err.capped_bounds;

  // The float finite-run side condition is a whole-run property: one
  // overflowed buffer voids every capped float bound, not just its own.
  bool run_finite = true;
  for (const interp::ArrayErrorStats& m : measured)
    run_finite = run_finite && m.finite;

  for (const interp::ArrayErrorStats& m : measured) {
    ArrayCertCheck c;
    c.name = m.name;
    c.measured = m.max_abs;
    const ir::Value* arr = nullptr;
    for (const auto& a : f.arrays())
      if (a->name() == m.name) {
        arr = a.get();
        break;
      }
    c.certified = arr ? certified.errors.of(arr) + reference_err.errors.of(arr)
                      : ErrorMap::kUnbounded;
    c.tightness = c.measured > 0.0
                      ? c.certified / c.measured
                      : std::numeric_limits<double>::infinity();
    // A claim applies only when the certificate is finite, the run stayed
    // finite wherever a float cap demands it, and the shadow actually is
    // the reference execution.
    c.checked = std::isfinite(c.certified) && m.finite &&
                out.shadow_is_reference &&
                (run_finite || !out.assumes_finite_run);
    c.violated = c.checked && c.measured > c.certified;
    out.any_violation = out.any_violation || c.violated;
    out.arrays.push_back(std::move(c));
  }
  return out;
}

std::string certificate_check_text(const CertificateCrossCheck& check) {
  std::string out = format_string(
      "certificate cross-check (%s%s%s):\n",
      check.shadow_is_reference ? "shadow = binary64 reference"
                                : "control diverged - advisory only",
      check.divergent_control ? ", divergent control certified" : "",
      check.assumes_finite_run ? ", assumes finite run" : "");
  out += format_string("%-12s %12s %12s %12s  %s\n", "array", "measured",
                       "certified", "tightness", "status");
  for (const ArrayCertCheck& c : check.arrays) {
    const char* status = !c.checked      ? "no claim"
                         : c.violated    ? "VIOLATED"
                                         : "ok";
    out += format_string("%-12s %12.4g %12.4g %12.4g  %s\n", c.name.c_str(),
                         c.measured, c.certified, c.tightness, status);
  }
  out += check.any_violation
             ? "FAIL: a measured error exceeds its certified bound\n"
             : "pass: every checked array within its certified bound\n";
  return out;
}

std::string certificate_check_json(const CertificateCrossCheck& check) {
  JsonWriter w;
  w.begin_object();
  w.key("shadow_is_reference");
  w.value(check.shadow_is_reference);
  w.key("divergent_control");
  w.value(check.divergent_control);
  w.key("assumes_finite_run");
  w.value(check.assumes_finite_run);
  w.key("capped_bounds");
  w.value(check.capped_bounds);
  w.key("any_violation");
  w.value(check.any_violation);
  w.key("arrays");
  w.begin_array();
  for (const ArrayCertCheck& c : check.arrays) {
    w.begin_object();
    w.key("name");
    w.value(c.name);
    w.key("measured");
    w.value(c.measured, "%.17g");
    w.key("certified");
    w.value(c.certified, "%.17g");
    w.key("tightness");
    w.value(c.tightness, "%.6g");
    w.key("checked");
    w.value(c.checked);
    w.key("violated");
    w.value(c.violated);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

} // namespace luis::analysis
