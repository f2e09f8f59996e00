// Measured-vs-certified cross-check: compares the per-array deviations a
// shadow-execution run measured (interp::ErrorProfile's ArrayErrorStats)
// against the static certificates of analysis/error_bounds.hpp.
//
// The certificate is composed exactly as the fuzz oracle composes it: the
// assignment's certified bound plus the certified bound of the binary64
// reference itself (the shadow stands in for the exact execution, and its
// own distance to exactness must be budgeted). The comparison is a hard
// soundness check — a finite certified bound exceeded by a measured
// deviation means either the analysis or the profiler is wrong — plus a
// quality signal: the tightness ratio certified/measured says how much
// headroom the static analysis leaves on real data.
//
// Applicability. The shadow follows the *quantized* run's control flow.
// Only when the run recorded zero control divergences is the shadow
// bit-identical to an independent binary64 run, which is the execution
// the certificate speaks about; with divergences the comparison is still
// reported (the capped certificates are far larger than any path-following
// deviation) but no violation is claimed. Likewise, a non-finite buffer
// voids the float finite-run side condition, and an infinite certificate
// makes no claim at all.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/error_bounds.hpp"
#include "interp/interpreter.hpp"

namespace luis::analysis {

/// One array's measured-vs-certified comparison.
struct ArrayCertCheck {
  std::string name;
  double measured = 0.0;  ///< max |quantized - shadow| over final contents
  double certified = 0.0; ///< certified(assignment) + certified(binary64)
  /// certified / measured; +inf when nothing was measurably lost.
  double tightness = 0.0;
  bool checked = false;  ///< a finite claim existed and applied
  bool violated = false; ///< checked and measured > certified
};

struct CertificateCrossCheck {
  /// Zero recorded control divergences: the shadow outputs equal an
  /// independent binary64 run, so the certificate's claim applies.
  bool shadow_is_reference = false;
  bool divergent_control = false;  ///< static analysis saw FCmp control
  bool assumes_finite_run = false; ///< float caps carry the side condition
  long capped_bounds = 0;
  bool any_violation = false;
  std::vector<ArrayCertCheck> arrays; ///< in `measured` order
};

/// Runs the VRA (join_stores, self-contained certificate) and both error
/// analyses, then compares each measured array stat against its composed
/// certificate. `measured` comes from a finalized ErrorProfile's `arrays`;
/// `control_divergences` from the same profile.
CertificateCrossCheck
cross_check_certificates(const ir::Function& f,
                         const interp::TypeAssignment& assignment,
                         std::span<const interp::ArrayErrorStats> measured,
                         long control_divergences);

/// Human-readable table (one row per array) plus the verdict line.
std::string certificate_check_text(const CertificateCrossCheck& check);

/// JSON object (no build stamp — meant to be embedded in a report).
std::string certificate_check_json(const CertificateCrossCheck& check);

} // namespace luis::analysis
