// Certified static error bounds vs measured error.
//
// For every PolyBench kernel tuned with the Fast preset on Stm32, compares
// the certified worst-case absolute error bound of the tuned assignment
// (analysis/error_bounds.hpp, on the VRA ranges the allocator used, as
// `luis check` does) against the measured worst absolute output deviation
// of the tuned execution from the binary64 one.
//
// "Measured" is a distance to the binary64 run, not to exact arithmetic,
// so the claim it is held to is the *composed* certificate: the tuned
// bound plus the binary64 run's own certified bound (the composition
// analysis/certificate_check.hpp uses). Exits 1 when a finite composed
// certificate is below a measured deviation; a "cap" mark flags a bound
// saturated at its format's representation cap.
#include <cmath>
#include <cstdio>
#include <limits>

#include "analysis/error_bounds.hpp"
#include "core/pipeline.hpp"
#include "polybench/polybench.hpp"

using namespace luis;

namespace {

/// Worst |tuned - ref| over one output; a NaN deviation counts as infinite.
double max_deviation(const std::vector<double>& ref,
                     const std::vector<double>& tuned) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = std::abs(ref[i] - tuned[i]);
    worst = std::isnan(d) ? std::numeric_limits<double>::infinity()
                          : std::max(worst, d);
  }
  return worst;
}

/// True when `bound` sits at the representation cap the analysis
/// saturates array bounds at.
bool at_cap(double bound, const numrep::ConcreteType& type,
            const vra::Interval& range) {
  return std::isfinite(bound) &&
         bound >= analysis::representation_cap(type, range);
}

} // namespace

int main() {
  std::printf("=== Certified error bound vs measured error (Fast preset, "
              "Stm32) ===\n\n");
  std::printf("%-16s %-8s %14s %14s %10s %14s\n", "kernel", "output",
              "certified", "composed", "measured", "composed/meas");
  int total = 0, finite = 0, capped = 0, composed_below_cap = 0, sound = 0,
      violations = 0;
  const interp::TypeAssignment binary64;
  for (const std::string& name : polybench::kernel_names()) {
    ir::Module m;
    polybench::BuiltKernel kernel = polybench::build_kernel(name, m);
    const ir::Function& f = *kernel.function;
    const vra::RangeMap ranges = vra::analyze_ranges(f);
    const core::AllocationResult alloc = core::allocate_ilp(
        f, ranges, platform::stm32_table(), core::TuningConfig::fast());

    const analysis::ErrorAnalysisResult tuned_err =
        analysis::analyze_errors(f, alloc.assignment, ranges);
    const analysis::ErrorAnalysisResult reference_err =
        analysis::analyze_errors(f, binary64, ranges);

    interp::ArrayStore ref = kernel.inputs;
    if (!run_function(f, binary64, ref).ok) continue;
    interp::ArrayStore tuned = kernel.inputs;
    if (!run_function(f, alloc.assignment, tuned).ok) continue;

    for (const std::string& out : kernel.outputs) {
      const ir::Array* arr = nullptr;
      for (const auto& a : f.arrays())
        if (a->name() == out) arr = a.get();
      const double certified = tuned_err.errors.of(arr);
      const double composed = certified + reference_err.errors.of(arr);
      const double measured = max_deviation(ref.at(out), tuned.at(out));
      const vra::Interval range = ranges.of(arr);
      const bool tuned_capped =
          at_cap(certified, alloc.assignment.of(arr), range);
      const bool composed_capped =
          at_cap(reference_err.errors.of(arr), binary64.of(arr), range);

      ++total;
      finite += std::isfinite(certified);
      capped += tuned_capped;
      composed_below_cap += std::isfinite(composed) && !composed_capped;
      const bool ok = measured <= composed;
      sound += ok;
      violations += std::isfinite(composed) && !ok;

      const auto cell = [](double v, bool cap) {
        char buf[32];
        if (!std::isfinite(v))
          std::snprintf(buf, sizeof buf, "unbounded");
        else
          std::snprintf(buf, sizeof buf, "%.3e%s", v, cap ? " cap" : "");
        return std::string(buf);
      };
      char ratio[32] = "-";
      if (std::isfinite(composed) && !composed_capped)
        std::snprintf(ratio, sizeof ratio, "%.1fx",
                      measured > 0 ? composed / measured : INFINITY);
      std::printf("%-16s %-8s %14s %14s %10.3e %14s%s\n", name.c_str(),
                  out.c_str(), cell(certified, tuned_capped).c_str(),
                  cell(composed, composed_capped).c_str(), measured, ratio,
                  ok ? "" : "  VIOLATED");
    }
  }
  std::printf("\ncertified bound finite on %d/%d outputs (%d at the "
              "representation cap)\n",
              finite, total, capped);
  std::printf("composed certificate below the binary64 cap on %d/%d\n",
              composed_below_cap, total);
  std::printf("measured <= composed on %d/%d\n", sound, total);
  if (violations > 0) {
    std::printf("FAIL: %d finite composed certificate(s) below the measured "
                "deviation\n",
                violations);
    return 1;
  }
  return 0;
}
