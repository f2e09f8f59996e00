// Static error bounds for a tuned kernel — the workflow a safety-minded
// user runs before shipping a precision-tuned binary: tune for speed, then
// get a certified worst-case error bound for the chosen types (or an
// honest "unbounded" where the analysis cannot certify), the analysis
// `luis check` runs.
#include <cmath>
#include <cstdio>
#include <string>

#include "analysis/error_bounds.hpp"
#include "core/pipeline.hpp"
#include "platform/cost_model.hpp"
#include "polybench/polybench.hpp"

using namespace luis;

int main(int argc, char** argv) {
  const std::string kernel_name = argc > 1 ? argv[1] : "atax";

  ir::Module module;
  polybench::BuiltKernel kernel = polybench::build_kernel(kernel_name, module);
  const ir::Function& f = *kernel.function;
  const vra::RangeMap ranges = vra::analyze_ranges(f);

  std::printf("kernel %s, tuning with the Fast preset for Stm32...\n\n",
              kernel_name.c_str());
  const core::AllocationResult alloc = core::allocate_ilp(
      f, ranges, platform::stm32_table(), core::TuningConfig::fast());
  for (const auto& arr : f.arrays())
    std::printf("  %-8s -> %s\n", arr->name().c_str(),
                alloc.assignment.of(arr.get()).name().c_str());

  const analysis::ErrorAnalysisResult analysis =
      analysis::analyze_errors(f, alloc.assignment, ranges);
  std::printf("\ncertified worst-case absolute error bounds (%d passes%s):\n",
              analysis.stats.passes,
              analysis.stats.converged ? ", converged" : "");
  for (const auto& arr : f.arrays()) {
    const double bound = analysis.errors.of(arr.get());
    if (std::isfinite(bound))
      std::printf("  %-8s <= %.3e\n", arr->name().c_str(), bound);
    else
      std::printf("  %-8s unbounded\n", arr->name().c_str());
  }

  // Cross-check against one measured execution. The deviation is measured
  // from the binary64 run, so it is held to the tuned bound plus the
  // binary64 run's own certified bound.
  const interp::TypeAssignment binary64;
  const analysis::ErrorAnalysisResult reference =
      analysis::analyze_errors(f, binary64, ranges);
  interp::ArrayStore ref = kernel.inputs;
  if (!run_function(f, binary64, ref).ok) return 1;
  interp::ArrayStore out = kernel.inputs;
  if (!run_function(f, alloc.assignment, out).ok) return 1;
  std::printf("\nmeasured worst deviation from binary64 on the bundled "
              "inputs:\n");
  bool sound = true;
  for (const std::string& o : kernel.outputs) {
    double worst = 0.0;
    for (std::size_t i = 0; i < ref.at(o).size(); ++i)
      worst = std::max(worst, std::abs(ref.at(o)[i] - out.at(o)[i]));
    const ir::Array* arr = nullptr;
    for (const auto& a : f.arrays())
      if (a->name() == o) arr = a.get();
    const double composed =
        analysis.errors.of(arr) + reference.errors.of(arr);
    std::printf("  %-8s %.3e (composed certificate %.3e)\n", o.c_str(), worst,
                composed);
    sound = sound && !(worst > composed);
  }
  return sound ? 0 : 1;
}
