// Posit / extended-format exploration — the paper's "future work"
// direction (Section VI): the IEBW metric and the ILP model are defined
// for Posits and the extendable-precision floats, so the tuner can select
// among them today. This example widens the candidate type set to
//   { fix32, bfloat16, binary16, binary32, binary64, posit16, posit32 }
// and tunes a kernel under each preset, showing how the mix shifts.
#include <cstdio>

#include "core/pipeline.hpp"
#include "numrep/iebw.hpp"
#include "platform/cost_model.hpp"
#include "polybench/polybench.hpp"
#include "support/statistics.hpp"

using namespace luis;
using namespace luis::numrep;

int main() {
  std::printf("=== IEBW across representation systems (range [0.5, 8]) ===\n\n");
  const NumericFormat formats[] = {kFixed32,  kBfloat16, kBinary16, kBinary32,
                                   kBinary64, kPosit16,  kPosit32};
  for (const NumericFormat& fmt : formats) {
    const int frac = fmt.is_fixed() ? fixed_point_max_frac(32, true, 0.5, 8.0) : 0;
    std::printf("%-10s guaranteed %3d   best-case %3d\n", fmt.name().c_str(),
                iebw_of_range(fmt, 0.5, 8.0, frac),
                iebw_of_range_best_case(fmt, 0.5, 8.0, frac));
  }

  std::printf("\n=== Tuning 'jacobi-2d' with the extended type set ===\n");
  for (const char* preset : {"Precise", "Balanced", "Fast"}) {
    ir::Module module;
    polybench::BuiltKernel kernel = polybench::build_kernel("jacobi-2d", module);

    core::TuningConfig config = *core::preset_by_name(preset);
    config.types = {kFixed32,  kBfloat16, kBinary16, kBinary32,
                    kBinary64, kPosit16,  kPosit32};

    interp::ArrayStore reference = kernel.inputs;
    interp::TypeAssignment binary64;
    const interp::RunResult base =
        run_function(*kernel.function, binary64, reference);
    if (!base.ok) return 1;

    const core::PipelineResult tuned = core::tune_kernel(
        *kernel.function, platform::stm32_table(), config);

    interp::ArrayStore out = kernel.inputs;
    const interp::RunResult run =
        run_function(*kernel.function, tuned.allocation.assignment, out);
    if (!run.ok) return 1;

    const double t_base =
        platform::simulated_time(base.counters, platform::stm32_table());
    const double t_tuned =
        platform::simulated_time(run.counters, platform::stm32_table());

    std::printf("\n%s: speedup %.1f%%, MPE %.3g%%, mix:", preset,
                platform::speedup_percent(t_base, t_tuned),
                mean_percentage_error(reference.at("A"), out.at("A")));
    for (const auto& [cls, count] : tuned.allocation.stats.instruction_mix)
      std::printf(" %s=%d", cls.c_str(), count);
    std::printf("\n  arrays:");
    for (const auto& arr : kernel.function->arrays())
      std::printf(" %s:%s", arr->name().c_str(),
                  tuned.allocation.assignment.of(arr.get()).name().c_str());
    std::printf("\n");
  }
  return 0;
}
