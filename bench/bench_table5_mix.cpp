// Regenerates Table V of the paper: the fraction of instructions allocated
// to each data type by the ILP model for the Stm32 machine, averaged over
// all PolyBench benchmarks, per configuration preset.
#include <cstdio>
#include <map>

#include "experiment.hpp"

using namespace luis::bench;

int main() {
  GridOptions opt;
  opt.platforms = {"Stm32"};
  opt.include_taffo = false;
  const std::vector<KernelResult> grid = run_grid(opt);

  std::printf("=== Table V: instruction mix [%%] on Stm32, averaged over all "
              "benchmarks ===\n\n");
  std::printf("%-10s %12s %12s %12s\n", "", "Fixed Point", "binary32",
              "binary64");
  for (const std::string config : {"Precise", "Balanced", "Fast"}) {
    double fix = 0, f32 = 0, f64 = 0;
    for (const KernelResult& kr : grid) {
      const auto& mix = kr.cells.at("Stm32").at(config).stats.instruction_mix;
      double total = 0;
      for (const auto& [cls, count] : mix) total += count;
      if (total == 0) continue;
      const auto get = [&](const char* cls) {
        const auto it = mix.find(cls);
        return it == mix.end() ? 0.0 : it->second / total;
      };
      fix += get("fix");
      f32 += get("float");
      f64 += get("double");
    }
    const double n = static_cast<double>(grid.size());
    std::printf("%-10s %12.1f %12.1f %12.1f\n", config.c_str(),
                100.0 * fix / n, 100.0 * f32 / n, 100.0 * f64 / n);
  }
  std::printf("\n(Paper's Table V: Precise 0.2 / 2.5 / 97.3, Balanced 1.5 / "
              "20.8 / 77.6, Fast 71.6 / 27.0 / 1.4.)\n");
  return 0;
}
