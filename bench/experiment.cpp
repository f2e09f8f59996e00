#include "experiment.hpp"

#include "core/sweep.hpp"
#include "support/diag.hpp"
#include "support/string_utils.hpp"

namespace luis::bench {

const std::vector<std::string>& config_order() {
  static const std::vector<std::string> kOrder = {"Precise", "Balanced", "Fast",
                                                  "TAFFO"};
  return kOrder;
}

const std::vector<std::string>& platform_order() {
  static const std::vector<std::string> kOrder = {"Stm32", "Raspberry", "Intel",
                                                  "AMD"};
  return kOrder;
}

std::string format_mpe(double mpe) {
  if (mpe == 0.0) return "0.00";
  if (mpe >= 1000.0) return format_string("%.1e", mpe);
  if (mpe >= 1.0) return format_string("%.3g", mpe);
  return format_string("%.1e", mpe);
}

std::vector<KernelResult> run_grid(const GridOptions& opt) {
  core::SweepOptions sweep;
  sweep.kernels = opt.kernels;
  sweep.platforms = opt.platforms;
  sweep.include_taffo = opt.include_taffo;
  sweep.solver_max_nodes = opt.solver_max_nodes;
  sweep.threads = opt.threads;
  sweep.verbose = opt.verbose;
  // The benches only consume the cell values; the determinism self-check
  // is covered by the sweep tests and `luis sweep`.
  sweep.check_determinism = false;
  const core::SweepResult result = core::run_sweep(sweep);

  std::vector<KernelResult> results;
  for (const core::SweepJobResult& job : result.jobs) {
    LUIS_ASSERT(job.ok,
                (job.kernel + "/" + job.config + ": " + job.error).c_str());
    if (results.empty() || results.back().kernel != job.kernel) {
      results.emplace_back();
      results.back().kernel = job.kernel;
    }
    Cell cell;
    cell.speedup_percent = job.speedup_percent;
    cell.mpe = job.mpe;
    cell.stats = job.stats;
    results.back().cells[job.platform][job.config] = cell;
  }
  return results;
}

} // namespace luis::bench
