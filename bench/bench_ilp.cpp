// Gate for the sparse revised simplex core: tunes PolyBench kernels with
// the pre-existing solver configuration (dense tableau core, cold-started
// B&B) and with the default (sparse revised core, warm-started B&B), then
// compares answers — they must agree on the optimum, ideally on the exact
// assignment — and work (nodes, simplex iterations, solve seconds). Both
// sides branch on the most fractional variable, B&B's one rule, so the
// node ratio isolates nothing but the LP core and the warm starts.
//
// Both the merged type-class formulation (the default) and the paper's
// literal per-register formulation are measured; the literal models are an
// order of magnitude larger and are where the solver work concentrates.
//
// Each cell's solve time is the fastest of kRepeats identical tunes, so a
// median over cells is not one cold sample, and each run records it per
// simplex pivot (`us_per_pivot`); the summary gives each core's median
// pivot cost over the merged cells and over the literal cells.
//
// Writes BENCH_ilp.json (machine-readable record, one entry per kernel and
// shape) and exits nonzero on any optimum mismatch, so CI can run it as a
// smoke job.
//
// Usage: bench_ilp [--out FILE] [--merged-only] [kernel...]
//        (no kernels = all 30)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/assignment_io.hpp"
#include "core/pipeline.hpp"
#include "ilp/simplex.hpp"
#include "platform/optime.hpp"
#include "polybench/polybench.hpp"
#include "support/json.hpp"

using namespace luis;

namespace {

/// Tunes per cell and core; the cell keeps the fastest solve.
constexpr int kRepeats = 5;

struct CoreRun {
  ilp::SolveStatus status = ilp::SolveStatus::Optimal;
  long nodes = 0;
  long iterations = 0;
  double solve_seconds = 0.0;
  double objective = 0.0;
  std::size_t model_variables = 0;
  std::size_t model_constraints = 0;
  std::string assignment_text;

  double us_per_pivot() const {
    return iterations > 0 ? 1e6 * solve_seconds / static_cast<double>(iterations)
                          : 0.0;
  }
};

CoreRun run_once(const std::string& kernel, bool literal, bool baseline) {
  ir::Module mod;
  const polybench::BuiltKernel k = polybench::build_kernel(kernel, mod);
  core::TuningConfig cfg = core::TuningConfig::balanced();
  cfg.literal_model = literal;
  if (baseline) {
    // The solver as it existed before the revised core landed.
    cfg.solver.lp.core = ilp::LpCore::Dense;
    cfg.solver.warm_start = false;
  } else {
    cfg.solver.lp.core = ilp::LpCore::Revised;
    cfg.solver.warm_start = true;
  }
  const core::PipelineResult tuned =
      core::tune_kernel(*k.function, platform::amd_table(), cfg);

  CoreRun out;
  out.status = tuned.allocation.stats.status;
  out.nodes = tuned.allocation.stats.nodes;
  out.iterations = tuned.allocation.stats.iterations;
  out.solve_seconds = tuned.allocation.stats.solve_seconds;
  out.objective = tuned.allocation.stats.objective;
  out.model_variables = tuned.allocation.stats.model_variables;
  out.model_constraints = tuned.allocation.stats.model_constraints;
  out.assignment_text =
      core::assignment_to_text(*k.function, tuned.allocation.assignment);
  return out;
}

/// The first tune's answer with the fastest of kRepeats solve times (every
/// repeat solves the same model the same way).
CoreRun run_config(const std::string& kernel, bool literal, bool baseline) {
  CoreRun best = run_once(kernel, literal, baseline);
  for (int i = 1; i < kRepeats; ++i)
    best.solve_seconds = std::min(
        best.solve_seconds, run_once(kernel, literal, baseline).solve_seconds);
  return best;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void write_run(JsonWriter& w, const CoreRun& r) {
  w.begin_object();
  w.key("status");
  w.value(to_string(r.status));
  w.key("nodes");
  w.value(r.nodes);
  w.key("iterations");
  w.value(r.iterations);
  w.key("solve_seconds");
  w.value(r.solve_seconds, "%.6g");
  w.key("us_per_pivot");
  w.value(r.us_per_pivot(), "%.4g");
  w.key("objective");
  w.value(r.objective, "%.17g");
  w.end_object();
}

double ratio(double a, double b) { return a / std::max(b, 1e-12); }

} // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_ilp.json";
  bool merged_only = false;
  std::vector<std::string> kernels;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--merged-only") == 0) {
      merged_only = true;
    } else {
      kernels.emplace_back(argv[i]);
    }
  }
  if (kernels.empty()) {
    const std::span<const std::string> all = polybench::kernel_names();
    kernels.assign(all.begin(), all.end());
  }

  std::printf("=== ILP solver gate: old (dense, cold) vs new (revised, "
              "warm) ===\n\n");
  std::printf("%-16s %-7s %6s %6s | %7s %8s %9s | %7s %8s %9s | %6s %6s %s\n",
              "kernel", "shape", "vars", "rows", "o.nodes", "o.iters",
              "o.sec", "n.nodes", "n.iters", "n.sec", "nodeX", "timeX",
              "assign");

  JsonWriter w;
  w.begin_object();
  w.key("benchmark");
  w.value("ilp_solver_gate");
  w.key("config");
  w.value("Balanced");
  w.key("platform");
  w.value("amd");
  w.key("kernels");
  w.begin_array();

  bool mismatch = false;
  double node_sum = 0.0, time_sum = 0.0;
  int cells = 0;
  double largest_vars = 0.0, largest_node_ratio = 0.0,
         largest_time_ratio = 0.0;
  std::string largest_kernel;
  // Per shape (merged, literal) and core (old, new): each cell's pivot cost.
  std::vector<double> pivot_us[2][2];
  for (const std::string& kernel : kernels) {
    for (const bool literal : {false, true}) {
      if (literal && merged_only) continue;
      const CoreRun before = run_config(kernel, literal, /*baseline=*/true);
      const CoreRun after = run_config(kernel, literal, /*baseline=*/false);

      const bool status_ok = before.status == after.status;
      const double scale = std::max(1.0, std::abs(before.objective));
      const bool objective_ok =
          status_ok && (before.status != ilp::SolveStatus::Optimal ||
                        std::abs(before.objective - after.objective) <=
                            1e-6 * scale);
      const bool assignment_same =
          before.assignment_text == after.assignment_text;
      if (!objective_ok) mismatch = true;

      const double nx = ratio(static_cast<double>(before.nodes),
                              static_cast<double>(after.nodes));
      const double tx = ratio(before.solve_seconds, after.solve_seconds);
      node_sum += nx;
      time_sum += tx;
      ++cells;
      pivot_us[literal][0].push_back(before.us_per_pivot());
      pivot_us[literal][1].push_back(after.us_per_pivot());
      if (static_cast<double>(before.model_variables) > largest_vars) {
        largest_vars = static_cast<double>(before.model_variables);
        largest_kernel = kernel + (literal ? " (literal)" : " (merged)");
        largest_node_ratio = nx;
        largest_time_ratio = tx;
      }

      std::printf("%-16s %-7s %6zu %6zu | %7ld %8ld %9.4f | %7ld %8ld "
                  "%9.4f | %5.1fx %5.1fx %s%s\n",
                  kernel.c_str(), literal ? "literal" : "merged",
                  before.model_variables, before.model_constraints,
                  before.nodes, before.iterations, before.solve_seconds,
                  after.nodes, after.iterations, after.solve_seconds, nx, tx,
                  assignment_same ? "same" : "tied-alt",
                  objective_ok ? "" : "  ** OPTIMUM MISMATCH **");

      w.newline();
      w.begin_object();
      w.key("kernel");
      w.value(kernel);
      w.key("shape");
      w.value(literal ? "literal" : "merged");
      w.key("model_variables");
      w.value(before.model_variables);
      w.key("model_constraints");
      w.value(before.model_constraints);
      w.key("old");
      write_run(w, before);
      w.key("new");
      write_run(w, after);
      w.key("node_ratio");
      w.value(nx, "%.4g");
      w.key("time_ratio");
      w.value(tx, "%.4g");
      w.key("objectives_match");
      w.value(objective_ok);
      w.key("assignments_identical");
      w.value(assignment_same);
      w.end_object();
    }
  }
  w.end_array();

  w.key("summary");
  w.newline();
  w.begin_object();
  w.key("cells");
  w.value(cells);
  w.key("mean_node_ratio");
  w.value(node_sum / cells, "%.4g");
  w.key("mean_time_ratio");
  w.value(time_sum / cells, "%.4g");
  w.key("largest_model");
  w.value(largest_kernel);
  w.key("largest_node_ratio");
  w.value(largest_node_ratio, "%.4g");
  w.key("largest_time_ratio");
  w.value(largest_time_ratio, "%.4g");
  w.key("median_us_per_pivot");
  w.begin_object();
  for (const bool literal : {false, true}) {
    if (pivot_us[literal][0].empty()) continue;
    w.key(literal ? "literal" : "merged");
    w.begin_object();
    w.key("old");
    w.value(median(pivot_us[literal][0]), "%.4g");
    w.key("new");
    w.value(median(pivot_us[literal][1]), "%.4g");
    w.end_object();
  }
  w.end_object();
  w.key("all_optima_match");
  w.value(!mismatch);
  w.end_object();
  w.end_object();
  w.newline();

  std::ofstream(out_path) << w.str();
  std::printf("\nMean node ratio %.2fx, mean solve-time ratio %.2fx; "
              "largest model (%s): %.2fx nodes, %.2fx time.\nWrote %s\n",
              node_sum / cells, time_sum / cells, largest_kernel.c_str(),
              largest_node_ratio, largest_time_ratio, out_path.c_str());
  for (const bool literal : {false, true}) {
    if (pivot_us[literal][0].empty()) continue;
    std::printf("Median us per pivot, %s cells: old %.2f, new %.2f\n",
                literal ? "literal" : "merged", median(pivot_us[literal][0]),
                median(pivot_us[literal][1]));
  }
  if (mismatch) {
    std::printf("FAIL: old and new solvers disagree on at least one "
                "optimum.\n");
    return 1;
  }
  return 0;
}
