// Gate for the LP and branch & bound core: solves the allocation ILP of
// PolyBench kernels (Balanced, AMD) and checks every answer's certificate
// with the independent checker (ilp/certificate.hpp). A cell's verdict is
// its status, nodes and objective, and a certificate the checker accepts.
//
// Both the merged type-class formulation (the default) and the paper's
// literal per-register formulation are measured; the literal models are an
// order of magnitude larger and are where the solver work concentrates.
//
// Each cell prices its kernel's structure once, as a sweep job does, and
// solves it kRepeats times without a certificate (the sweep's solve) and
// once with one. The cell's solve time is the fastest of those kRepeats,
// also given per simplex pivot (`us_per_pivot`); the summary gives the
// median pivot cost over the merged cells and over the literal cells.
// Recording a certificate must not change a pivot: the certified solve
// must repeat the timed solves' status, nodes, iterations and objective
// bits. Timing claims across commits belong to perfbench, which runs
// paired A/B runs; this bench's timings are a trajectory only.
//
// Writes BENCH_ilp.json (machine-readable record, one entry per kernel and
// shape) and exits nonzero when a certificate fails, so CI can run it as a
// smoke job.
//
// Usage: bench_ilp [--out FILE] [--merged-only] [kernel...]
//        (no kernels = all 30)
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/ilp_allocator.hpp"
#include "ilp/certificate.hpp"
#include "obs/trace.hpp"
#include "platform/optime.hpp"
#include "polybench/polybench.hpp"
#include "support/json.hpp"

using namespace luis;

namespace {

/// Uncertified solves per cell; the cell keeps the fastest.
constexpr int kRepeats = 5;

struct Cell {
  ilp::SolveStatus status = ilp::SolveStatus::Optimal;
  long nodes = 0;
  long iterations = 0;
  double solve_seconds = 0.0;
  double objective = 0.0;
  std::size_t model_variables = 0;
  std::size_t model_constraints = 0;
  std::size_t leaves = 0;
  /// Empty when the certificate checks and the certified solve repeats
  /// the timed one; otherwise why not.
  std::string failure;

  double us_per_pivot() const {
    return iterations > 0 ? 1e6 * solve_seconds / static_cast<double>(iterations)
                          : 0.0;
  }
};

Cell run_cell(const std::string& kernel, bool literal) {
  ir::Module mod;
  const polybench::BuiltKernel k = polybench::build_kernel(kernel, mod);
  core::TuningConfig cfg = core::TuningConfig::balanced();
  cfg.literal_model = literal;
  const vra::RangeMap ranges = vra::analyze_ranges(*k.function);
  const core::IlpStructure structure =
      core::build_ilp_structure(*k.function, ranges, cfg);
  const ilp::Objective objective =
      core::price_objective(structure, platform::amd_table(), cfg);

  Cell out;
  out.model_variables = structure.model.num_variables();
  out.model_constraints = structure.model.num_constraints();
  ilp::Solution timed;
  for (int i = 0; i < kRepeats; ++i) {
    double seconds = 0.0;
    {
      obs::TraceSpan span("bench_ilp.solve", "bench", obs::TimeSink{&seconds});
      timed = ilp::solve_milp(structure.model, objective, cfg.solver);
    }
    out.solve_seconds = i == 0 ? seconds : std::min(out.solve_seconds, seconds);
  }
  out.status = timed.status;
  out.nodes = timed.nodes;
  out.iterations = timed.iterations;
  out.objective = timed.objective;

  ilp::Certificate certificate;
  const ilp::Solution certified =
      ilp::solve_milp(structure.model, objective, cfg.solver, &certificate);
  out.leaves = certificate.leaves.size();
  const ilp::CertificateCheck check = ilp::check_certificate(
      structure.model, objective, certified, certificate, cfg.solver);
  if (!check.ok) {
    out.failure = "certificate rejected: " + check.error;
  } else if (certified.status != timed.status ||
             certified.nodes != timed.nodes ||
             certified.iterations != timed.iterations ||
             std::bit_cast<std::uint64_t>(certified.objective) !=
                 std::bit_cast<std::uint64_t>(timed.objective)) {
    out.failure = "the certified solve differs from the timed one";
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

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

  std::printf("=== ILP solver gate: every answer certified ===\n\n");
  std::printf("%-16s %-7s %6s %6s | %-8s %6s %7s %9s %8s %6s | %s\n", "kernel",
              "shape", "vars", "rows", "status", "nodes", "iters", "sec",
              "us/pivot", "leaves", "certificate");

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

  int cells = 0, failed = 0;
  std::vector<double> pivot_us[2]; // per shape: merged, literal
  for (const std::string& kernel : kernels) {
    for (const bool literal : {false, true}) {
      if (literal && merged_only) continue;
      const Cell c = run_cell(kernel, literal);
      ++cells;
      failed += !c.failure.empty();
      pivot_us[literal].push_back(c.us_per_pivot());

      std::printf("%-16s %-7s %6zu %6zu | %-8s %6ld %7ld %9.4f %8.2f %6zu | "
                  "%s\n",
                  kernel.c_str(), literal ? "literal" : "merged",
                  c.model_variables, c.model_constraints, to_string(c.status),
                  c.nodes, c.iterations, c.solve_seconds, c.us_per_pivot(),
                  c.leaves, c.failure.empty() ? "ok" : c.failure.c_str());

      w.newline();
      w.begin_object();
      w.key("kernel");
      w.value(kernel);
      w.key("shape");
      w.value(literal ? "literal" : "merged");
      w.key("model_variables");
      w.value(c.model_variables);
      w.key("model_constraints");
      w.value(c.model_constraints);
      w.key("status");
      w.value(to_string(c.status));
      w.key("nodes");
      w.value(c.nodes);
      w.key("iterations");
      w.value(c.iterations);
      w.key("solve_seconds");
      w.value(c.solve_seconds, "%.6g");
      w.key("us_per_pivot");
      w.value(c.us_per_pivot(), "%.4g");
      w.key("objective");
      w.value(c.objective, "%.17g");
      w.key("leaves");
      w.value(c.leaves);
      w.key("certified");
      w.value(c.failure.empty());
      w.end_object();
    }
  }
  w.end_array();

  w.key("summary");
  w.newline();
  w.begin_object();
  w.key("cells");
  w.value(cells);
  w.key("median_us_per_pivot");
  w.begin_object();
  for (const bool literal : {false, true}) {
    if (pivot_us[literal].empty()) continue;
    w.key(literal ? "literal" : "merged");
    w.value(median(pivot_us[literal]), "%.4g");
  }
  w.end_object();
  w.key("all_certified");
  w.value(failed == 0);
  w.end_object();
  w.end_object();
  w.newline();

  std::ofstream(out_path) << w.str();
  std::printf("\n%d cells, %d certified. Wrote %s\n", cells, cells - failed,
              out_path.c_str());
  for (const bool literal : {false, true})
    if (!pivot_us[literal].empty())
      std::printf("Median us per pivot, %s cells: %.2f\n",
                  literal ? "literal" : "merged", median(pivot_us[literal]));
  if (failed > 0) {
    std::printf("FAIL: %d cell(s) without a verified certificate.\n", failed);
    return 1;
  }
  return 0;
}
