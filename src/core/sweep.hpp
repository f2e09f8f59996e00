// Multithreaded batch tuning driver: the paper's full evaluation grid
// (PolyBench kernel x preset x platform) fanned across worker threads.
//
// One execution per distinct (kernel, assignment). Each kernel is built
// unannotated and run once in binary64 with array-range tracking: that
// run annotates the kernel, and its outputs and counters are the
// reference of every row. The annotated kernel is rendered to text,
// parsed into one Function, and range-analyzed once, and its ILP
// structure is built once per distinct candidate set among the presets
// (core::build_ilp_structure). Every ILP job of the kernel only prices
// its preset's structure for its platform, and the TAFFO greedy
// allocation is made once on the same analysis. The job that finishes a
// kernel's last ILP job releases its structures, then runs the kernel's
// distinct row assignments once, ILP and TAFFO alike (the all-binary64
// assignment is served by the reference run), and frees the kernel's
// state. No barrier waits for the grid's slowest job before a kernel
// executes.
//
// Isolation model. Sharing a kernel's analysis is safe because the sweep
// runs only the read-only stages of the pipeline (no IR cleanup, no cast
// materialization, no lint): allocate_ilp only reads its structure, and
// allocate_greedy, assignment_to_text and the engines take a const
// Function. The only mutable shared state is the solver result cache,
// present only with the re-check and internally locked; its keys are
// exact bytes, so it cannot change what any job computes (see
// ilp/solver_cache.hpp). The sweep leaves the cache's basis pool off:
// every job solves from its own structure, objective and options alone.
// One atomic per kernel orders the hand-off: each job decrements the
// kernel's countdown after its last use of the structures and after
// writing its row, so the job that reaches zero runs after all of them,
// and it alone then reads the kernel's rows.
//
// Determinism. Job results are written into a preallocated slot vector in
// a fixed (kernel-major) order, so the output is identical, iteration
// counts included, no matter how many threads run which jobs. With
// `check_determinism` the job that finishes a kernel, once it has executed
// the kernel, re-tunes the kernel's ILP jobs and compares status,
// objective bits, and the serialized assignment, so one path runs at every
// thread count. The re-check re-derives the kernel's parse, ranges and
// structures from its IR text, then re-prices every job's model and keys
// it again (the model's interned structure, objective and options); the
// re-solves hit the solver cache and skip branch & bound (cost:
// docs/SWEEP.md). The cache exists only with the check: it is the sweep's
// only source of cache hits, since the grid's 360 models are pairwise
// distinct.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ilp/solver_cache.hpp"

namespace luis::core {

struct SweepOptions {
  std::vector<std::string> kernels;   ///< empty = all 30 PolyBench kernels
  std::vector<std::string> configs;   ///< empty = Precise, Balanced, Fast
  std::vector<std::string> platforms; ///< empty = Stm32/Raspberry/Intel/AMD
  /// Also run the platform-blind TAFFO greedy baseline (allocated once per
  /// kernel, one row per platform).
  bool include_taffo = true;
  long solver_max_nodes = 3000;
  /// Threads, the calling one included; 0 = hardware concurrency, 1 =
  /// serial reference path. The sweep never runs on more.
  int threads = 0;
  /// Execution engine for every interpretation in the sweep: "vm" (the
  /// bytecode engine, default) or "ref" (the tree-walking reference).
  /// Results are bit-identical either way.
  std::string engine = "vm";
  /// Re-tune every kernel's ILP jobs once they are done, in the job that
  /// finishes the kernel, and verify each reproduces the same assignment
  /// and objective. Also the only user of the solver result cache.
  bool check_determinism = true;
  /// Shadow-execute every tuned job: the VM carries a lockstep binary64
  /// shadow and each job's row gains the in-engine MPE, max abs/rel
  /// deviation, and control-divergence count (see docs/OBSERVABILITY.md,
  /// "Numerical-error profiling"). Quantized outputs are bit-identical
  /// with this on. Needs the "vm" engine: the tree-walker has no shadow.
  bool errors = false;
  /// VRA fixpoint knobs, applied to every kernel's range analysis and
  /// recorded in the JSON report (so a sweep is reproducible from its own
  /// artifact).
  vra::VraOptions vra;
  bool verbose = false; ///< per-kernel progress lines on stderr
};

struct SweepJobResult {
  std::string kernel;
  std::string config;   ///< "Precise", "Balanced", "Fast", or "TAFFO"
  std::string platform;
  bool ok = false;
  std::string error;
  double speedup_percent = 0.0; ///< vs. the all-binary64 kernel
  double mpe = 0.0;             ///< vs. the all-binary64 outputs
  /// Shadow-execution telemetry (SweepOptions::errors; zeros otherwise).
  /// shadow_mpe is the in-engine whole-program MPE vs the lockstep
  /// binary64 shadow — with zero control divergences it equals `mpe`
  /// computed externally against the binary64 reference outputs.
  bool errors_profiled = false;
  double shadow_mpe = 0.0;
  double max_abs_error = 0.0; ///< over every recorded register/array write
  double max_rel_error = 0.0;
  long control_divergences = 0;
  StageTimings timings;
  AllocationStats stats;
  std::string engine; ///< resolved engine that executed this job
  /// Canonical serialization of the type assignment (assignment_io) — the
  /// artifact the determinism check compares.
  std::string assignment_text;
};

struct SweepStats {
  int jobs = 0;
  int failed = 0;
  int threads = 1;         ///< resolved worker count
  double wall_seconds = 0.0;
  StageTimings stage_totals; ///< summed over all jobs
  long solver_nodes = 0;
  long solver_iterations = 0;
  ilp::SolverCache::Stats cache; ///< zeros without the determinism check
  std::string engine; ///< resolved engine name ("vm" or "ref")
  /// -1 when the check is disabled; otherwise the number of jobs whose
  /// re-tune disagreed with the sweep result (0 = proven).
  int determinism_mismatches = -1;
  /// Deduplicated-execution stats: one "run" per prepared kernel, `lanes`
  /// the rows served and `unique_lanes` the distinct assignments
  /// interpreted, each kernel's binary64 reference run included.
  long batch_runs = 0;
  long batch_lanes = 0;
  long batch_unique_lanes = 0;
  /// The VRA knobs every job ran under (echoed into the JSON report).
  vra::VraOptions vra;
};

struct SweepResult {
  /// One entry per job in a fixed kernel-major order, independent of
  /// scheduling: kernels in input order, then platforms, then configs
  /// (TAFFO last when enabled).
  std::vector<SweepJobResult> jobs;
  SweepStats stats;
};

/// Empty when every kernel, config, platform and engine name in `options`
/// is known and `errors` runs on the VM; otherwise a diagnostic naming
/// the first unknown name or the engine that cannot profile errors.
std::string sweep_options_error(const SweepOptions& options);

/// Runs the sweep. Aborts (LUIS_FATAL) on the options sweep_options_error
/// rejects; per-job execution failures are reported in the job result.
SweepResult run_sweep(const SweepOptions& options = {});

/// Human-readable stats block (stage totals, solver work, cache hit rate,
/// determinism verdict).
std::string sweep_summary_text(const SweepResult& result);

/// The full report — every job plus the summary — as a JSON document.
std::string sweep_report_json(const SweepResult& result);

} // namespace luis::core
