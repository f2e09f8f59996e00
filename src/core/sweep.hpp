// Multithreaded batch tuning driver: the paper's full evaluation grid
// (PolyBench kernel x preset x platform) fanned across a thread pool.
//
// Isolation model. Every job tunes its own clone of the kernel (parsed
// from IR text pre-rendered once per kernel), so no job ever touches
// another job's Function — the pipeline interns constants on the Function
// and is therefore not shareable across threads. The only mutable shared
// state is the solver result cache, which is internally locked and, by
// construction of its canonical key, cannot change what any job computes
// (see ilp/solver_cache.hpp).
//
// Determinism. Job results are written into a preallocated slot vector in
// a fixed (kernel-major) order, so the output is identical no matter how
// the pool schedules jobs. With `check_determinism` the driver re-runs
// every ILP job's tuning serially after the parallel phase and compares
// status, objective bits, and the serialized assignment. The re-solves
// hit the solver cache and skip branch & bound, but every job is still
// re-parsed, re-analyzed and its model rebuilt and keyed, so the check is
// not cheap: about a fifth of a serial sweep (docs/SWEEP.md). It is also
// the sweep's organic source of cache hits, since the grid's 360 models
// are pairwise distinct.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ilp/solver_cache.hpp"
#include "interp/engine.hpp"

namespace luis::core {

struct SweepOptions {
  std::vector<std::string> kernels;   ///< empty = all 30 PolyBench kernels
  std::vector<std::string> configs;   ///< empty = Precise, Balanced, Fast
  std::vector<std::string> platforms; ///< empty = Stm32/Raspberry/Intel/AMD
  /// Also run the platform-blind TAFFO greedy baseline (once per kernel).
  bool include_taffo = true;
  long solver_max_nodes = 3000;
  /// Worker threads; 0 = hardware concurrency, 1 = serial reference path.
  int threads = 0;
  /// Share one solver result cache across all jobs. Also controls the
  /// VM engine's shared compiled-program cache (off = no shared state).
  bool use_cache = true;
  /// Execution engine for every interpretation in the sweep: "vm" (the
  /// bytecode engine, default) or "ref" (the tree-walking reference).
  /// Results are bit-identical either way.
  std::string engine = "vm";
  /// Execute the tuned assignments of each kernel as parallel lanes of
  /// one batched engine run (ExecutionEngine::run_batch) instead of one
  /// scalar run per job: the kernel is parsed once, duplicate assignments
  /// collapse into a single lane, and the VM walks the shared control
  /// skeleton once per lane group. Per-job speedup/MPE are bit-identical
  /// to the scalar path; only the timing split differs.
  bool batch = true;
  /// After the (possibly parallel) sweep, serially re-tune every ILP job
  /// and verify it reproduces the same assignment and objective.
  bool check_determinism = true;
  /// Shadow-execute every tuned job (scalar and batched paths alike): the
  /// VM carries a lockstep binary64 shadow and each job's row gains the
  /// in-engine MPE, max abs/rel deviation, and control-divergence count
  /// (see docs/OBSERVABILITY.md, "Numerical-error profiling"). Quantized
  /// outputs are bit-identical with this on.
  bool errors = false;
  /// VRA fixpoint knobs, applied to every job's pipeline and recorded in
  /// the JSON report (so a sweep is reproducible from its own artifact).
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
  ilp::SolverCache::Stats cache; ///< zeros when the cache is disabled
  std::string engine; ///< resolved engine name ("vm" or "ref")
  /// Compiled-program cache of the VM engine; zeros on the reference
  /// engine or with use_cache off.
  interp::ProgramCache::Stats program_cache;
  /// -1 when the check is disabled; otherwise the number of jobs whose
  /// serial re-tune disagreed with the sweep result (0 = proven).
  int determinism_mismatches = -1;
  /// Batched-execution stats (all zero with SweepOptions::batch off): one
  /// "run" per kernel whose tuned jobs executed as lanes of a single
  /// batched engine call; `lanes` counts the job executions served that
  /// way and `unique_lanes` the deduplicated assignments actually
  /// interpreted.
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

/// Runs the sweep. Aborts (LUIS_FATAL) on unknown kernel/config/platform
/// names; per-job execution failures are reported in the job result.
SweepResult run_sweep(const SweepOptions& options = {});

/// Human-readable stats block (stage totals, solver work, cache hit rate,
/// determinism verdict).
std::string sweep_summary_text(const SweepResult& result);

/// The full report — every job plus the summary — as a JSON document.
std::string sweep_report_json(const SweepResult& result);

} // namespace luis::core
