#include "core/sweep.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "analysis/dataflow.hpp"
#include "core/assignment_io.hpp"
#include "interp/engine.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/cost_model.hpp"
#include "polybench/polybench.hpp"
#include "support/diag.hpp"
#include "support/json.hpp"
#include "support/statistics.hpp"
#include "support/string_utils.hpp"
#include "support/thread_pool.hpp"

namespace luis::core {
namespace {

/// MPE across all output arrays (concatenated, as PolyBench dumps them).
double kernel_mpe(const std::vector<std::string>& outputs,
                  const interp::ArrayStore& reference,
                  const interp::ArrayStore& tuned) {
  std::vector<double> ref, out;
  for (const std::string& name : outputs) {
    const auto& r = reference.at(name);
    const auto& t = tuned.at(name);
    ref.insert(ref.end(), r.begin(), r.end());
    out.insert(out.end(), t.begin(), t.end());
  }
  return mean_percentage_error(ref, out);
}

/// A kernel's IR parsed from its rendered text, the value ranges of that
/// Function, and its ILP structure per distinct candidate set. Read-only
/// once built: every ILP job of the kernel prices one of the structures
/// (allocate_ilp, assignment_to_text and the engines take const inputs),
/// so one analysis serves them all.
struct KernelAnalysis {
  ir::Module module;
  const ir::Function* function = nullptr;
  vra::RangeMap ranges;
  double vra_seconds = 0.0;
  /// One per entry of the sweep's structure inputs, in their order.
  std::vector<IlpStructure> structures;
};

KernelAnalysis
analyze_kernel(const std::string& name, const std::string& ir_text,
               const vra::VraOptions& vra_options,
               const std::vector<TuningConfig>& structure_inputs) {
  obs::TraceSpan span("sweep.analyze_kernel", "sweep", [&] {
    return obs::Args().str("kernel", name).done();
  });
  KernelAnalysis a;
  const ir::ParseResult parsed = ir::parse_function(a.module, ir_text);
  LUIS_ASSERT(parsed.ok(),
              ("sweep: kernel IR re-parse failed: " + parsed.error).c_str());
  a.function = parsed.function;
  analysis::DataflowStats vra_stats;
  {
    obs::TraceSpan vra_span("sweep.vra", "sweep",
                            obs::TimeSink{&a.vra_seconds});
    a.ranges = vra::analyze_ranges(*a.function, vra_options, &vra_stats);
  }
  obs::metrics().counter("vra.fixpoint_passes").inc(vra_stats.passes);
  obs::metrics().counter("vra.widenings").inc(vra_stats.widenings);
  for (const TuningConfig& inputs : structure_inputs)
    a.structures.push_back(build_ilp_structure(*a.function, a.ranges, inputs));
  return a;
}

/// Everything a kernel's rows need, produced once per kernel and
/// read-only until the kernel is executed (release_kernel).
struct KernelContext {
  std::string name;
  bool ok = false;
  std::string error;
  std::string ir_text;
  KernelAnalysis analysis; ///< `ir_text` parsed and range-analyzed
  interp::ArrayStore inputs;
  std::vector<std::string> outputs;
  /// The kernel's one binary64 run, lane 0 of its execution: its observed
  /// array ranges annotate the kernel, its outputs and counters are every
  /// row's reference, and its time goes to the stage totals only.
  interp::RunResult base;
  interp::ArrayStore reference;     ///< its outputs
  interp::ErrorProfile base_errors; ///< its shadow profile (with `errors`)
  // The TAFFO greedy allocation: platform-blind, so made once and shared
  // by the kernel's TAFFO rows.
  StageTimings taffo_timings;
  AllocationStats taffo_stats;
  std::string taffo_assignment;
};

void prepare_kernel(KernelContext& ctx, const SweepOptions& opt,
                    const std::vector<TuningConfig>& structure_inputs,
                    const interp::ExecutionEngine& engine) {
  ir::Module module;
  polybench::BuiltKernel kernel =
      polybench::build_kernel(ctx.name, module, /*annotate=*/false);
  ctx.inputs = kernel.inputs;
  ctx.outputs = kernel.outputs;

  ctx.reference = kernel.inputs;
  interp::RunOptions run_options;
  run_options.track_array_ranges = true;
  if (opt.errors) run_options.error_profile = &ctx.base_errors;
  ctx.base = engine.run(*kernel.function, interp::TypeAssignment(),
                        ctx.reference, run_options);
  if (!ctx.base.ok) {
    ctx.error = ctx.name + " baseline failed: " + ctx.base.error;
    return;
  }
  polybench::annotate_from_run(kernel, ctx.base);
  ctx.ir_text = ir::print_function(*kernel.function);
  ctx.analysis =
      analyze_kernel(ctx.name, ctx.ir_text, opt.vra, structure_inputs);

  if (opt.include_taffo) {
    AllocationResult taffo;
    {
      obs::TraceSpan span("sweep.allocate", "sweep",
                          obs::TimeSink{&ctx.taffo_timings.allocation_seconds});
      taffo = allocate_greedy(*ctx.analysis.function, ctx.analysis.ranges,
                              TuningConfig::balanced());
    }
    ctx.taffo_timings.model_build_seconds = taffo.stats.model_build_seconds;
    ctx.taffo_timings.solve_seconds = taffo.stats.solve_seconds;
    ctx.taffo_stats = taffo.stats;
    ctx.taffo_assignment =
        assignment_to_text(*ctx.analysis.function, taffo.assignment);
  }
  ctx.ok = true;
}

/// Copies a finished shadow-execution profile's telemetry into a job row.
/// Max deviations scan every per-pc and per-phi-move cell — the same
/// accumulators the per-line error report aggregates.
void fold_error_profile(const interp::ErrorProfile& ep, SweepJobResult& out) {
  out.errors_profiled = true;
  out.shadow_mpe = ep.program_mpe;
  out.control_divergences = ep.control_divergences;
  out.max_abs_error = 0.0;
  out.max_rel_error = 0.0;
  const auto fold = [&](const interp::ErrorCell& c) {
    out.max_abs_error = std::max(out.max_abs_error, c.max_abs);
    out.max_rel_error = std::max(out.max_rel_error, c.max_rel);
  };
  for (const interp::ErrorCell& c : ep.instr) fold(c);
  for (const interp::ErrorCell& c : ep.moves) fold(c);
}

/// Executes the ok rows among one kernel's `kernel_rows` (indices into
/// `jobs`), ILP and TAFFO alike, one engine run per distinct assignment,
/// and returns {runs, rows served, distinct assignments}. Duplicates
/// (presets that converged to the same allocation, the same preset across
/// platforms, TAFFO agreeing with a preset) collapse into one lane; every
/// row sharing a lane reads that lane's counters, store and shadow
/// profile, which is exact because the assignment fully determines the
/// execution. Lane 0 is the all-binary64 assignment, served by the
/// kernel's prepare run and never run again.
std::array<long, 3>
execute_kernel(const KernelContext& ctx,
               const std::vector<std::size_t>& kernel_rows,
               const std::vector<const platform::OpTimeTable*>& table_of,
               const interp::ExecutionEngine& engine, bool errors,
               std::vector<SweepJobResult>& jobs) {
  const ir::Function& f = *ctx.analysis.function;

  // Dedup the rows' assignments into lanes. Lane 0 reads the prepare run;
  // every other lane runs once below.
  struct Lane {
    std::string text;
    int rows = 0;
    const interp::RunResult* run = nullptr;
    const interp::ArrayStore* store = nullptr;
    const interp::ErrorProfile* errors = nullptr;
  };
  std::vector<Lane> lanes = {{assignment_to_text(f, interp::TypeAssignment()),
                              0, &ctx.base, &ctx.reference, &ctx.base_errors}};
  std::vector<interp::TypeAssignment> types; // of lanes 1, 2, ...
  std::vector<std::size_t> rows, lane_of;
  for (const std::size_t j : kernel_rows) {
    if (!jobs[j].ok) continue;
    rows.push_back(j);
    const std::string& text = jobs[j].assignment_text;
    const auto it =
        std::find_if(lanes.begin(), lanes.end(),
                     [&](const Lane& lane) { return lane.text == text; });
    lane_of.push_back(static_cast<std::size_t>(it - lanes.begin()));
    if (it == lanes.end()) {
      const AssignmentParseResult reloaded = assignment_from_text(f, text);
      LUIS_ASSERT(
          reloaded.ok(),
          ("sweep: tuned assignment does not reload: " + reloaded.error).c_str());
      lanes.push_back({text});
      types.push_back(reloaded.assignment);
    }
    ++lanes[lane_of.back()].rows;
  }

  std::vector<interp::ArrayStore> stores(types.size(), ctx.inputs);
  std::vector<interp::ErrorProfile> profiles(types.size());
  std::vector<interp::RunResult> runs(types.size());
  for (std::size_t i = 0; i < types.size(); ++i) {
    interp::RunOptions ro;
    if (errors) ro.error_profile = &profiles[i];
    runs[i] = engine.run(f, types[i], stores[i], ro);
    lanes[i + 1].run = &runs[i];
    lanes[i + 1].store = &stores[i];
    lanes[i + 1].errors = &profiles[i];
  }

  for (std::size_t k = 0; k < rows.size(); ++k) {
    SweepJobResult& job = jobs[rows[k]];
    const Lane& lane = lanes[lane_of[k]];
    const interp::RunResult& run = *lane.run;
    if (lane_of[k] > 0) {
      // A lane's cost is shared by every row it serves, so the stage
      // totals still sum to the wall-clock actually spent.
      job.timings.interp_compile_seconds = run.compile_seconds / lane.rows;
      job.timings.interp_execute_seconds = run.execute_seconds / lane.rows;
    }
    if (!run.ok) {
      job.ok = false;
      job.error = ctx.name + "/" + job.config + " run failed: " + run.error;
      continue;
    }
    const platform::OpTimeTable& table = *table_of[rows[k]];
    job.speedup_percent = platform::speedup_percent(
        platform::simulated_time(ctx.base.counters, table),
        platform::simulated_time(run.counters, table));
    job.mpe = kernel_mpe(ctx.outputs, ctx.reference, *lane.store);
    if (lane.errors->finalized) fold_error_profile(*lane.errors, job);
  }
  return {1, static_cast<long>(rows.size()), static_cast<long>(lanes.size())};
}

/// Frees an executed kernel's state. What the sweep still reads stays: the
/// kernel's name, status and IR text (the re-check re-derives the kernel
/// from the text) and its binary64 run's times (the stage totals).
void release_kernel(KernelContext& ctx) {
  ctx.analysis = KernelAnalysis();
  ctx.inputs = {};
  ctx.reference = {};
  ctx.base_errors = {};
  ctx.base.counters = {};
  ctx.base.array_ranges = {};
  ctx.base.register_ranges = {};
}

/// Tunes one (kernel, config, platform) job by pricing its kernel's
/// structure for `preset`; `out.timings.vra_seconds` holds the part of the
/// kernel's VRA time this job is charged, and `structure_share` is its part
/// of the structure's build. Execution happens later, once per distinct
/// assignment.
void run_ilp_job(const IlpStructure& structure, double structure_share,
                 const platform::OpTimeTable& table, const TuningConfig& preset,
                 const SweepOptions& opt, ilp::SolverCache* cache,
                 SweepJobResult& out) {
  TuningConfig config = preset;
  config.solver.max_nodes = opt.solver_max_nodes;
  config.solver.cache = cache;
  AllocationResult allocation;
  {
    obs::TraceSpan span("sweep.allocate", "sweep",
                        obs::TimeSink{&out.timings.allocation_seconds});
    allocation = allocate_ilp(structure, table, config);
  }
  out.timings.allocation_seconds += structure_share;
  out.timings.model_build_seconds =
      allocation.stats.model_build_seconds + structure_share;
  out.timings.solve_seconds = allocation.stats.solve_seconds;
  out.timings.total_seconds =
      out.timings.vra_seconds + out.timings.allocation_seconds;
  out.stats = allocation.stats;
  out.assignment_text =
      assignment_to_text(*structure.function, allocation.assignment);
  out.ok = true;
}

void write_timings(JsonWriter& w, const StageTimings& t) {
  w.begin_object();
  for (const auto& [key, field] : kStageTimingFields) {
    w.key(key);
    w.value(t.*field, "%.6g");
  }
  w.end_object();
}

} // namespace

std::string sweep_options_error(const SweepOptions& options) {
  const auto names = polybench::kernel_names();
  for (const std::string& k : options.kernels)
    if (std::find(names.begin(), names.end(), k) == names.end())
      return "unknown kernel '" + k + "' (see `luis kernels`)";
  for (const std::string& c : options.configs)
    if (!preset_by_name(c))
      return "unknown config '" + c + "' (want Precise|Balanced|Fast|Multi)";
  for (const std::string& p : options.platforms)
    if (!platform::platform_by_name(p))
      return "unknown platform '" + p + "' (want Stm32|Raspberry|Intel|AMD)";
  const std::optional<interp::EngineKind> engine =
      interp::parse_engine(options.engine);
  if (!engine)
    return "unknown engine '" + options.engine + "' (want vm or ref)";
  // Only the VM carries the shadow execution (RunOptions::error_profile).
  if (options.errors && *engine != interp::EngineKind::Vm)
    return "--errors needs the vm engine";
  return {};
}

SweepResult run_sweep(const SweepOptions& options) {
  SweepResult result;
  obs::TraceSpan sweep_span("sweep.run", "sweep",
                            obs::TimeSink{&result.stats.wall_seconds});

  const std::string invalid = sweep_options_error(options);
  if (!invalid.empty()) LUIS_FATAL("sweep: " + invalid);
  std::vector<std::string> kernels = options.kernels;
  if (kernels.empty())
    kernels.assign(polybench::kernel_names().begin(),
                   polybench::kernel_names().end());
  std::vector<std::string> configs = options.configs;
  if (configs.empty()) configs = {"Precise", "Balanced", "Fast"};
  std::vector<std::string> platforms = options.platforms;
  if (platforms.empty()) platforms = {"Stm32", "Raspberry", "Intel", "AMD"};
  std::vector<const platform::OpTimeTable*> tables;
  for (const std::string& p : platforms)
    tables.push_back(platform::platform_by_name(p));

  // One ILP structure per distinct candidate set among the presets: every
  // kernel analysis builds them, and each job only prices its preset's.
  std::vector<TuningConfig> presets;
  std::vector<TuningConfig> structure_inputs;
  std::vector<std::size_t> structure_of;   // per preset
  std::vector<std::size_t> structure_rows; // ILP rows per structure
  for (const std::string& name : configs) {
    const TuningConfig& preset = presets.emplace_back(*preset_by_name(name));
    const auto it = std::find_if(
        structure_inputs.begin(), structure_inputs.end(),
        [&](const TuningConfig& s) { return same_ilp_structure(s, preset); });
    structure_of.push_back(
        static_cast<std::size_t>(it - structure_inputs.begin()));
    if (it == structure_inputs.end()) {
      structure_inputs.push_back(preset);
      structure_rows.push_back(0);
    }
    structure_rows[structure_of.back()] += platforms.size();
  }

  int threads = options.threads;
  if (threads <= 0)
    threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // The cache serves the re-check only: its re-solves read back what the
  // jobs stored. The grid's models are pairwise distinct, so without the
  // re-check a cache would only intern and key them.
  std::optional<ilp::SolverCache> cache;
  if (options.check_determinism) cache.emplace();
  ilp::SolverCache* const cache_ptr = cache ? &*cache : nullptr;
  const std::unique_ptr<interp::ExecutionEngine> engine =
      interp::make_engine(*interp::parse_engine(options.engine));

  // Phase 1: per-kernel setup (build, the binary64 run that annotates it,
  // IR rendering, the shared parse + VRA + ILP structures, the TAFFO
  // allocation), parallel over kernels.
  const LogLevel progress_level =
      options.verbose ? LogLevel::Info : LogLevel::Debug;
  std::vector<KernelContext> contexts(kernels.size());
  for (std::size_t i = 0; i < kernels.size(); ++i) contexts[i].name = kernels[i];
  {
    obs::TraceSpan phase("sweep.prepare", "sweep", [&] {
      return obs::Args().num("kernels", kernels.size()).done();
    });
    support::parallel_for(contexts.size(), threads, [&](std::size_t i) {
      obs::TraceSpan span("sweep.prepare_kernel", "sweep", [&] {
        return obs::Args().str("kernel", contexts[i].name).done();
      });
      prepare_kernel(contexts[i], options, structure_inputs, *engine);
      LUIS_LOG(progress_level, "[sweep] " + contexts[i].name + " prepared");
    });
  }

  // Job slots in their fixed kernel-major order. Every row of a kernel is
  // charged an equal share of its one VRA run, an ILP row also an equal
  // share of its structure's build (charged when the job runs), and a
  // TAFFO row 1/|platforms| of its kernel's one greedy allocation.
  const std::size_t rows_per_kernel =
      platforms.size() * (configs.size() + (options.include_taffo ? 1 : 0));
  struct IlpJob {
    std::size_t row;    ///< index into result.jobs
    std::size_t preset; ///< index into presets
  };
  std::vector<IlpJob> ilp_jobs;
  std::vector<std::vector<std::size_t>> kernel_rows(kernels.size());
  std::vector<std::size_t> kernel_of; // parallel to result.jobs
  std::vector<const platform::OpTimeTable*> table_of;
  for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
    const KernelContext& ctx = contexts[ki];
    for (std::size_t pi = 0; pi < platforms.size(); ++pi) {
      const auto add_row = [&](const std::string& config) -> SweepJobResult& {
        kernel_rows[ki].push_back(result.jobs.size());
        kernel_of.push_back(ki);
        table_of.push_back(tables[pi]);
        SweepJobResult& job = result.jobs.emplace_back();
        job.kernel = kernels[ki];
        job.config = config;
        job.platform = platforms[pi];
        job.engine = engine->name();
        job.error = ctx.error;
        job.timings.vra_seconds =
            ctx.analysis.vra_seconds / static_cast<double>(rows_per_kernel);
        return job;
      };
      for (std::size_t p = 0; p < configs.size(); ++p) {
        ilp_jobs.push_back({result.jobs.size(), p});
        add_row(configs[p]);
      }
      if (!options.include_taffo) continue;
      SweepJobResult& job = add_row("TAFFO");
      if (!ctx.ok) continue;
      job.ok = true;
      StageTimings allocation = ctx.taffo_timings;
      allocation /= static_cast<double>(platforms.size());
      job.timings += allocation;
      job.timings.total_seconds =
          job.timings.vra_seconds + job.timings.allocation_seconds;
      job.stats = ctx.taffo_stats;
      job.assignment_text = ctx.taffo_assignment;
    }
  }

  // Determinism check: re-tune one kernel's ILP jobs and compare. The
  // kernel's parse, ranges and structures are re-derived from its IR text,
  // then every job's model is re-priced and re-solved; the re-solves hit
  // the cache (same model bytes, objective and options) and skip branch &
  // bound. The check is what proves a parallel sweep computed exactly what
  // the serial path would have. Returns the kernel's mismatching jobs.
  const std::size_t jobs_per_kernel = platforms.size() * configs.size();
  const auto recheck = [&](std::size_t ki) {
    const KernelContext& ctx = contexts[ki];
    obs::TraceSpan span("sweep.determinism_check", "sweep", [&] {
      return obs::Args().str("kernel", ctx.name).done();
    });
    const KernelAnalysis redo_kernel =
        analyze_kernel(ctx.name, ctx.ir_text, options.vra, structure_inputs);
    int mismatches = 0;
    for (std::size_t i = ki * jobs_per_kernel; i < (ki + 1) * jobs_per_kernel;
         ++i) {
      const auto [j, p] = ilp_jobs[i]; // ilp_jobs is kernel-major
      const SweepJobResult& job = result.jobs[j];
      SweepJobResult redo;
      redo.kernel = job.kernel;
      redo.config = job.config;
      redo.platform = job.platform;
      run_ilp_job(redo_kernel.structures[structure_of[p]], 0.0, *table_of[j],
                  presets[p], options, cache_ptr, redo);
      const bool same = redo.assignment_text == job.assignment_text &&
                        redo.stats.objective == job.stats.objective &&
                        redo.stats.status == job.stats.status;
      if (!same) {
        ++mismatches;
        // A mismatch is a real defect, not progress chatter: always warn.
        LUIS_LOG_WARN("[sweep] determinism MISMATCH " + job.kernel + "/" +
                      job.config + "/" + job.platform);
      }
    }
    return mismatches;
  };

  // Phase 2: the ILP jobs, parallel over (kernel x platform x config),
  // each pricing its kernel's shared structure. Each kernel counts its ILP
  // jobs down on an atomic. The job that reaches zero releases the
  // kernel's structures, executes its rows, frees the rest of its state
  // and, with the check on, re-checks the kernel. So no barrier waits for
  // the grid's slowest job before a kernel executes, and kernels do not all
  // stay resident.
  std::atomic<int> mismatches{0};
  {
    obs::TraceSpan phase("sweep.jobs", "sweep", [&] {
      return obs::Args().num("jobs", ilp_jobs.size()).done();
    });
    std::vector<std::atomic<int>> jobs_left(kernels.size());
    for (std::atomic<int>& left : jobs_left)
      left = static_cast<int>(jobs_per_kernel);
    std::vector<std::array<long, 3>> executed(kernels.size(),
                                              {0, 0, 0}); // runs/lanes/unique
    support::parallel_for(ilp_jobs.size(), threads, [&](std::size_t i) {
      const auto [j, p] = ilp_jobs[i];
      const std::size_t ki = kernel_of[j];
      SweepJobResult& job = result.jobs[j];
      KernelContext& ctx = contexts[ki];
      if (!ctx.ok) return; // the row already carries the kernel's error
      bool last = false;
      {
        obs::TraceSpan span("sweep.job", "sweep", [&] {
          return obs::Args()
              .str("kernel", job.kernel)
              .str("config", job.config)
              .str("platform", job.platform)
              .done();
        });
        const std::size_t si = structure_of[p];
        const IlpStructure& structure = ctx.analysis.structures[si];
        run_ilp_job(structure,
                    structure.build_seconds /
                        static_cast<double>(structure_rows[si]),
                    *table_of[j], presets[p], options, cache_ptr, job);
        LUIS_LOG(progress_level, "[sweep] " + job.kernel + "/" + job.config +
                                     "/" + job.platform +
                                     (job.ok ? " ok" : " FAILED"));
        // Past the countdown the row belongs to the kernel's execution.
        last = --jobs_left[ki] == 0;
        if (last) ctx.analysis.structures = {};
      }
      if (!last) return;
      {
        obs::TraceSpan span("sweep.execute_kernel", "sweep", [&] {
          return obs::Args().str("kernel", ctx.name).done();
        });
        executed[ki] = execute_kernel(ctx, kernel_rows[ki], table_of, *engine,
                                      options.errors, result.jobs);
        release_kernel(ctx);
        LUIS_LOG(progress_level,
                 "[sweep] " + ctx.name + " executed " +
                     std::to_string(executed[ki][2] - 1) + " lanes for " +
                     std::to_string(executed[ki][1]) + " rows");
      }
      if (options.check_determinism) mismatches += recheck(ki);
    });
    for (const auto& [r, l, u] : executed) {
      result.stats.batch_runs += r;
      result.stats.batch_lanes += l;
      result.stats.batch_unique_lanes += u;
    }
  }
  if (options.check_determinism)
    result.stats.determinism_mismatches = mismatches;

  result.stats.jobs = static_cast<int>(result.jobs.size());
  result.stats.threads = threads;
  for (const SweepJobResult& job : result.jobs) {
    if (!job.ok) ++result.stats.failed;
    result.stats.stage_totals += job.timings;
    result.stats.solver_nodes += job.stats.nodes;
    result.stats.solver_iterations += job.stats.iterations;
  }
  // The binary64 runs serve lane 0 but are charged to no row.
  for (const KernelContext& ctx : contexts) {
    result.stats.stage_totals.interp_compile_seconds += ctx.base.compile_seconds;
    result.stats.stage_totals.interp_execute_seconds += ctx.base.execute_seconds;
  }
  result.stats.engine = engine->name();
  result.stats.vra = options.vra;
  if (cache) result.stats.cache = cache->stats();
  sweep_span.end();
  obs::metrics().counter("sweep.runs").inc();
  obs::metrics().counter("sweep.jobs").inc(result.stats.jobs);
  obs::metrics().counter("sweep.failed_jobs").inc(result.stats.failed);
  obs::metrics().set_gauge("sweep.last_wall_seconds",
                           result.stats.wall_seconds);
  if (options.errors) {
    // Per-job error telemetry into the registry: the MPE/deviation
    // distributions across the grid, plus the divergence total.
    long profiled = 0, divergences = 0;
    for (const SweepJobResult& job : result.jobs) {
      if (!job.errors_profiled) continue;
      ++profiled;
      divergences += job.control_divergences;
      obs::metrics().histogram("sweep.shadow_mpe").observe(job.shadow_mpe);
      obs::metrics().histogram("sweep.max_rel_error")
          .observe(job.max_rel_error);
    }
    obs::metrics().counter("sweep.error_profiled_jobs").inc(profiled);
    obs::metrics().counter("sweep.control_divergences").inc(divergences);
  }
  return result;
}

std::string sweep_summary_text(const SweepResult& result) {
  const SweepStats& s = result.stats;
  std::string out;
  out += format_string("jobs: %d (%d failed), %d thread%s, %.2f s wall\n",
                       s.jobs, s.failed, s.threads, s.threads == 1 ? "" : "s",
                       s.wall_seconds);
  const StageTimings& t = s.stage_totals;
  out += format_string("stage totals: ir %.2fs | vra %.2fs | alloc %.2fs "
                       "(build %.2fs, solve %.2fs) | materialize %.2fs | "
                       "lint %.2fs\n",
                       t.ir_seconds, t.vra_seconds, t.allocation_seconds,
                       t.model_build_seconds, t.solve_seconds,
                       t.materialize_seconds, t.lint_seconds);
  out += format_string("engine: %s; interpretation: compile %.2fs | "
                       "execute %.2fs\n",
                       s.engine.c_str(), t.interp_compile_seconds,
                       t.interp_execute_seconds);
  if (s.batch_runs > 0)
    out += format_string("deduplicated execution: %ld kernels, %ld jobs run "
                         "as %ld unique assignments\n",
                         s.batch_runs, s.batch_lanes, s.batch_unique_lanes);
  out += format_string("solver: %ld nodes, %ld simplex iterations\n",
                       s.solver_nodes, s.solver_iterations);
  out += format_string("cache: %ld lookups, %ld hits (%.1f%%)\n",
                       s.cache.lookups, s.cache.hits,
                       100.0 * s.cache.hit_rate());
  {
    long profiled = 0, divergences = 0;
    double worst_rel = 0.0;
    for (const SweepJobResult& job : result.jobs) {
      if (!job.errors_profiled) continue;
      ++profiled;
      divergences += job.control_divergences;
      worst_rel = std::max(worst_rel, job.max_rel_error);
    }
    if (profiled > 0)
      out += format_string("error profiling: %ld jobs shadow-executed, "
                           "worst rel deviation %.4g, %ld control "
                           "divergence(s)\n",
                           profiled, worst_rel, divergences);
  }
  if (s.determinism_mismatches < 0)
    out += "determinism check: skipped\n";
  else if (s.determinism_mismatches == 0)
    out += "determinism check: PASS (re-tune reproduced every job)\n";
  else
    out += format_string("determinism check: FAIL (%d mismatching jobs)\n",
                         s.determinism_mismatches);
  return out;
}

std::string sweep_report_json(const SweepResult& result) {
  JsonWriter w;
  w.begin_object();
  w.newline();
  w.key("build");
  w.raw_value(obs::build_info_json());
  w.newline();
  w.key("jobs");
  w.begin_array();
  w.newline();
  for (const SweepJobResult& job : result.jobs) {
    w.begin_object();
    w.key("kernel");
    w.value(job.kernel);
    w.key("config");
    w.value(job.config);
    w.key("platform");
    w.value(job.platform);
    w.key("engine");
    w.value(job.engine);
    w.key("ok");
    w.value(job.ok);
    w.key("speedup_percent");
    w.value(job.speedup_percent, "%.6g");
    w.key("mpe");
    w.value(job.mpe, "%.6g");
    if (job.errors_profiled) {
      w.key("shadow_mpe");
      w.value(job.shadow_mpe, "%.6g");
      w.key("max_abs_error");
      w.value(job.max_abs_error, "%.6g");
      w.key("max_rel_error");
      w.value(job.max_rel_error, "%.6g");
      w.key("control_divergences");
      w.value(job.control_divergences);
    }
    w.key("status");
    w.value(ilp::to_string(job.stats.status));
    w.key("objective");
    w.value(job.stats.objective, "%.17g");
    w.key("nodes");
    w.value(job.stats.nodes);
    w.key("iterations");
    w.value(job.stats.iterations);
    w.key("model_variables");
    w.value(job.stats.model_variables);
    w.key("model_constraints");
    w.value(job.stats.model_constraints);
    w.key("timings");
    write_timings(w, job.timings);
    w.end_object();
    w.newline();
  }
  w.end_array();
  w.newline();
  const SweepStats& s = result.stats;
  w.key("summary");
  w.begin_object();
  w.key("jobs");
  w.value(s.jobs);
  w.key("failed");
  w.value(s.failed);
  w.key("threads");
  w.value(s.threads);
  w.key("wall_seconds");
  w.value(s.wall_seconds, "%.6g");
  w.key("solver_nodes");
  w.value(s.solver_nodes);
  w.key("solver_iterations");
  w.value(s.solver_iterations);
  w.key("cache");
  w.begin_object();
  w.key("lookups");
  w.value(s.cache.lookups);
  w.key("hits");
  w.value(s.cache.hits);
  w.key("insertions");
  w.value(s.cache.insertions);
  w.key("hit_rate");
  w.value(s.cache.hit_rate(), "%.4f");
  w.end_object();
  w.key("engine");
  w.value(s.engine);
  w.key("vra");
  w.begin_object();
  w.key("max_passes");
  w.value(s.vra.max_passes);
  w.key("widen_after");
  w.value(s.vra.widen_after);
  w.key("clamp");
  w.value(s.vra.clamp, "%.17g");
  w.key("join_stores");
  w.value(s.vra.join_stores);
  w.end_object();
  w.key("batch");
  w.begin_object();
  w.key("runs");
  w.value(s.batch_runs);
  w.key("lanes");
  w.value(s.batch_lanes);
  w.key("unique_lanes");
  w.value(s.batch_unique_lanes);
  w.end_object();
  w.key("determinism_mismatches");
  w.value(s.determinism_mismatches);
  w.key("stage_totals");
  write_timings(w, s.stage_totals);
  w.end_object();
  w.newline();
  w.end_object();
  w.newline();
  return w.take();
}

} // namespace luis::core
