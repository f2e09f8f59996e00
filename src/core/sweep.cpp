#include "core/sweep.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "core/assignment_io.hpp"
#include "interp/interpreter.hpp"
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

TuningConfig config_by_name(const std::string& name, long max_nodes) {
  TuningConfig c;
  if (name == "Precise")
    c = TuningConfig::precise();
  else if (name == "Balanced")
    c = TuningConfig::balanced();
  else if (name == "Fast")
    c = TuningConfig::fast();
  else if (name == "Multi")
    c = TuningConfig::multi();
  else
    LUIS_FATAL("unknown sweep config " + name);
  c.solver.max_nodes = max_nodes;
  return c;
}

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

/// Everything a tuning job needs from its kernel, produced once per
/// kernel and read-only afterwards. Jobs re-parse `ir_text` into a
/// private Module instead of sharing the Function (the pipeline interns
/// constants on it).
struct KernelContext {
  std::string name;
  bool ok = false;
  std::string error;
  std::string ir_text;
  interp::ArrayStore inputs;
  std::vector<std::string> outputs;
  interp::ArrayStore reference;       ///< all-binary64 outputs
  interp::CostCounters base_counters; ///< all-binary64 execution profile
  // Interpretation time of the baseline run (not attached to any job row;
  // folded into the sweep's stage totals).
  double base_compile_seconds = 0.0;
  double base_execute_seconds = 0.0;
  // TAFFO greedy baseline — platform-blind, so computed once and priced
  // per platform when the job slots are filled.
  bool taffo_ok = false;
  std::string taffo_error;
  StageTimings taffo_timings;
  AllocationStats taffo_stats;
  std::string taffo_assignment;
  interp::CostCounters taffo_counters;
  double taffo_mpe = 0.0;
};

void prepare_kernel(KernelContext& ctx, bool include_taffo,
                    const vra::VraOptions& vra_options,
                    const interp::ExecutionEngine& engine) {
  ir::Module module;
  polybench::BuiltKernel kernel = polybench::build_kernel(ctx.name, module);
  ctx.inputs = kernel.inputs;
  ctx.outputs = kernel.outputs;

  ctx.reference = kernel.inputs;
  interp::TypeAssignment binary64;
  const interp::RunResult base =
      engine.run(*kernel.function, binary64, ctx.reference);
  ctx.base_compile_seconds = base.compile_seconds;
  ctx.base_execute_seconds = base.execute_seconds;
  if (!base.ok) {
    ctx.error = ctx.name + " baseline failed: " + base.error;
    return;
  }
  ctx.base_counters = base.counters;
  ctx.ir_text = ir::print_function(*kernel.function);

  if (include_taffo) {
    PipelineOptions popt;
    popt.allocator = AllocatorKind::Greedy;
    popt.vra = vra_options;
    const PipelineResult tuned =
        tune_kernel(*kernel.function,
                    platform::stm32_table(), // unused by greedy
                    TuningConfig::balanced(), popt);
    ctx.taffo_timings = tuned.timings;
    ctx.taffo_stats = tuned.allocation.stats;
    ctx.taffo_assignment =
        assignment_to_text(*kernel.function, tuned.allocation.assignment);
    interp::ArrayStore out = kernel.inputs;
    const interp::RunResult run =
        engine.run(*kernel.function, tuned.allocation.assignment, out);
    ctx.taffo_timings.interp_compile_seconds += run.compile_seconds;
    ctx.taffo_timings.interp_execute_seconds += run.execute_seconds;
    if (!run.ok) {
      ctx.taffo_error = ctx.name + " TAFFO run failed: " + run.error;
    } else {
      ctx.taffo_ok = true;
      ctx.taffo_counters = run.counters;
      ctx.taffo_mpe = kernel_mpe(ctx.outputs, ctx.reference, out);
    }
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

/// Tunes one (kernel, config, platform) job on a private clone of the
/// kernel. With `execute` the tuned kernel is also interpreted for the
/// speedup/MPE metrics; the determinism re-check skips that (the
/// assignment fully determines the execution).
void run_ilp_job(const KernelContext& ctx, const platform::OpTimeTable& table,
                 const SweepOptions& opt, ilp::SolverCache* cache,
                 const interp::ExecutionEngine& engine, bool execute,
                 SweepJobResult& out) {
  ir::Module module;
  const ir::ParseResult parsed = ir::parse_function(module, ctx.ir_text);
  LUIS_ASSERT(parsed.ok(),
              ("sweep: kernel IR re-parse failed: " + parsed.error).c_str());
  ir::Function& f = *parsed.function;

  TuningConfig config = config_by_name(out.config, opt.solver_max_nodes);
  config.solver.cache = cache;
  // Neighboring presets (same kernel/platform structure, different
  // objective weights) reuse each other's root bases — but only when the
  // solve order is deterministic, i.e. an explicitly serial sweep. Under
  // parallelism the pool's contents depend on job completion order, which
  // would break the parallel == serial bit-identity guarantee.
  config.solver.share_basis = cache != nullptr && opt.threads == 1;
  PipelineOptions popt;
  popt.vra = opt.vra;
  const PipelineResult tuned = tune_kernel(f, table, config, popt);
  out.timings = tuned.timings;
  out.stats = tuned.allocation.stats;
  out.assignment_text = assignment_to_text(f, tuned.allocation.assignment);

  if (execute) {
    interp::ArrayStore store = ctx.inputs;
    interp::ErrorProfile errors;
    interp::RunOptions ropt;
    if (opt.errors) ropt.error_profile = &errors;
    const interp::RunResult run =
        engine.run(f, tuned.allocation.assignment, store, ropt);
    out.timings.interp_compile_seconds = run.compile_seconds;
    out.timings.interp_execute_seconds = run.execute_seconds;
    if (!run.ok) {
      out.error = ctx.name + "/" + out.config + " run failed: " + run.error;
      return;
    }
    const double t_base = platform::simulated_time(ctx.base_counters, table);
    out.speedup_percent = platform::speedup_percent(
        t_base, platform::simulated_time(run.counters, table));
    out.mpe = kernel_mpe(ctx.outputs, ctx.reference, store);
    if (opt.errors && errors.finalized) fold_error_profile(errors, out);
  }
  out.ok = true;
}

void write_timings(JsonWriter& w, const StageTimings& t) {
  w.begin_object();
  w.key("ir_seconds");
  w.value(t.ir_seconds, "%.6g");
  w.key("vra_seconds");
  w.value(t.vra_seconds, "%.6g");
  w.key("allocation_seconds");
  w.value(t.allocation_seconds, "%.6g");
  w.key("model_build_seconds");
  w.value(t.model_build_seconds, "%.6g");
  w.key("solve_seconds");
  w.value(t.solve_seconds, "%.6g");
  w.key("materialize_seconds");
  w.value(t.materialize_seconds, "%.6g");
  w.key("error_seconds");
  w.value(t.error_seconds, "%.6g");
  w.key("lint_seconds");
  w.value(t.lint_seconds, "%.6g");
  w.key("interp_compile_seconds");
  w.value(t.interp_compile_seconds, "%.6g");
  w.key("interp_execute_seconds");
  w.value(t.interp_execute_seconds, "%.6g");
  w.key("total_seconds");
  w.value(t.total_seconds, "%.6g");
  w.end_object();
}

void write_cache_stats(JsonWriter& w, long lookups, long hits, long insertions,
                       double hit_rate) {
  w.begin_object();
  w.key("lookups");
  w.value(lookups);
  w.key("hits");
  w.value(hits);
  w.key("insertions");
  w.value(insertions);
  w.key("hit_rate");
  w.value(hit_rate, "%.4f");
  w.end_object();
}

} // namespace

SweepResult run_sweep(const SweepOptions& options) {
  obs::TraceSpan sweep_span("sweep.run", "sweep");
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<std::string> kernels = options.kernels;
  if (kernels.empty())
    kernels.assign(polybench::kernel_names().begin(),
                   polybench::kernel_names().end());
  for (const std::string& k : kernels) {
    const auto names = polybench::kernel_names();
    if (std::find(names.begin(), names.end(), k) == names.end())
      LUIS_FATAL("unknown kernel " + k);
  }
  std::vector<std::string> configs = options.configs;
  if (configs.empty()) configs = {"Precise", "Balanced", "Fast"};
  for (const std::string& c : configs)
    (void)config_by_name(c, 1); // validates the name
  std::vector<std::string> platforms = options.platforms;
  if (platforms.empty()) platforms = {"Stm32", "Raspberry", "Intel", "AMD"};
  std::vector<const platform::OpTimeTable*> tables;
  for (const std::string& p : platforms) {
    const platform::OpTimeTable* table = platform::platform_by_name(p);
    LUIS_ASSERT(table != nullptr, ("unknown platform " + p).c_str());
    tables.push_back(table);
  }

  int threads = options.threads;
  if (threads <= 0)
    threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  ilp::SolverCache cache;
  ilp::SolverCache* cache_ptr = options.use_cache ? &cache : nullptr;

  const std::optional<interp::EngineKind> engine_kind =
      interp::parse_engine(options.engine);
  if (!engine_kind) LUIS_FATAL("unknown engine " + options.engine);
  // The program cache rides the same switch as the solver cache:
  // use_cache=false must mean no shared state between jobs at all.
  interp::ProgramCache program_cache;
  const std::unique_ptr<interp::ExecutionEngine> engine = interp::make_engine(
      *engine_kind, options.use_cache ? &program_cache : nullptr);

  // Phase 1: per-kernel setup (build, binary64 reference, IR rendering,
  // TAFFO baseline), parallel over kernels.
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
      prepare_kernel(contexts[i], options.include_taffo, options.vra, *engine);
      LUIS_LOG(progress_level, "[sweep] " + contexts[i].name + " prepared");
    });
  }

  // Job slots in their fixed kernel-major order.
  SweepResult result;
  std::vector<std::size_t> ilp_jobs;      // indices into result.jobs
  std::vector<const KernelContext*> ctx_of; // parallel to result.jobs
  std::vector<const platform::OpTimeTable*> table_of;
  for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
    for (std::size_t pi = 0; pi < platforms.size(); ++pi) {
      for (const std::string& config : configs) {
        SweepJobResult job;
        job.kernel = kernels[ki];
        job.config = config;
        job.platform = platforms[pi];
        job.engine = engine->name();
        ilp_jobs.push_back(result.jobs.size());
        result.jobs.push_back(std::move(job));
        ctx_of.push_back(&contexts[ki]);
        table_of.push_back(tables[pi]);
      }
      if (options.include_taffo) {
        SweepJobResult job;
        job.kernel = kernels[ki];
        job.config = "TAFFO";
        job.platform = platforms[pi];
        job.engine = engine->name();
        const KernelContext& ctx = contexts[ki];
        if (!ctx.ok) {
          job.error = ctx.error;
        } else if (!ctx.taffo_ok) {
          job.error = ctx.taffo_error;
        } else {
          job.ok = true;
          job.timings = ctx.taffo_timings;
          job.stats = ctx.taffo_stats;
          job.assignment_text = ctx.taffo_assignment;
          const double t_base =
              platform::simulated_time(ctx.base_counters, *tables[pi]);
          job.speedup_percent = platform::speedup_percent(
              t_base, platform::simulated_time(ctx.taffo_counters, *tables[pi]));
          job.mpe = ctx.taffo_mpe;
        }
        result.jobs.push_back(std::move(job));
        ctx_of.push_back(&contexts[ki]);
        table_of.push_back(tables[pi]);
      }
    }
  }

  // Phase 2: the ILP jobs, parallel over (kernel x platform x config).
  // With batching on, jobs only tune here; the interpretation runs in the
  // batched phase below.
  {
    obs::TraceSpan phase("sweep.jobs", "sweep", [&] {
      return obs::Args().num("jobs", ilp_jobs.size()).done();
    });
    support::parallel_for(ilp_jobs.size(), threads, [&](std::size_t i) {
      const std::size_t j = ilp_jobs[i];
      SweepJobResult& job = result.jobs[j];
      const KernelContext& ctx = *ctx_of[j];
      if (!ctx.ok) {
        job.error = ctx.error;
        return;
      }
      obs::TraceSpan span("sweep.job", "sweep", [&] {
        return obs::Args()
            .str("kernel", job.kernel)
            .str("config", job.config)
            .str("platform", job.platform)
            .done();
      });
      run_ilp_job(ctx, *table_of[j], options, cache_ptr, *engine,
                  /*execute=*/!options.batch, job);
      LUIS_LOG(progress_level, "[sweep] " + job.kernel + "/" + job.config +
                                   "/" + job.platform +
                                   (job.ok ? " ok" : " FAILED"));
    });
  }

  // Phase 2b (batch mode): execute each kernel's tuned assignments as
  // lanes of one batched engine run. Duplicate assignments — presets that
  // converged to the same allocation, or the same preset across platforms
  // (tuning is platform-specific but often agrees) — collapse into one
  // lane; every job sharing a lane reads that lane's counters and store.
  // Speedup/MPE come out bit-identical to the scalar path because the
  // batched VM is bit-identical per lane.
  if (options.batch) {
    obs::TraceSpan phase("sweep.batch_execute", "sweep", [&] {
      return obs::Args().num("kernels", kernels.size()).done();
    });
    std::vector<std::array<long, 3>> per_kernel(kernels.size(),
                                                {0, 0, 0}); // runs/lanes/unique
    support::parallel_for(kernels.size(), threads, [&](std::size_t ki) {
      const KernelContext& ctx = contexts[ki];
      if (!ctx.ok) return;
      std::vector<std::size_t> kernel_jobs;
      for (const std::size_t j : ilp_jobs)
        if (ctx_of[j] == &contexts[ki] && result.jobs[j].ok)
          kernel_jobs.push_back(j);
      if (kernel_jobs.empty()) return;

      ir::Module module;
      const ir::ParseResult parsed = ir::parse_function(module, ctx.ir_text);
      LUIS_ASSERT(parsed.ok(),
                  ("sweep: kernel IR re-parse failed: " + parsed.error).c_str());
      ir::Function& f = *parsed.function;

      // Dedup the tuned assignments into unique lanes.
      std::vector<std::string> lane_texts;
      std::vector<interp::TypeAssignment> lane_types;
      std::vector<int> lane_shares;
      std::vector<std::size_t> lane_of(kernel_jobs.size());
      for (std::size_t k = 0; k < kernel_jobs.size(); ++k) {
        const std::string& text =
            result.jobs[kernel_jobs[k]].assignment_text;
        const auto it =
            std::find(lane_texts.begin(), lane_texts.end(), text);
        if (it != lane_texts.end()) {
          lane_of[k] = static_cast<std::size_t>(it - lane_texts.begin());
          ++lane_shares[lane_of[k]];
          continue;
        }
        const AssignmentParseResult reloaded = assignment_from_text(f, text);
        LUIS_ASSERT(reloaded.ok(),
                    ("sweep: tuned assignment does not reload: " +
                     reloaded.error)
                        .c_str());
        lane_of[k] = lane_texts.size();
        lane_texts.push_back(text);
        lane_types.push_back(reloaded.assignment);
        lane_shares.push_back(1);
      }

      std::vector<interp::ArrayStore> lane_stores(lane_types.size(),
                                                  ctx.inputs);
      std::vector<interp::ErrorProfile> lane_errors(
          options.errors ? lane_types.size() : 0);
      std::vector<interp::BatchRequest> requests(lane_types.size());
      for (std::size_t l = 0; l < lane_types.size(); ++l)
        requests[l] = {&lane_types[l], &lane_stores[l], nullptr,
                       options.errors ? &lane_errors[l] : nullptr};
      const std::vector<interp::RunResult> runs =
          engine->run_batch(f, requests, {});
      per_kernel[ki] = {1, static_cast<long>(kernel_jobs.size()),
                        static_cast<long>(lane_types.size())};

      for (std::size_t k = 0; k < kernel_jobs.size(); ++k) {
        SweepJobResult& job = result.jobs[kernel_jobs[k]];
        const interp::RunResult& run = runs[lane_of[k]];
        // Lane costs are shared by every job the lane serves, so the
        // stage totals still sum to the wall-clock actually spent.
        const double share =
            static_cast<double>(lane_shares[lane_of[k]]);
        job.timings.interp_compile_seconds = run.compile_seconds / share;
        job.timings.interp_execute_seconds = run.execute_seconds / share;
        if (!run.ok) {
          job.ok = false;
          job.error =
              ctx.name + "/" + job.config + " run failed: " + run.error;
          continue;
        }
        const double t_base = platform::simulated_time(
            ctx.base_counters, *table_of[kernel_jobs[k]]);
        job.speedup_percent = platform::speedup_percent(
            t_base,
            platform::simulated_time(run.counters,
                                     *table_of[kernel_jobs[k]]));
        job.mpe = kernel_mpe(ctx.outputs, ctx.reference,
                             lane_stores[lane_of[k]]);
        // Jobs sharing a lane share that lane's shadow profile — the
        // assignment fully determines the deviations.
        if (options.errors && lane_errors[lane_of[k]].finalized)
          fold_error_profile(lane_errors[lane_of[k]], job);
      }
      LUIS_LOG(progress_level,
               "[sweep] " + ctx.name + " batch-executed " +
                   std::to_string(lane_types.size()) + " lanes for " +
                   std::to_string(kernel_jobs.size()) + " jobs");
    });
    for (const auto& [r, l, u] : per_kernel) {
      result.stats.batch_runs += r;
      result.stats.batch_lanes += l;
      result.stats.batch_unique_lanes += u;
    }
  }

  // Determinism check: serially re-tune every ILP job and compare. The
  // re-solves hit the shared cache (same canonical model) and skip branch
  // & bound; the check is what proves a parallel sweep computed exactly
  // what the serial path would have.
  if (options.check_determinism) {
    obs::TraceSpan phase("sweep.determinism_check", "sweep");
    int mismatches = 0;
    for (const std::size_t j : ilp_jobs) {
      const SweepJobResult& job = result.jobs[j];
      const KernelContext& ctx = *ctx_of[j];
      if (!ctx.ok) continue;
      SweepJobResult redo;
      redo.kernel = job.kernel;
      redo.config = job.config;
      redo.platform = job.platform;
      run_ilp_job(ctx, *table_of[j], options, cache_ptr, *engine,
                  /*execute=*/false, redo);
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
    result.stats.determinism_mismatches = mismatches;
  }

  result.stats.jobs = static_cast<int>(result.jobs.size());
  result.stats.threads = threads;
  for (const SweepJobResult& job : result.jobs) {
    if (!job.ok) ++result.stats.failed;
    result.stats.stage_totals += job.timings;
    result.stats.solver_nodes += job.stats.nodes;
    result.stats.solver_iterations += job.stats.iterations;
  }
  // Baseline (binary64 reference) interpretation time belongs to the sweep
  // but to no job row; fold it into the totals here.
  for (const KernelContext& ctx : contexts) {
    result.stats.stage_totals.interp_compile_seconds += ctx.base_compile_seconds;
    result.stats.stage_totals.interp_execute_seconds += ctx.base_execute_seconds;
  }
  result.stats.engine = engine->name();
  result.stats.vra = options.vra;
  if (cache_ptr) result.stats.cache = cache_ptr->stats();
  result.stats.program_cache = program_cache.stats();
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
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
    out += format_string("batched execution: %ld kernel batches served %ld "
                         "job lanes (%ld unique assignments)\n",
                         s.batch_runs, s.batch_lanes, s.batch_unique_lanes);
  out += format_string("solver: %ld nodes, %ld simplex iterations\n",
                       s.solver_nodes, s.solver_iterations);
  out += format_string("cache: %ld lookups, %ld hits (%.1f%%)\n",
                       s.cache.lookups, s.cache.hits,
                       100.0 * s.cache.hit_rate());
  out += format_string("program cache: %ld lookups, %ld hits (%.1f%%)\n",
                       s.program_cache.lookups, s.program_cache.hits,
                       100.0 * s.program_cache.hit_rate());
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
    out += "determinism check: PASS (serial re-tune reproduced every job)\n";
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
  write_cache_stats(w, s.cache.lookups, s.cache.hits, s.cache.insertions,
                    s.cache.hit_rate());
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
  w.key("program_cache");
  write_cache_stats(w, s.program_cache.lookups, s.program_cache.hits,
                    s.program_cache.insertions, s.program_cache.hit_rate());
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
