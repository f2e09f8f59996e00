// grid_serial / grid_parallel: the paper's Figure 2 grid through
// core::run_sweep, checked cell for cell against the committed
// fig2_speedup.csv / fig2_mpe.csv, plus a traced replay of the same pass.
#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/dataflow.hpp"
#include "bench.hpp"
#include "core/assignment_io.hpp"
#include "core/greedy_allocator.hpp"
#include "core/ilp_allocator.hpp"
#include "core/sweep.hpp"
#include "interp/engine.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "platform/cost_model.hpp"
#include "polybench/polybench.hpp"
#include "support/statistics.hpp"
#include "support/string_utils.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace luis;

// SweepOptions' defaults, which the replay reproduces.
const std::vector<std::string> kPlatforms = {"Stm32", "Raspberry", "Intel",
                                             "AMD"};
const std::vector<std::string> kConfigs = {"Precise", "Balanced", "Fast"};
constexpr long kSolverMaxNodes = 3000;

/// A fig2_*.csv cell: "kernel/platform:config".
std::string cell_key(const std::string& kernel, const std::string& platform,
                     const std::string& config) {
  return kernel + "/" + platform + ":" + config;
}

/// Cell text by cell key.
std::map<std::string, std::string> read_table(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error(path + " is empty");
  const std::vector<std::string> header = split_fields(line, ',');
  std::map<std::string, std::string> cells;
  while (std::getline(in, line)) {
    const std::vector<std::string> row = split_fields(line, ',');
    if (row.size() != header.size())
      throw std::runtime_error(path + ": row width differs from header");
    for (std::size_t c = 1; c < row.size(); ++c)
      cells[row[0] + "/" + header[c]] = row[c];
  }
  return cells;
}

/// A value as bench_fig2_polybench writes it (operator<< defaults).
std::string cell_text(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

struct Expected {
  std::map<std::string, std::string> speedup, mpe;

  bool matches(const core::SweepJobResult& job) const {
    const std::string key = cell_key(job.kernel, job.platform, job.config);
    const auto s = speedup.find(key);
    const auto m = mpe.find(key);
    return job.ok && s != speedup.end() && m != mpe.end() &&
           s->second == cell_text(job.speedup_percent) &&
           m->second == cell_text(job.mpe);
  }
};

/// What the determinism re-check compares: assignment, objective, status.
struct Decision {
  std::string assignment_text;
  double objective = 0.0;
  ilp::SolveStatus status = ilp::SolveStatus::Optimal;

  bool operator==(const Decision& o) const {
    return assignment_text == o.assignment_text &&
           std::bit_cast<std::uint64_t>(objective) ==
               std::bit_cast<std::uint64_t>(o.objective) &&
           status == o.status;
  }
};

Decision decision_of(const core::SweepJobResult& job) {
  return {job.assignment_text, job.stats.objective, job.stats.status};
}

core::TuningConfig config_by_name(const std::string& name) {
  core::TuningConfig c = name == "Precise" ? core::TuningConfig::precise()
                         : name == "Fast"  ? core::TuningConfig::fast()
                                           : core::TuningConfig::balanced();
  c.solver.max_nodes = kSolverMaxNodes;
  return c;
}

/// MPE across all output arrays, concatenated as run_sweep does.
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

// ---------------------------------------------------------------------------
// The replay: run_sweep's four phases through the layers' public calls.

struct KernelContext {
  std::string name;
  bool ok = false;
  std::string error;
  std::string ir_text;
  interp::ArrayStore inputs;
  std::vector<std::string> outputs;
  interp::ArrayStore reference;
  interp::CostCounters base_counters;
  bool taffo_ok = false;
  std::string taffo_error;
  core::AllocationStats taffo_stats;
  std::string taffo_assignment;
  interp::CostCounters taffo_counters;
  double taffo_mpe = 0.0;
  long vra_passes = 0;
};

void prepare_kernel(KernelContext& ctx, const interp::ExecutionEngine& engine) {
  ir::Module module;
  polybench::BuiltKernel kernel;
  {
    LayerSpan s(Layer::PolybenchBuild);
    kernel = polybench::build_kernel(ctx.name, module);
  }
  ctx.inputs = kernel.inputs;
  ctx.outputs = kernel.outputs;
  ctx.reference = kernel.inputs;
  interp::RunResult base;
  {
    LayerSpan s(Layer::InterpReference);
    base = engine.run(*kernel.function, interp::TypeAssignment{}, ctx.reference);
  }
  if (!base.ok) {
    ctx.error = ctx.name + " baseline failed: " + base.error;
    return;
  }
  ctx.base_counters = std::move(base.counters);
  {
    LayerSpan s(Layer::IrPrint);
    ctx.ir_text = ir::print_function(*kernel.function);
  }

  // The TAFFO baseline: tune_kernel with the greedy allocator.
  vra::RangeMap ranges;
  analysis::DataflowStats vra_stats;
  {
    LayerSpan s(Layer::VraAnalyze);
    ranges = vra::analyze_ranges(*kernel.function, {}, &vra_stats);
  }
  ctx.vra_passes += vra_stats.passes;
  core::AllocationResult taffo;
  {
    LayerSpan s(Layer::CoreGreedy);
    taffo = core::allocate_greedy(*kernel.function, ranges,
                                  core::TuningConfig::balanced());
  }
  ctx.taffo_stats = taffo.stats;
  {
    LayerSpan s(Layer::AssignmentIo);
    ctx.taffo_assignment =
        core::assignment_to_text(*kernel.function, taffo.assignment);
  }
  interp::ArrayStore out = kernel.inputs;
  interp::RunResult run;
  {
    LayerSpan s(Layer::InterpReference);
    run = engine.run(*kernel.function, taffo.assignment, out);
  }
  if (!run.ok) {
    ctx.taffo_error = ctx.name + " TAFFO run failed: " + run.error;
  } else {
    ctx.taffo_ok = true;
    ctx.taffo_counters = std::move(run.counters);
    LayerSpan s(Layer::SupportMpe);
    ctx.taffo_mpe = kernel_mpe(ctx.outputs, ctx.reference, out);
  }
  ctx.ok = true;
}

struct Tuned {
  Decision decision;
  core::AllocationStats stats;
  long vra_passes = 0;
};

/// run_sweep's per-job tuning (tune_kernel's VRA + ILP allocation) on a
/// private re-parse of the kernel; `spans` marks each call with its layer.
Tuned tune_job(const KernelContext& ctx, const platform::OpTimeTable& table,
               const std::string& config_name, ilp::SolverCache* cache,
               bool share_basis, bool spans) {
  ir::Module module;
  ir::Function* f = nullptr;
  {
    LayerSpan s(Layer::IrParse, spans);
    const ir::ParseResult parsed = ir::parse_function(module, ctx.ir_text);
    if (!parsed.ok())
      throw std::runtime_error("kernel IR re-parse failed: " + parsed.error);
    f = parsed.function;
  }
  core::TuningConfig config = config_by_name(config_name);
  config.solver.cache = cache;
  config.solver.share_basis = share_basis;
  Tuned out;
  vra::RangeMap ranges;
  analysis::DataflowStats vra_stats;
  {
    LayerSpan s(Layer::VraAnalyze, spans);
    ranges = vra::analyze_ranges(*f, {}, &vra_stats);
  }
  out.vra_passes = vra_stats.passes;
  core::AllocationResult alloc;
  {
    LayerSpan s(Layer::CoreAllocate, spans);
    alloc = core::allocate_ilp(*f, ranges, table, config);
  }
  {
    LayerSpan s(Layer::AssignmentIo, spans);
    out.decision.assignment_text = core::assignment_to_text(*f, alloc.assignment);
  }
  out.decision.objective = alloc.stats.objective;
  out.decision.status = alloc.stats.status;
  out.stats = alloc.stats;
  return out;
}

class GridWorkload final : public Workload {
public:
  GridWorkload(const BenchOptions& options, int threads) : threads_(threads) {
    expected_.speedup = read_table(options.speedup_csv);
    expected_.mpe = read_table(options.mpe_csv);
    const auto names = polybench::kernel_names();
    for (const std::size_t i : seeded_order(names.size(), options.seed))
      kernels_.push_back(names[i]);
    jobs_ = static_cast<long>(kernels_.size() * kPlatforms.size() *
                              (kConfigs.size() + 1));
    // The untimed warm-up pass; its decisions are the replay's reference.
    const core::SweepResult warm = core::run_sweep(sweep_options());
    for (const core::SweepJobResult& job : warm.jobs)
      reference_[cell_key(job.kernel, job.platform, job.config)] =
          decision_of(job);
  }

  long jobs_per_pass() const override { return jobs_; }

  PassResult run_pass() override {
    const core::SweepResult r = core::run_sweep(sweep_options());
    long failed = jobs_ - static_cast<long>(r.jobs.size());
    for (const core::SweepJobResult& job : r.jobs)
      if (!expected_.matches(job)) ++failed;
    failed += mismatch_failures(r.stats.determinism_mismatches);
    return {jobs_, std::min(jobs_, failed)};
  }

  PassResult run_traced_pass(Counters& counters) override;

private:
  core::SweepOptions sweep_options() const {
    core::SweepOptions o;
    o.kernels = kernels_;
    o.threads = threads_;
    return o;
  }

  /// A disabled check (-1) is as bad as every job mismatching.
  long mismatch_failures(int mismatches) const {
    return mismatches < 0 ? jobs_ : mismatches;
  }

  int phase_threads(std::size_t n) const {
    return static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(threads_), n));
  }

  int threads_;
  Expected expected_;
  std::vector<std::string> kernels_;
  long jobs_ = 0;
  std::map<std::string, Decision> reference_;
};

PassResult GridWorkload::run_traced_pass(Counters& counters) {
  const bool serial = threads_ == 1;
  ilp::SolverCache cache;
  interp::ProgramCache program_cache;
  std::unique_ptr<interp::ExecutionEngine> engine;
  std::vector<KernelContext> contexts(kernels_.size());
  std::vector<const platform::OpTimeTable*> tables;
  {
    LayerSpan s(Layer::SweepOther);
    engine = interp::make_engine(interp::EngineKind::Vm, &program_cache);
    for (std::size_t i = 0; i < kernels_.size(); ++i)
      contexts[i].name = kernels_[i];
    for (const std::string& p : kPlatforms)
      tables.push_back(platform::platform_by_name(p));
  }

  // Phase 1: per-kernel prepare.
  {
    PhaseSpan phase("phase.prepare", phase_threads(contexts.size()));
    support::parallel_for(contexts.size(), threads_, [&](std::size_t i) {
      LayerSpan s(Layer::SweepPrepare);
      prepare_kernel(contexts[i], *engine);
    });
  }

  // Job slots in run_sweep's kernel-major order; TAFFO rows priced here.
  std::vector<core::SweepJobResult> jobs;
  std::vector<std::size_t> ilp_jobs, ctx_of, table_of;
  {
    LayerSpan s(Layer::SweepOther);
    for (std::size_t ki = 0; ki < kernels_.size(); ++ki) {
      const KernelContext& ctx = contexts[ki];
      for (std::size_t pi = 0; pi < kPlatforms.size(); ++pi) {
        for (const std::string& config : kConfigs) {
          core::SweepJobResult job;
          job.kernel = kernels_[ki];
          job.config = config;
          job.platform = kPlatforms[pi];
          ilp_jobs.push_back(jobs.size());
          jobs.push_back(std::move(job));
          ctx_of.push_back(ki);
          table_of.push_back(pi);
        }
        core::SweepJobResult job;
        job.kernel = kernels_[ki];
        job.config = "TAFFO";
        job.platform = kPlatforms[pi];
        if (!ctx.ok) {
          job.error = ctx.error;
        } else if (!ctx.taffo_ok) {
          job.error = ctx.taffo_error;
        } else {
          job.ok = true;
          job.stats = ctx.taffo_stats;
          job.assignment_text = ctx.taffo_assignment;
          LayerSpan price(Layer::PlatformPrice);
          const double t_base =
              platform::simulated_time(ctx.base_counters, *tables[pi]);
          job.speedup_percent = platform::speedup_percent(
              t_base, platform::simulated_time(ctx.taffo_counters, *tables[pi]));
          job.mpe = ctx.taffo_mpe;
        }
        jobs.push_back(std::move(job));
        ctx_of.push_back(ki);
        table_of.push_back(pi);
      }
    }
  }

  // Phase 2: tune every ILP job.
  std::vector<long> job_vra_passes(jobs.size(), 0);
  {
    PhaseSpan phase("phase.jobs", phase_threads(ilp_jobs.size()));
    support::parallel_for(ilp_jobs.size(), threads_, [&](std::size_t i) {
      const std::size_t j = ilp_jobs[i];
      core::SweepJobResult& job = jobs[j];
      const KernelContext& ctx = contexts[ctx_of[j]];
      if (!ctx.ok) {
        job.error = ctx.error;
        return;
      }
      LayerSpan s(Layer::SweepJob);
      Tuned t = tune_job(ctx, *tables[table_of[j]], job.config, &cache,
                         serial, true);
      job.assignment_text = std::move(t.decision.assignment_text);
      job.stats = t.stats;
      job.ok = true;
      job_vra_passes[j] = t.vra_passes;
    });
  }

  // Phase 3: per kernel, dedup the tuned assignments into lanes and run
  // them as one batch.
  std::vector<std::array<long, 3>> per_kernel(kernels_.size(), {0, 0, 0});
  {
    PhaseSpan phase("phase.batch", phase_threads(contexts.size()));
    support::parallel_for(contexts.size(), threads_, [&](std::size_t ki) {
      const KernelContext& ctx = contexts[ki];
      if (!ctx.ok) return;
      LayerSpan s(Layer::SweepBatch);
      std::vector<std::size_t> kernel_jobs;
      for (const std::size_t j : ilp_jobs)
        if (ctx_of[j] == ki && jobs[j].ok) kernel_jobs.push_back(j);
      if (kernel_jobs.empty()) return;

      ir::Module module;
      ir::Function* f = nullptr;
      {
        LayerSpan p(Layer::IrParse);
        const ir::ParseResult parsed = ir::parse_function(module, ctx.ir_text);
        if (!parsed.ok())
          throw std::runtime_error("kernel IR re-parse failed: " + parsed.error);
        f = parsed.function;
      }
      std::vector<std::string> lane_texts;
      std::vector<interp::TypeAssignment> lane_types;
      std::vector<int> lane_shares;
      std::vector<std::size_t> lane_of(kernel_jobs.size());
      for (std::size_t k = 0; k < kernel_jobs.size(); ++k) {
        const std::string& text = jobs[kernel_jobs[k]].assignment_text;
        const auto it = std::find(lane_texts.begin(), lane_texts.end(), text);
        if (it != lane_texts.end()) {
          lane_of[k] = static_cast<std::size_t>(it - lane_texts.begin());
          ++lane_shares[lane_of[k]];
          continue;
        }
        core::AssignmentParseResult reloaded;
        {
          LayerSpan io(Layer::AssignmentIo);
          reloaded = core::assignment_from_text(*f, text);
        }
        if (!reloaded.ok())
          throw std::runtime_error("tuned assignment does not reload: " +
                                   reloaded.error);
        lane_of[k] = lane_texts.size();
        lane_texts.push_back(text);
        lane_types.push_back(std::move(reloaded.assignment));
        lane_shares.push_back(1);
      }

      std::vector<interp::ArrayStore> lane_stores(lane_types.size(), ctx.inputs);
      std::vector<interp::BatchRequest> requests(lane_types.size());
      for (std::size_t l = 0; l < lane_types.size(); ++l)
        requests[l] = {&lane_types[l], &lane_stores[l], nullptr, nullptr};
      std::vector<interp::RunResult> runs;
      {
        LayerSpan b(Layer::InterpBatch);
        runs = engine->run_batch(*f, requests, {});
      }
      long steps = 0;
      for (const interp::RunResult& run : runs) steps += run.steps;
      per_kernel[ki] = {static_cast<long>(kernel_jobs.size()),
                        static_cast<long>(lane_types.size()), steps};

      for (std::size_t k = 0; k < kernel_jobs.size(); ++k) {
        core::SweepJobResult& job = jobs[kernel_jobs[k]];
        const interp::RunResult& run = runs[lane_of[k]];
        if (!run.ok) {
          job.ok = false;
          job.error = ctx.name + "/" + job.config + " run failed: " + run.error;
          continue;
        }
        {
          LayerSpan price(Layer::PlatformPrice);
          const platform::OpTimeTable& table = *tables[table_of[kernel_jobs[k]]];
          const double t_base = platform::simulated_time(ctx.base_counters, table);
          job.speedup_percent = platform::speedup_percent(
              t_base, platform::simulated_time(run.counters, table));
        }
        LayerSpan mpe(Layer::SupportMpe);
        job.mpe = kernel_mpe(ctx.outputs, ctx.reference, lane_stores[lane_of[k]]);
      }
    });
  }

  // Phase 4: the serial determinism re-check, one span per re-tuned job.
  long mismatches = 0;
  {
    PhaseSpan phase("phase.recheck", 1);
    for (const std::size_t j : ilp_jobs) {
      const KernelContext& ctx = contexts[ctx_of[j]];
      if (!ctx.ok) continue;
      LayerSpan s(Layer::SweepRecheck);
      const Tuned redo = tune_job(ctx, *tables[table_of[j]], jobs[j].config,
                                  &cache, serial, false);
      if (!(redo.decision == decision_of(jobs[j]))) ++mismatches;
    }
  }

  LayerSpan s(Layer::SweepOther);
  long failed = jobs_ - static_cast<long>(jobs.size()) + mismatches;
  for (const core::SweepJobResult& job : jobs) {
    const auto ref = reference_.find(
        cell_key(job.kernel, job.platform, job.config));
    const bool same_as_sweep =
        ref != reference_.end() && ref->second == decision_of(job);
    if (!expected_.matches(job) || !same_as_sweep) ++failed;
  }

  long models = 0, non_optimal = 0, vra_passes = 0;
  double model_vars = 0, nodes = 0, iterations = 0;
  for (const std::size_t j : ilp_jobs) {
    if (!jobs[j].ok) continue;
    const core::AllocationStats& st = jobs[j].stats;
    ++models;
    model_vars += static_cast<double>(st.model_variables);
    nodes += static_cast<double>(st.nodes);
    iterations += static_cast<double>(st.iterations);
    if (st.status != ilp::SolveStatus::Optimal) ++non_optimal;
  }
  for (const long p : job_vra_passes) vra_passes += p;
  for (const KernelContext& ctx : contexts) vra_passes += ctx.vra_passes;
  long lanes = 0, unique_lanes = 0, steps = 0;
  for (const auto& [l, u, st] : per_kernel) {
    lanes += l;
    unique_lanes += u;
    steps += st;
  }
  const ilp::SolverCache::Stats cache_stats = cache.stats();
  counters["ilp.models"] = static_cast<double>(models);
  counters["ilp.model_vars"] = model_vars;
  counters["ilp.nodes"] = nodes;
  counters["ilp.iterations"] = iterations;
  counters["ilp.non_optimal"] = static_cast<double>(non_optimal);
  counters["ilp.cache_lookups"] = static_cast<double>(cache_stats.lookups);
  counters["ilp.cache_hit_ratio"] = cache_stats.hit_rate();
  counters["vra.fixpoint_passes"] = static_cast<double>(vra_passes);
  counters["interp.lanes"] = static_cast<double>(lanes);
  counters["interp.unique_lanes"] = static_cast<double>(unique_lanes);
  counters["interp.steps"] = static_cast<double>(steps);
  counters["interp.program_cache_hit_ratio"] = program_cache.stats().hit_rate();
  return {jobs_, std::min(jobs_, failed)};
}

} // namespace

std::unique_ptr<Workload> make_grid(const BenchOptions& options, int threads) {
  return std::make_unique<GridWorkload>(options, threads);
}

} // namespace perfbench
