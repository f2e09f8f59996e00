#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/assignment_io.hpp"
#include "core/ilp_allocator.hpp"
#include "core/sweep.hpp"
#include "ilp/certificate.hpp"
#include "interp/engine.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/cost_model.hpp"
#include "polybench/polybench.hpp"
#include "span_seconds.hpp"
#include "support/statistics.hpp"
#include "support/thread_pool.hpp"

namespace luis::core {
namespace {

// A grid small enough to keep the test fast but wide enough to exercise
// every axis: two presets, two platforms with different op-time tables,
// kernels with different model shapes.
SweepOptions small_grid() {
  SweepOptions opt;
  opt.kernels = {"trisolv", "atax", "jacobi-1d"};
  opt.configs = {"Fast", "Precise"};
  opt.platforms = {"Stm32", "AMD"};
  opt.check_determinism = false;
  return opt;
}

TEST(Sweep, ParallelMatchesSerialBitIdentical) {
  // The sweep's central guarantee: neither the thread count nor the shared
  // cache changes what a sweep computes — same assignments, same
  // objectives, bit for bit, and the same search: every job solves from
  // its own structure, objective and options, so node and simplex
  // iteration counts match too.
  SweepOptions serial = small_grid();
  serial.threads = 1;
  serial.use_cache = false; // plain serial reference: no shared state at all
  const SweepResult a = run_sweep(serial);

  for (const auto& [threads, use_cache] :
       {std::pair{1, true}, std::pair{4, false}, std::pair{4, true}}) {
    SCOPED_TRACE(testing::Message()
                 << threads << " threads, cache " << (use_cache ? "on" : "off"));
    SweepOptions other = small_grid();
    other.threads = threads;
    other.use_cache = use_cache;
    const SweepResult b = run_sweep(other);

    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      const SweepJobResult& ja = a.jobs[i];
      const SweepJobResult& jb = b.jobs[i];
      ASSERT_EQ(ja.kernel, jb.kernel);
      ASSERT_EQ(ja.config, jb.config);
      ASSERT_EQ(ja.platform, jb.platform);
      EXPECT_TRUE(ja.ok);
      EXPECT_TRUE(jb.ok);
      // Bit-identical, deliberately not EXPECT_NEAR.
      EXPECT_EQ(ja.assignment_text, jb.assignment_text)
          << ja.kernel << "/" << ja.config << "/" << ja.platform;
      EXPECT_EQ(ja.stats.objective, jb.stats.objective);
      EXPECT_EQ(ja.stats.status, jb.stats.status);
      EXPECT_EQ(ja.stats.nodes, jb.stats.nodes);
      EXPECT_EQ(ja.stats.iterations, jb.stats.iterations);
      EXPECT_EQ(ja.speedup_percent, jb.speedup_percent);
      EXPECT_EQ(ja.mpe, jb.mpe);
    }
  }
}

/// One closed span of a recorded trace.
struct RecordedSpan {
  std::string name;
  std::string kernel; ///< its `kernel` arg, or empty
  std::uint32_t tid = 0;
  double begin = 0.0, end = 0.0; ///< microseconds
};

std::vector<RecordedSpan>
recorded_spans(const std::vector<obs::TraceEvent>& events) {
  std::vector<RecordedSpan> spans;
  std::map<std::uint32_t, std::vector<RecordedSpan>> open;
  for (const obs::TraceEvent& ev : events) {
    if (ev.phase == 'B') {
      RecordedSpan span{ev.name, "", ev.tid, ev.ts_micros, 0.0};
      const std::string key = "\"kernel\":\"";
      const std::size_t at = ev.args_json.find(key);
      if (at != std::string::npos) {
        const std::size_t from = at + key.size();
        span.kernel =
            ev.args_json.substr(from, ev.args_json.find('"', from) - from);
      }
      open[ev.tid].push_back(span);
    } else if (ev.phase == 'E') {
      spans.push_back(open[ev.tid].back());
      spans.back().end = ev.ts_micros;
      open[ev.tid].pop_back();
    }
  }
  return spans;
}

TEST(Sweep, RecheckFollowsItsKernelsJobs) {
  // With more than one thread the determinism re-check runs on its own
  // thread beside the jobs and takes each kernel only once that kernel's
  // last ILP job is done, so it never compares a row or reads a cache
  // entry that a job is still writing, and no re-check span covers a wait.
  SweepOptions opt = small_grid();
  opt.threads = 4;
  opt.check_determinism = true;
  obs::trace().start();
  const SweepResult r = run_sweep(opt);
  obs::trace().stop();
  const std::vector<RecordedSpan> spans =
      recorded_spans(obs::trace().snapshot());
  obs::trace().clear();

  std::map<std::string, double> last_job_end; // by kernel
  std::set<std::uint32_t> job_threads;
  std::set<std::uint32_t> recheck_threads;
  for (const RecordedSpan& s : spans) {
    if (s.name == "sweep.job") {
      last_job_end[s.kernel] = std::max(last_job_end[s.kernel], s.end);
      job_threads.insert(s.tid);
    }
    if (s.name == "sweep.determinism_check") recheck_threads.insert(s.tid);
  }
  ASSERT_EQ(last_job_end.size(), opt.kernels.size());
  ASSERT_EQ(recheck_threads.size(), 1u);
  EXPECT_EQ(job_threads.count(*recheck_threads.begin()), 0u);

  std::map<std::string, int> rechecked, reanalyzed; // by kernel
  for (const RecordedSpan& s : spans) {
    if (!recheck_threads.count(s.tid) || s.kernel.empty()) continue;
    SCOPED_TRACE(s.name + " " + s.kernel);
    EXPECT_GE(s.begin, last_job_end.at(s.kernel));
    if (s.name == "sweep.determinism_check") ++rechecked[s.kernel];
    if (s.name == "sweep.analyze_kernel") ++reanalyzed[s.kernel];
  }
  for (const std::string& kernel : opt.kernels) {
    EXPECT_EQ(rechecked[kernel], 1) << kernel;
    EXPECT_EQ(reanalyzed[kernel], 1) << kernel;
  }
  EXPECT_EQ(r.stats.determinism_mismatches, 0);

  SweepOptions serial = small_grid();
  serial.threads = 1;
  const SweepResult a = run_sweep(serial);
  ASSERT_EQ(a.jobs.size(), r.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const SweepJobResult& ja = a.jobs[i];
    const SweepJobResult& jb = r.jobs[i];
    SCOPED_TRACE(ja.kernel + "/" + ja.config + "/" + ja.platform);
    EXPECT_EQ(ja.kernel, jb.kernel);
    EXPECT_EQ(ja.config, jb.config);
    EXPECT_EQ(ja.platform, jb.platform);
    EXPECT_TRUE(jb.ok) << jb.error;
    EXPECT_EQ(ja.assignment_text, jb.assignment_text);
    EXPECT_EQ(ja.stats.objective, jb.stats.objective);
    EXPECT_EQ(ja.stats.status, jb.stats.status);
    EXPECT_EQ(ja.stats.nodes, jb.stats.nodes);
    EXPECT_EQ(ja.stats.iterations, jb.stats.iterations);
    EXPECT_EQ(ja.speedup_percent, jb.speedup_percent);
    EXPECT_EQ(ja.mpe, jb.mpe);
  }
}

TEST(Sweep, ErrorProfilingNeedsTheVm) {
  // The tree-walker has no shadow execution: a sweep with `errors` on it
  // would drop every row's error fields, so its options are refused.
  SweepOptions opt = small_grid();
  opt.errors = true;
  EXPECT_EQ(sweep_options_error(opt), "");
  opt.engine = "ref";
  EXPECT_EQ(sweep_options_error(opt), "--errors needs the vm engine");
  opt.errors = false;
  EXPECT_EQ(sweep_options_error(opt), "");
}

TEST(Sweep, DeterminismCheckPassesAndCacheHits) {
  SweepOptions opt = small_grid();
  opt.threads = 2;
  opt.check_determinism = true;
  const SweepResult r = run_sweep(opt);

  EXPECT_EQ(r.stats.failed, 0);
  EXPECT_EQ(r.stats.determinism_mismatches, 0);
  // The serial re-check re-solves every ILP model, and every re-solve must
  // hit the cache filled by the sweep itself.
  EXPECT_GT(r.stats.cache.hits, 0);
  EXPECT_GT(r.stats.cache.hit_rate(), 0.0);
  const long ilp_jobs =
      static_cast<long>(opt.kernels.size() * opt.configs.size() *
                        opt.platforms.size());
  EXPECT_EQ(r.stats.cache.hits, ilp_jobs);
  EXPECT_EQ(r.stats.cache.lookups, 2 * ilp_jobs);
}

/// Masks every JSON value with '#' while keeping keys, field order, and
/// structure — the "shape" the golden file pins. Values (numbers, bools,
/// string values, timings) vary run to run; the field order is the
/// contract downstream report consumers parse against.
std::string json_shape(const std::string& json) {
  const std::string structural = "{}[]:,\n ";
  std::string out;
  std::size_t i = 0;
  const auto skip_ws = [&](std::size_t p) {
    while (p < json.size() && (json[p] == ' ' || json[p] == '\n')) ++p;
    return p;
  };
  while (i < json.size()) {
    const char c = json[i];
    if (c == '"') {
      std::size_t end = i + 1;
      while (end < json.size() && json[end] != '"') ++end;
      const std::size_t after = skip_ws(end + 1);
      if (after < json.size() && json[after] == ':')
        out.append(json, i, end - i + 1); // a key: keep it verbatim
      else
        out += '#'; // a string value: mask it
      i = end + 1;
    } else if (structural.find(c) != std::string::npos) {
      out += c;
      ++i;
    } else {
      out += '#'; // a number / bool token: mask the whole run
      while (i < json.size() && structural.find(json[i]) == std::string::npos &&
             json[i] != '"')
        ++i;
    }
  }
  return out;
}

TEST(Sweep, DedupedExecutionMatchesStandaloneRuns) {
  // The sweep executes each kernel's distinct row assignments once, ILP and
  // TAFFO rows alike, and shares every run among the rows that tuned to
  // it; the all-binary64 assignment is served by the kernel's reference
  // run. Each row's speedup, MPE and shadow-error fields must equal a
  // standalone run of its own reloaded assignment, each TAFFO row must
  // carry the standalone greedy pipeline's assignment, and the dedup stats
  // and the trace must show one execution per distinct assignment.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SweepOptions opt = small_grid();
    opt.threads = threads;
    opt.errors = true;
    obs::trace().start();
    const SweepResult r = run_sweep(opt);
    obs::trace().stop();
    const test::SpanSeconds spans(obs::trace().snapshot());
    obs::trace().clear();

    long rows = 0, taffo_rows = 0, binary64_rows = 0, unique = 0;
    for (const std::string& kernel : opt.kernels) {
      ir::Module module;
      const polybench::BuiltKernel built =
          polybench::build_kernel(kernel, module);
      interp::ArrayStore reference = built.inputs;
      const interp::VmEngine engine;
      const interp::RunResult base =
          engine.run(*built.function, {}, reference);
      ASSERT_TRUE(base.ok) << base.error;
      const std::string ir_text = ir::print_function(*built.function);
      ir::Module reparsed_module;
      const ir::ParseResult reparsed =
          ir::parse_function(reparsed_module, ir_text);
      ASSERT_TRUE(reparsed.ok()) << reparsed.error;
      const ir::Function& f = *reparsed.function;

      // The standalone TAFFO pipeline on a fresh parse of the same IR.
      ir::Module taffo_module;
      const ir::ParseResult taffo_parsed =
          ir::parse_function(taffo_module, ir_text);
      ASSERT_TRUE(taffo_parsed.ok()) << taffo_parsed.error;
      PipelineOptions greedy;
      greedy.allocator = AllocatorKind::Greedy;
      const PipelineResult taffo =
          tune_kernel(*taffo_parsed.function, platform::stm32_table(),
                      TuningConfig::balanced(), greedy);
      const std::string taffo_text = assignment_to_text(
          *taffo_parsed.function, taffo.allocation.assignment);

      const std::string binary64_text = assignment_to_text(f, {});
      std::vector<std::string> seen = {binary64_text};
      for (const SweepJobResult& job : r.jobs) {
        if (job.kernel != kernel) continue;
        SCOPED_TRACE(job.kernel + "/" + job.config + "/" + job.platform);
        ASSERT_TRUE(job.ok) << job.error;
        ++rows;
        if (job.config == "TAFFO") {
          ++taffo_rows;
          EXPECT_EQ(job.assignment_text, taffo_text);
          EXPECT_EQ(job.stats.status, taffo.allocation.stats.status);
          EXPECT_EQ(job.stats.objective, taffo.allocation.stats.objective);
        }
        if (job.assignment_text == binary64_text) ++binary64_rows;
        if (std::find(seen.begin(), seen.end(), job.assignment_text) ==
            seen.end())
          seen.push_back(job.assignment_text);

        const AssignmentParseResult reloaded =
            assignment_from_text(f, job.assignment_text);
        ASSERT_TRUE(reloaded.ok()) << reloaded.error;
        interp::ArrayStore store = built.inputs;
        interp::ErrorProfile errors;
        interp::RunOptions ropt;
        ropt.error_profile = &errors;
        const interp::RunResult run =
            engine.run(f, reloaded.assignment, store, ropt);
        ASSERT_TRUE(run.ok) << run.error;

        const platform::OpTimeTable& table =
            *platform::platform_by_name(job.platform);
        EXPECT_EQ(job.speedup_percent,
                  platform::speedup_percent(
                      platform::simulated_time(base.counters, table),
                      platform::simulated_time(run.counters, table)));
        std::vector<double> want_ref, want_out;
        for (const std::string& name : built.outputs) {
          want_ref.insert(want_ref.end(), reference.at(name).begin(),
                          reference.at(name).end());
          want_out.insert(want_out.end(), store.at(name).begin(),
                          store.at(name).end());
        }
        EXPECT_EQ(job.mpe, mean_percentage_error(want_ref, want_out));

        ASSERT_TRUE(errors.finalized);
        EXPECT_TRUE(job.errors_profiled);
        EXPECT_EQ(job.shadow_mpe, errors.program_mpe);
        EXPECT_EQ(job.control_divergences, errors.control_divergences);
        double max_abs = 0.0, max_rel = 0.0;
        for (const auto* cells : {&errors.instr, &errors.moves})
          for (const interp::ErrorCell& c : *cells) {
            max_abs = std::max(max_abs, c.max_abs);
            max_rel = std::max(max_rel, c.max_rel);
          }
        EXPECT_EQ(job.max_abs_error, max_abs);
        EXPECT_EQ(job.max_rel_error, max_rel);
      }
      unique += static_cast<long>(seen.size());
    }

    EXPECT_EQ(rows, static_cast<long>(r.jobs.size()));
    EXPECT_EQ(taffo_rows, static_cast<long>(opt.kernels.size() *
                                            opt.platforms.size()));
    EXPECT_GT(binary64_rows, 0); // lane 0 serves rows, not only the reference
    EXPECT_EQ(r.stats.batch_runs, static_cast<long>(opt.kernels.size()));
    EXPECT_EQ(r.stats.batch_lanes, rows);
    EXPECT_EQ(r.stats.batch_unique_lanes, unique);
    EXPECT_LT(r.stats.batch_unique_lanes, r.stats.batch_lanes);
    // One execution per distinct (kernel, assignment), binary64 included.
    EXPECT_EQ(spans.count("vm.execute"), r.stats.batch_unique_lanes);
  }
}

TEST(Sweep, JsonReportShapeMatchesGolden) {
  SweepOptions opt;
  opt.kernels = {"trisolv"};
  opt.configs = {"Fast"};
  opt.platforms = {"Stm32"};
  opt.include_taffo = false;
  opt.threads = 1;
  opt.check_determinism = false;
  const std::string shape = json_shape(sweep_report_json(run_sweep(opt)));

  std::ifstream is(LUIS_TEST_DATA_DIR "/golden/sweep_report_shape.txt");
  ASSERT_TRUE(is.good()) << "missing tests/golden/sweep_report_shape.txt";
  const std::string golden((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(shape, golden)
      << "sweep_report_json changed its field order or structure; if that "
         "is intentional, regenerate tests/golden/sweep_report_shape.txt";
}

TEST(Sweep, JobOrderIsKernelMajorAndComplete) {
  SweepOptions opt = small_grid();
  opt.threads = 3;
  const SweepResult r = run_sweep(opt);
  // 3 kernels x 2 platforms x (2 configs + TAFFO).
  ASSERT_EQ(r.jobs.size(), 18u);
  ASSERT_EQ(r.stats.jobs, 18);
  std::size_t i = 0;
  for (const std::string& kernel : opt.kernels)
    for (const std::string& platform : opt.platforms)
      for (const char* config : {"Fast", "Precise", "TAFFO"}) {
        EXPECT_EQ(r.jobs[i].kernel, kernel);
        EXPECT_EQ(r.jobs[i].platform, platform);
        EXPECT_EQ(r.jobs[i].config, config);
        ++i;
      }
}

TEST(Sweep, StageTimingsAggregateAndStayBounded) {
  SweepOptions opt = small_grid();
  opt.threads = 2;
  ASSERT_TRUE(opt.include_taffo);
  const SweepResult r = run_sweep(opt);
  StageTimings sum;
  // Each kernel's one sweep VRA run is charged in equal shares to all its
  // rows, and its one greedy allocation in equal shares to its TAFFO rows.
  std::map<std::string, double> vra_share, taffo_share;
  for (const SweepJobResult& job : r.jobs) {
    EXPECT_LE(job.timings.stage_sum(), job.timings.total_seconds + 1e-9);
    EXPECT_GT(job.timings.vra_seconds, 0.0);
    const auto it =
        vra_share.emplace(job.kernel, job.timings.vra_seconds).first;
    EXPECT_EQ(job.timings.vra_seconds, it->second)
        << job.kernel << "/" << job.config;
    if (job.config == "TAFFO") {
      EXPECT_GT(job.timings.allocation_seconds, 0.0);
      const auto taffo =
          taffo_share.emplace(job.kernel, job.timings.allocation_seconds)
              .first;
      EXPECT_EQ(job.timings.allocation_seconds, taffo->second)
          << job.kernel << "/" << job.platform;
    }
    sum += job.timings;
  }
  EXPECT_EQ(taffo_share.size(), opt.kernels.size());
  EXPECT_DOUBLE_EQ(r.stats.stage_totals.allocation_seconds,
                   sum.allocation_seconds);
  EXPECT_GT(r.stats.stage_totals.vra_seconds, 0.0);
  EXPECT_GT(r.stats.stage_totals.solve_seconds, 0.0);
  EXPECT_GT(r.stats.solver_iterations, 0);
}

TEST(Sweep, StageTotalsReconcileWithTrace) {
  // Every stage total is the summed interval of the spans that timed it
  // (docs/OBSERVABILITY.md, "Timing"), so each measured interval is charged
  // exactly once: shared work (a kernel's VRA, its ILP structure, its TAFFO
  // allocation, a lane's run) is split into shares that add back up, and
  // each kernel's binary64 run counts once, in the totals only.
  SweepOptions opt = small_grid();
  opt.threads = 2;
  ASSERT_TRUE(opt.include_taffo);
  ASSERT_FALSE(opt.check_determinism);
  obs::Histogram& execute_hist =
      obs::metrics().histogram("engine.vm.execute_seconds");
  const double hist_before = execute_hist.snapshot().sum;
  obs::trace().start();
  const SweepResult r = run_sweep(opt);
  obs::trace().stop();
  const test::SpanSeconds spans(obs::trace().snapshot());
  obs::trace().clear();

  const StageTimings& t = r.stats.stage_totals;
  for (const auto& [seconds, span_total] :
       {std::pair{t.vra_seconds, spans({"sweep.vra"})},
        std::pair{t.allocation_seconds,
                  spans({"sweep.allocate", "ilp.build_structure"})},
        std::pair{t.model_build_seconds,
                  spans({"ilp.build_model", "ilp.build_structure"})},
        std::pair{t.solve_seconds, spans({"ilp.solve", "greedy.scan"})},
        std::pair{t.interp_compile_seconds, spans({"vm.compile"})},
        std::pair{t.interp_execute_seconds,
                  spans({"vm.execute", "ref.execute"})},
        std::pair{t.total_seconds,
                  spans({"sweep.vra", "sweep.allocate", "ilp.build_structure"})},
        std::pair{r.stats.wall_seconds, spans({"sweep.run"})}}) {
    EXPECT_GT(seconds, 0.0);
    EXPECT_NEAR(seconds, span_total, 1e-9);
  }
  // A sweep runs no pipeline and no separate profiling run.
  EXPECT_EQ(spans.count("pipeline.tune"), 0);
  EXPECT_EQ(spans.count("polybench.profile"), 0);
  EXPECT_NEAR(execute_hist.snapshot().sum - hist_before,
              spans({"vm.execute"}), 1e-9);
}

// Every ILP solve of the default grid (30 kernels x Stm32, Raspberry,
// Intel, AMD x Precise, Balanced, Fast; merged model, 3000 nodes) carries
// a certificate the independent checker accepts, and solves to the
// sweep's objective bit for bit. Each kernel is prepared like the
// standalone pipeline above: built, printed, re-parsed, range-analyzed;
// each job prices its structure and solves it with a certificate.
TEST(Sweep, EveryGridSolveCertifies) {
  SweepOptions grid;
  grid.include_taffo = false;
  grid.check_determinism = false;
  const SweepResult swept = run_sweep(grid);
  std::map<std::string, std::uint64_t> sweep_bits; // by kernel/config/platform
  for (const SweepJobResult& job : swept.jobs)
    sweep_bits[job.kernel + "/" + job.config + "/" + job.platform] =
        std::bit_cast<std::uint64_t>(job.stats.objective);

  std::size_t certified = 0, max_rows = 0;
  long max_nodes = 0;
  for (const std::string& kernel : polybench::kernel_names()) {
    ir::Module built_module;
    const polybench::BuiltKernel built =
        polybench::build_kernel(kernel, built_module);
    ir::Module module;
    const ir::ParseResult parsed =
        ir::parse_function(module, ir::print_function(*built.function));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const vra::RangeMap ranges = vra::analyze_ranges(*parsed.function);
    for (const char* config_name : {"Precise", "Balanced", "Fast"}) {
      TuningConfig config = *preset_by_name(config_name);
      config.solver.max_nodes = grid.solver_max_nodes;
      const IlpStructure structure =
          build_ilp_structure(*parsed.function, ranges, config);
      for (const char* platform : {"Stm32", "Raspberry", "Intel", "AMD"}) {
        const std::string cell = kernel + "/" + config_name + "/" + platform;
        SCOPED_TRACE(cell);
        const ilp::Objective objective = price_objective(
            structure, *platform::platform_by_name(platform), config);
        ilp::Certificate certificate;
        const ilp::Solution s = ilp::solve_milp(structure.model, objective,
                                                config.solver, &certificate);
        ASSERT_EQ(s.status, ilp::SolveStatus::Optimal);
        const ilp::CertificateCheck check = ilp::check_certificate(
            structure.model, objective, s, certificate, config.solver);
        EXPECT_TRUE(check.ok) << check.error;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.objective),
                  sweep_bits.at(cell));
        max_rows = std::max(max_rows, structure.model.num_constraints());
        max_nodes = std::max(max_nodes, s.nodes);
        ++certified;
      }
    }
  }
  EXPECT_EQ(certified, 360u);
  EXPECT_EQ(sweep_bits.size(), 360u);
  // The grid's size as the solver sees it.
  EXPECT_LE(max_nodes, 7);
  EXPECT_LE(max_rows, 313u);
}

TEST(Sweep, SharedKernelAnalysisMatchesStandaloneTune) {
  // Every ILP job of a kernel prices one shared structure, built on one
  // shared parse and RangeMap; with Multi beside the paper's presets a
  // kernel carries two structures (two candidate sets). Each job must
  // equal the standalone pipeline — tune_kernel on a fresh parse of the
  // kernel's printed IR, without a cache — in its assignment text,
  // objective bits, status and node count, at any thread count, cache on
  // or off.
  struct Standalone {
    std::string assignment_text;
    std::uint64_t objective_bits;
    ilp::SolveStatus status;
    long nodes;
  };
  SweepOptions grid = small_grid();
  grid.configs.push_back("Multi");
  std::map<std::string, Standalone> want; // by kernel/config/platform
  for (const std::string& kernel : grid.kernels) {
    ir::Module built_module;
    const polybench::BuiltKernel built =
        polybench::build_kernel(kernel, built_module);
    const std::string ir_text = ir::print_function(*built.function);
    for (const std::string& config_name : grid.configs)
      for (const std::string& platform : grid.platforms) {
        ir::Module module;
        const ir::ParseResult parsed = ir::parse_function(module, ir_text);
        ASSERT_TRUE(parsed.ok()) << parsed.error;
        TuningConfig config = config_name == "Fast"    ? TuningConfig::fast()
                              : config_name == "Multi" ? TuningConfig::multi()
                                                       : TuningConfig::precise();
        config.solver.max_nodes = grid.solver_max_nodes;
        const PipelineResult tuned = tune_kernel(
            *parsed.function, *platform::platform_by_name(platform), config);
        want[kernel + "/" + config_name + "/" + platform] = {
            assignment_to_text(*parsed.function, tuned.allocation.assignment),
            std::bit_cast<std::uint64_t>(tuned.allocation.stats.objective),
            tuned.allocation.stats.status, tuned.allocation.stats.nodes};
      }
  }

  for (const int threads : {1, 4})
    for (const bool use_cache : {false, true}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, cache "
                                      << (use_cache ? "on" : "off"));
      SweepOptions opt = grid;
      opt.threads = threads;
      opt.use_cache = use_cache;
      const SweepResult r = run_sweep(opt);
      std::size_t checked = 0;
      for (const SweepJobResult& job : r.jobs) {
        if (job.config == "TAFFO") continue;
        const std::string cell =
            job.kernel + "/" + job.config + "/" + job.platform;
        SCOPED_TRACE(cell);
        ASSERT_TRUE(job.ok) << job.error;
        const Standalone& w = want.at(cell);
        EXPECT_EQ(job.assignment_text, w.assignment_text);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(job.stats.objective),
                  w.objective_bits);
        EXPECT_EQ(job.stats.status, w.status);
        EXPECT_EQ(job.stats.nodes, w.nodes);
        ++checked;
      }
      EXPECT_EQ(checked, want.size());
    }
}

TEST(Sweep, ReportsRenderTextAndJson) {
  SweepOptions opt = small_grid();
  opt.kernels = {"trisolv"};
  opt.threads = 2;
  opt.check_determinism = true;
  const SweepResult r = run_sweep(opt);

  const std::string text = sweep_summary_text(r);
  EXPECT_NE(text.find("cache:"), std::string::npos);
  EXPECT_NE(text.find("determinism check: PASS"), std::string::npos);

  const std::string json = sweep_report_json(r);
  EXPECT_NE(json.find("\"hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"determinism_mismatches\":0"), std::string::npos);
  EXPECT_NE(json.find("\"kernel\":\"trisolv\""), std::string::npos);
  EXPECT_NE(json.find("\"stage_totals\""), std::string::npos);
}

TEST(Sweep, CloneFunctionIsExact) {
  // The sweep tunes each kernel on a Function parsed from its printed IR,
  // which rests on the print/parse round trip being exact — including
  // full-precision range annotations, which used to be printed at default
  // (6-digit) precision and silently shifted VRA ranges on re-parse.
  ir::Module m;
  polybench::BuiltKernel kernel = polybench::build_kernel("gemm", m);
  // Force an annotation with a value that does not survive 6-digit
  // rounding.
  for (const auto& arr : kernel.function->arrays()) {
    if (arr->range_annotation()) {
      arr->annotate_range(-1.0000001234567891, 2.7182818284590452);
      break;
    }
  }
  const std::string text = ir::print_function(*kernel.function);
  ir::Module dest;
  const ir::ParseResult clone = ir::parse_function(dest, text);
  ASSERT_TRUE(clone.ok()) << clone.error;
  EXPECT_EQ(text, ir::print_function(*clone.function));
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> counts(kN);
  support::parallel_for(kN, 4, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);

  // Serial path: inline, in order.
  std::vector<std::size_t> order;
  support::parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, CallerClaimsIndicesWithinTheThreadBudget) {
  // The calling thread claims indices beside the workers instead of idling
  // in join: two indices held at a two-party barrier must run on two
  // threads at once, and one of them is the caller.
  std::barrier both(2);
  std::vector<std::thread::id> ran_on(2);
  support::parallel_for(2, 2, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    both.arrive_and_wait();
  });
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_EQ(
      std::count(ran_on.begin(), ran_on.end(), std::this_thread::get_id()), 1);

  // So a call never runs on more than `threads` threads.
  std::mutex m;
  std::set<std::thread::id> ids;
  support::parallel_for(256, 4, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(m);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
}

TEST(ThreadPool, MoreThreadsThanIndicesRunsEachOnce) {
  // Each call spawns and joins its own workers, so repeated calls, an
  // empty range and a thread count above the index count all stay exact:
  // every index runs once and the call returns only after all have run.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}})
    for (int call = 0; call < 3; ++call) {
      std::vector<std::atomic<int>> counts(n);
      support::parallel_for(n, 8, [&](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "n=" << n << " i=" << i;
    }
}

} // namespace
} // namespace luis::core
