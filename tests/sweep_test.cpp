#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "polybench/polybench.hpp"
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
  // objectives, bit for bit. Serial with the cache is the only setup where
  // the basis pool runs, so simplex iteration counts are the one field
  // allowed to differ.
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
      EXPECT_EQ(ja.speedup_percent, jb.speedup_percent);
      EXPECT_EQ(ja.mpe, jb.mpe);
    }
  }
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

TEST(Sweep, BatchedExecutionMatchesScalarBitIdentical) {
  // Batching only changes how tuned assignments are interpreted (lanes of
  // one run_batch per kernel vs one scalar run per job); every reported
  // metric must be bit-identical, and the batch stats must account for
  // every ILP job.
  SweepOptions batched = small_grid();
  batched.threads = 2;
  const SweepResult a = run_sweep(batched);

  SweepOptions scalar = small_grid();
  scalar.threads = 2;
  scalar.batch = false;
  const SweepResult b = run_sweep(scalar);

  const long ilp_jobs =
      static_cast<long>(batched.kernels.size() * batched.configs.size() *
                        batched.platforms.size());
  EXPECT_EQ(a.stats.batch_runs, static_cast<long>(batched.kernels.size()));
  EXPECT_EQ(a.stats.batch_lanes, ilp_jobs);
  EXPECT_GT(a.stats.batch_unique_lanes, 0);
  EXPECT_LE(a.stats.batch_unique_lanes, a.stats.batch_lanes);
  EXPECT_EQ(b.stats.batch_runs, 0);
  EXPECT_EQ(b.stats.batch_lanes, 0);

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const SweepJobResult& ja = a.jobs[i];
    const SweepJobResult& jb = b.jobs[i];
    ASSERT_EQ(ja.kernel, jb.kernel);
    ASSERT_EQ(ja.config, jb.config);
    ASSERT_EQ(ja.platform, jb.platform);
    EXPECT_TRUE(ja.ok) << ja.error;
    EXPECT_TRUE(jb.ok) << jb.error;
    EXPECT_EQ(ja.assignment_text, jb.assignment_text);
    EXPECT_EQ(ja.speedup_percent, jb.speedup_percent)
        << ja.kernel << "/" << ja.config << "/" << ja.platform;
    EXPECT_EQ(ja.mpe, jb.mpe)
        << ja.kernel << "/" << ja.config << "/" << ja.platform;
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
  opt.include_taffo = false;
  const SweepResult r = run_sweep(opt);
  StageTimings sum;
  for (const SweepJobResult& job : r.jobs) {
    EXPECT_LE(job.timings.stage_sum(), job.timings.total_seconds + 1e-9);
    sum += job.timings;
  }
  EXPECT_DOUBLE_EQ(r.stats.stage_totals.allocation_seconds,
                   sum.allocation_seconds);
  EXPECT_GT(r.stats.stage_totals.solve_seconds, 0.0);
  EXPECT_GT(r.stats.solver_iterations, 0);
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
  // Per-job isolation rests on clones being exact — including
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
  ir::Module dest;
  ir::Function* clone = ir::clone_function(*kernel.function, dest);
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(ir::print_function(*kernel.function), ir::print_function(*clone));
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

TEST(ThreadPool, WaitIdleDrainsQueue) {
  support::ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
  // The pool stays usable after an idle wait.
  pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 101);
}

} // namespace
} // namespace luis::core
