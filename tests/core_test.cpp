#include <gtest/gtest.h>

#include <cmath>

#include "core/cast_materializer.hpp"
#include "numrep/iebw.hpp"
#include "core/pipeline.hpp"
#include "core/type_classes.hpp"
#include "ir/kernel_builder.hpp"
#include "ir/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/cost_model.hpp"
#include "span_seconds.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace luis::core {
namespace {

using interp::ArrayStore;
using interp::RunResult;
using interp::TypeAssignment;
using ir::Array;
using ir::IVal;
using ir::KernelBuilder;
using ir::RVal;
using ir::ScalarCell;

/// Small gemm-like kernel: C = C * beta + alpha * A x B over 6x6 matrices.
ir::Function* build_small_gemm(ir::Module& m) {
  KernelBuilder kb(m, "small_gemm");
  const std::int64_t n = 6;
  Array* A = kb.array("A", {n, n}, -1.0, 1.0);
  Array* B = kb.array("B", {n, n}, -1.0, 1.0);
  Array* C = kb.array("C", {n, n}, -10.0, 10.0);
  RVal alpha = kb.real(1.5);
  RVal beta = kb.real(1.2);
  kb.for_loop("i", 0, n, [&](IVal i) {
    kb.for_loop("j", 0, n, [&](IVal j) {
      kb.store(kb.load(C, {i, j}) * beta, C, {i, j});
      kb.for_loop("k", 0, n, [&](IVal k) {
        RVal t = alpha * kb.load(A, {i, k}) * kb.load(B, {k, j});
        kb.store(kb.load(C, {i, j}) + t, C, {i, j});
      });
    });
  });
  return kb.finish();
}

void fill_inputs(ArrayStore& store, std::uint64_t seed) {
  Rng rng(seed);
  store["A"].resize(36);
  store["B"].resize(36);
  store["C"].resize(36);
  for (int i = 0; i < 36; ++i) {
    store["A"][static_cast<std::size_t>(i)] = rng.next_double(-1, 1);
    store["B"][static_cast<std::size_t>(i)] = rng.next_double(-1, 1);
    store["C"][static_cast<std::size_t>(i)] = rng.next_double(-2, 2);
  }
}

TEST(TypeClasses, LoadsMergeWithArraysAndStoresDoNot) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  const TypeClasses classes = compute_type_classes(*f);

  // All arithmetic chains load from A, B, C, so A/B/C and the whole
  // multiply-accumulate merge into one class.
  const int ca = classes.class_of.at(f->array_by_name("A"));
  const int cb = classes.class_of.at(f->array_by_name("B"));
  const int cc = classes.class_of.at(f->array_by_name("C"));
  EXPECT_EQ(ca, cb);
  EXPECT_EQ(ca, cc);
  EXPECT_GE(classes.num_classes(), 1);
  EXPECT_FALSE(classes.uses.empty());
}

TEST(TypeClasses, StoreSeparatesProducerFromConsumerArray) {
  ir::Module m;
  KernelBuilder kb(m, "sep");
  Array* A = kb.array("A", {4}, 0.0, 1.0);
  Array* B = kb.array("B", {4}, 0.0, 2.0);
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.store(kb.load(A, {i}) + kb.load(A, {i}), B, {i});
  });
  ir::Function* f = kb.finish();
  const TypeClasses classes = compute_type_classes(*f);
  EXPECT_NE(classes.class_of.at(f->array_by_name("A")),
            classes.class_of.at(f->array_by_name("B")));
}

TEST(IlpAllocator, PreciseConfigChoosesBinary64) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const AllocationResult r = allocate_ilp(*f, ranges, platform::stm32_table(),
                                          TuningConfig::precise());
  ASSERT_EQ(r.stats.status, ilp::SolveStatus::Optimal);
  // binary64 maximizes IEBW everywhere; W2 >> W1 makes it win.
  for (const auto& bb : f->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->is_tunable_arithmetic()) {
        EXPECT_EQ(r.assignment.of(inst.get()).format, numrep::kBinary64);
      }
  EXPECT_EQ(r.stats.instruction_mix.count("double"), 1u);
}

TEST(IlpAllocator, FastConfigOnStm32ChoosesFixedPoint) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const AllocationResult r =
      allocate_ilp(*f, ranges, platform::stm32_table(), TuningConfig::fast());
  ASSERT_TRUE(r.stats.status == ilp::SolveStatus::Optimal ||
              r.stats.status == ilp::SolveStatus::NodeLimit);
  // Stm32 has no FPU: with W1 >> W2 fixed point dominates.
  int fixed = 0, total = 0;
  for (const auto& bb : f->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->is_tunable_arithmetic()) {
        ++total;
        if (r.assignment.of(inst.get()).format.is_fixed()) ++fixed;
      }
  EXPECT_EQ(fixed, total);
}

TEST(IlpAllocator, FracBitsRespectFixMax) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const AllocationResult r =
      allocate_ilp(*f, ranges, platform::stm32_table(), TuningConfig::fast());
  for (const auto& [value, type] : r.assignment.entries()) {
    if (!type.format.is_fixed()) continue;
    const vra::Interval range = ranges.of(value);
    const int fixmax = numrep::fixed_point_max_frac(
        type.format.width(), type.format.is_signed(), range.lo, range.hi);
    EXPECT_LE(type.frac_bits, fixmax);
    EXPECT_GE(type.frac_bits, 0);
  }
}

TEST(IlpAllocator, ModelStatsArePopulated) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const AllocationResult r = allocate_ilp(*f, ranges, platform::intel_table(),
                                          TuningConfig::balanced());
  EXPECT_GT(r.stats.num_registers, 10);
  EXPECT_GT(r.stats.num_uses, 10);
  EXPECT_GT(r.stats.model_variables, 4u);
  EXPECT_GT(r.stats.model_constraints, 2u);
  EXPECT_GE(r.stats.num_classes, 1);
  int mix_total = 0;
  for (const auto& [cls, count] : r.stats.instruction_mix) mix_total += count;
  // Every tunable arithmetic instruction appears in the mix.
  int arith = 0;
  for (const auto& bb : f->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->is_tunable_arithmetic()) ++arith;
  EXPECT_EQ(mix_total, arith);
}

TEST(IlpAllocator, HugeRangesExcludeNarrowFixed) {
  ir::Module m;
  KernelBuilder kb(m, "wide");
  Array* A = kb.array("A", {4}, -1e12, 1e12);
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.store(kb.load(A, {i}) + kb.real(1.0), A, {i});
  });
  ir::Function* f = kb.finish();
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const AllocationResult r =
      allocate_ilp(*f, ranges, platform::stm32_table(), TuningConfig::fast());
  // 2^31 scaled by any nonnegative frac cannot reach 1e12: fixed point is
  // infeasible, so even the Fast preset must pick a float.
  for (const auto& bb : f->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->is_tunable_arithmetic()) {
        EXPECT_TRUE(r.assignment.of(inst.get()).format.is_float());
      }
}

TEST(GreedyAllocator, PrivilegesFixedPoint) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const AllocationResult r = allocate_greedy(*f, ranges, TuningConfig());
  for (const auto& bb : f->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->is_tunable_arithmetic()) {
        EXPECT_TRUE(r.assignment.of(inst.get()).format.is_fixed());
      }
}

TEST(GreedyAllocator, FallsBackToDoubleOnHugeRanges) {
  ir::Module m;
  KernelBuilder kb(m, "wide");
  Array* A = kb.array("A", {4}, -1e12, 1e12);
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.store(kb.load(A, {i}) + kb.real(1.0), A, {i});
  });
  ir::Function* f = kb.finish();
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const AllocationResult r = allocate_greedy(*f, ranges, TuningConfig());
  EXPECT_EQ(r.assignment.of(f->array_by_name("A")).format, numrep::kBinary64);
}

TEST(EndToEnd, PreciseHasZeroErrorAndFastIsFasterOnStm32) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);

  ArrayStore reference;
  fill_inputs(reference, 7);
  TypeAssignment baseline; // all binary64
  const RunResult base = run_function(*f, baseline, reference);
  ASSERT_TRUE(base.ok) << base.error;
  const double base_time =
      platform::simulated_time(base.counters, platform::stm32_table());

  const vra::RangeMap ranges = vra::analyze_ranges(*f);

  // Precise: identical outputs.
  {
    const AllocationResult r = allocate_ilp(*f, ranges, platform::stm32_table(),
                                            TuningConfig::precise());
    ArrayStore tuned;
    fill_inputs(tuned, 7);
    const RunResult run = run_function(*f, r.assignment, tuned);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_DOUBLE_EQ(
        mean_percentage_error(reference.at("C"), tuned.at("C")), 0.0);
  }

  // Fast: strictly faster simulated time on the FPU-less machine, small
  // but nonzero error allowed.
  {
    const AllocationResult r = allocate_ilp(*f, ranges, platform::stm32_table(),
                                            TuningConfig::fast());
    ArrayStore tuned;
    fill_inputs(tuned, 7);
    const RunResult run = run_function(*f, r.assignment, tuned);
    ASSERT_TRUE(run.ok) << run.error;
    const double tuned_time =
        platform::simulated_time(run.counters, platform::stm32_table());
    EXPECT_LT(tuned_time, base_time);
    EXPECT_LT(mean_percentage_error(reference.at("C"), tuned.at("C")), 1.0);
  }
}

TEST(EndToEnd, IlpAvoidsFixedPointOnIntel) {
  // The Intel table makes float adds cheaper than fixed ones; the Fast
  // preset should not blanket-convert to fixed point the way greedy does.
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  const vra::RangeMap ranges = vra::analyze_ranges(*f);

  const AllocationResult ilp_r =
      allocate_ilp(*f, ranges, platform::intel_table(), TuningConfig::fast());
  const AllocationResult greedy_r = allocate_greedy(*f, ranges, TuningConfig());

  ArrayStore s1, s2;
  fill_inputs(s1, 3);
  fill_inputs(s2, 3);
  const RunResult run_ilp = run_function(*f, ilp_r.assignment, s1);
  const RunResult run_greedy = run_function(*f, greedy_r.assignment, s2);
  ASSERT_TRUE(run_ilp.ok && run_greedy.ok);
  const double t_ilp =
      platform::simulated_time(run_ilp.counters, platform::intel_table());
  const double t_greedy =
      platform::simulated_time(run_greedy.counters, platform::intel_table());
  EXPECT_LE(t_ilp, t_greedy * 1.001);
}

TEST(CastMaterializer, InsertsCastsAtBoundariesAndPreservesSemantics) {
  ir::Module m1, m2;
  ir::Function* f1 = build_small_gemm(m1);
  ir::Function* f2 = build_small_gemm(m2);

  const vra::RangeMap ranges = vra::analyze_ranges(*f1);
  // Force a boundary: arrays fixed, arithmetic double.
  TypeAssignment mixed;
  for (const auto& arr : f1->arrays())
    mixed.set(arr.get(), numrep::ConcreteType{numrep::kFixed32, 16});
  (void)ranges;

  // Run without materialization.
  ArrayStore before;
  fill_inputs(before, 11);
  const RunResult r1 = run_function(*f1, mixed, before);
  ASSERT_TRUE(r1.ok) << r1.error;

  // Same assignment on the twin function, casts materialized.
  TypeAssignment mixed2;
  for (const auto& arr : f2->arrays())
    mixed2.set(arr.get(), numrep::ConcreteType{numrep::kFixed32, 16});
  const int boundaries = count_type_boundaries(*f2, mixed2);
  const int inserted = materialize_casts(*f2, mixed2);
  EXPECT_EQ(boundaries, inserted);
  EXPECT_GT(inserted, 0);
  EXPECT_TRUE(ir::verify(*f2).ok()) << ir::verify(*f2).message();

  ArrayStore after;
  fill_inputs(after, 11);
  const RunResult r2 = run_function(*f2, mixed2, after);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(before.at("C"), after.at("C"));
}

TEST(CastMaterializer, MaterializationIsIdempotent) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  TypeAssignment mixed;
  for (const auto& arr : f->arrays())
    mixed.set(arr.get(), numrep::ConcreteType{numrep::kFixed32, 16});
  const int first = materialize_casts(*f, mixed);
  EXPECT_GT(first, 0);
  // Every boundary now carries a cast in the consumer's type: a second
  // sweep must find nothing left to fix.
  EXPECT_EQ(count_type_boundaries(*f, mixed), 0);
  EXPECT_EQ(materialize_casts(*f, mixed), 0);
  EXPECT_TRUE(ir::verify(*f).ok()) << ir::verify(*f).message();
}

TEST(CastMaterializer, CountMatchesInsertionOnAllocatorOutput) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  AllocationResult r = allocate_ilp(*f, ranges, platform::stm32_table(),
                                    TuningConfig::balanced());
  const int counted = count_type_boundaries(*f, r.assignment);
  const int inserted = materialize_casts(*f, r.assignment);
  EXPECT_EQ(counted, inserted);
  // The counting pass is pure: it must not have mutated the function.
  EXPECT_EQ(materialize_casts(*f, r.assignment), 0);
}

TEST(CastMaterializer, NoBoundariesNoCasts) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  TypeAssignment uniform = TypeAssignment::uniform(
      *f, numrep::ConcreteType{numrep::kBinary32, 0});
  EXPECT_EQ(count_type_boundaries(*f, uniform), 0);
  EXPECT_EQ(materialize_casts(*f, uniform), 0);
}

TEST(Pipeline, ReportsStageTimings) {
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  PipelineOptions opt;
  const PipelineResult r =
      tune_kernel(*f, platform::stm32_table(), TuningConfig::balanced(), opt);
  EXPECT_GE(r.timings.vra_seconds, 0.0);
  EXPECT_GT(r.timings.allocation_seconds, 0.0);
  EXPECT_GE(r.timings.total_seconds, r.timings.allocation_seconds);
  EXPECT_GT(r.ranges.size(), 0u);
  // The build/solve split is contained in the allocation stage.
  EXPECT_GE(r.timings.model_build_seconds, 0.0);
  EXPECT_GT(r.timings.solve_seconds, 0.0);
  EXPECT_LE(r.timings.model_build_seconds + r.timings.solve_seconds,
            r.timings.allocation_seconds + 1e-9);
}

TEST(Pipeline, StageSecondsSumToAtMostTotal) {
  // Every stage enabled: the stages are measured disjointly, so their sum
  // must not exceed the whole call. Before the timing fix, vra_seconds
  // started at t0 and silently included the IR-pass time, so the sum
  // could exceed total_seconds.
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  PipelineOptions opt;
  opt.optimize_ir = true;
  opt.materialize_casts = true;
  opt.lint = LintMode::Warn;
  const PipelineResult r =
      tune_kernel(*f, platform::stm32_table(), TuningConfig::balanced(), opt);
  EXPECT_GE(r.timings.ir_seconds, 0.0);
  EXPECT_GE(r.timings.vra_seconds, 0.0);
  EXPECT_GE(r.timings.materialize_seconds, 0.0);
  EXPECT_GE(r.timings.lint_seconds, 0.0);
  EXPECT_LE(r.timings.stage_sum(), r.timings.total_seconds + 1e-9);
}

TEST(Pipeline, StageTimingsAreTheirSpans) {
  // One timing mechanism: every stage field is the interval of the span
  // that bracketed the stage, from the same two clock reads, and the
  // tune-time histogram observes the same total.
  ir::Module m;
  ir::Function* f = build_small_gemm(m);
  PipelineOptions opt;
  opt.optimize_ir = true;
  opt.materialize_casts = true;
  opt.analyze_errors = true;
  opt.lint = LintMode::Warn;
  obs::Histogram& tune_hist = obs::metrics().histogram("pipeline.tune_seconds");
  const double hist_before = tune_hist.snapshot().sum;
  obs::trace().start();
  const PipelineResult r =
      tune_kernel(*f, platform::stm32_table(), TuningConfig::balanced(), opt);
  obs::trace().stop();
  const test::SpanSeconds spans(obs::trace().snapshot());
  obs::trace().clear();

  const StageTimings& t = r.timings;
  for (const auto& [seconds, name] :
       {std::pair{t.ir_seconds, "pipeline.ir_passes"},
        std::pair{t.vra_seconds, "pipeline.vra"},
        std::pair{t.allocation_seconds, "pipeline.allocate"},
        std::pair{t.model_build_seconds, "ilp.build_model"},
        std::pair{t.solve_seconds, "ilp.solve"},
        std::pair{t.materialize_seconds, "pipeline.materialize_casts"},
        std::pair{t.error_seconds, "analysis.error_bounds"},
        std::pair{t.lint_seconds, "pipeline.lint"},
        std::pair{t.total_seconds, "pipeline.tune"}}) {
    EXPECT_EQ(spans.count(name), 1) << name;
    EXPECT_GT(seconds, 0.0) << name;
    EXPECT_NEAR(seconds, spans({name}), 1e-9) << name;
  }
  EXPECT_NEAR(tune_hist.snapshot().sum - hist_before, t.total_seconds, 1e-9);
}

TEST(Pipeline, GreedyIsCheaperToRunThanIlp) {
  ir::Module m1, m2;
  ir::Function* f1 = build_small_gemm(m1);
  ir::Function* f2 = build_small_gemm(m2);
  PipelineOptions ilp_opt;
  PipelineOptions greedy_opt;
  greedy_opt.allocator = AllocatorKind::Greedy;
  const PipelineResult ri =
      tune_kernel(*f1, platform::stm32_table(), TuningConfig::balanced(), ilp_opt);
  const PipelineResult rg =
      tune_kernel(*f2, platform::stm32_table(), TuningConfig::balanced(),
                  greedy_opt);
  // The ILP step dominates compilation overhead (Section V-B).
  EXPECT_GT(ri.timings.allocation_seconds, rg.timings.allocation_seconds);
}

TEST(Config, TableThreePresets) {
  EXPECT_EQ(TuningConfig::fast().w1, 1000.0);
  EXPECT_EQ(TuningConfig::fast().w2, 1.0);
  EXPECT_EQ(TuningConfig::balanced().w1, 50.0);
  EXPECT_EQ(TuningConfig::balanced().w2, 50.0);
  EXPECT_EQ(TuningConfig::precise().w1, 1.0);
  EXPECT_EQ(TuningConfig::precise().w2, 1000.0);
}

} // namespace
} // namespace luis::core
