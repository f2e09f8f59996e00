#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "analysis/error_bounds.hpp"
#include "analysis/lint.hpp"
#include "core/pipeline.hpp"
#include "interp/engine.hpp"
#include "ir/kernel_builder.hpp"
#include "ir/parser.hpp"
#include "numrep/quantize.hpp"
#include "polybench/polybench.hpp"
#include "support/rng.hpp"
#include "vra/range_analysis.hpp"

namespace luis::analysis {
namespace {

using interp::TypeAssignment;
using ir::Array;
using ir::Instruction;
using ir::IVal;
using ir::KernelBuilder;
using ir::Opcode;
using ir::RVal;
using ir::ScalarType;
using numrep::ConcreteType;

constexpr ConcreteType kF64{numrep::kBinary64, 0};
constexpr ConcreteType kF32{numrep::kBinary32, 0};
constexpr ConcreteType kBf16{numrep::kBfloat16, 0};

/// Covers every Real register (arrays + Real instructions) except `skip`.
TypeAssignment assign_all_except(const ir::Function& f, ConcreteType type,
                                 const ir::Value* skip = nullptr) {
  TypeAssignment out;
  for (const auto& arr : f.arrays())
    if (arr.get() != skip) out.set(arr.get(), type);
  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      if (inst->type() == ScalarType::Real && inst.get() != skip)
        out.set(inst.get(), type);
  return out;
}

/// First Real-typed instruction with `op` (skips integer index arithmetic).
const Instruction* find_real_inst(const ir::Function& f, Opcode op) {
  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      if (inst->opcode() == op && inst->type() == ScalarType::Real)
        return inst.get();
  return nullptr;
}

/// C[i] = A[i] + B[i] over 8 elements annotated [0, 1].
ir::Function* build_add(ir::Module& m) {
  KernelBuilder kb(m, "add");
  Array* A = kb.array("A", {8}, 0.0, 1.0);
  Array* B = kb.array("B", {8}, 0.0, 1.0);
  Array* C = kb.array("C", {8}, 0.0, 2.0);
  kb.for_loop("i", 0, 8, [&](IVal i) {
    kb.store(kb.load(A, {i}) + kb.load(B, {i}), C, {i});
  });
  return kb.finish();
}

ErrorAnalysisResult analyze(const ir::Function& f,
                            const TypeAssignment& assignment) {
  return analyze_errors(f, assignment, vra::analyze_ranges(f));
}

// ---------------------------------------------------------------------------
// quantization_bound: the per-read rounding model everything else builds on.
// ---------------------------------------------------------------------------

// Regression for a real soundness bug the fuzz oracle found: 2^-IEBW is
// already the *half-ulp* for float formats (Definition-1 eps), but the
// lattice *step* for fixed point and posits. Halving uniformly certified
// every float read at half its true worst-case rounding error.
TEST(QuantizationBound, FloatHalfUlpIsNotHalvedAgain) {
  // binary32 on [1, 2): ulp 2^-23, worst round-to-nearest error 2^-24.
  EXPECT_GE(quantization_bound(kF32, 1.9), 0x1p-24);
  EXPECT_LE(quantization_bound(kF32, 1.9), 0x1p-22);
  // bfloat16 on [8, 16): ulp 2^-4, worst error 2^-5. The buggy bound was
  // 2^-6 and real quantized runs exceeded it.
  EXPECT_GE(quantization_bound(kBf16, 10.0), 0x1p-5);
  EXPECT_LE(quantization_bound(kBf16, 10.0), 0x1p-3);
}

TEST(QuantizationBound, CoversSampledWorstCaseAcrossFormats) {
  const std::vector<ConcreteType> formats = {
      kBf16,
      {numrep::kBinary16, 0},
      kF32,
      {numrep::kPosit8, 0},
      {numrep::kPosit16, 0},
      {numrep::kPosit32, 0},
      {numrep::kFixed16, 8},
      {numrep::kFixed32, 20},
  };
  Rng rng(0xE44);
  for (const ConcreteType& t : formats) {
    for (const double m : {0.75, 1.0, 7.5, 100.0}) {
      const double bound = quantization_bound(t, m);
      ASSERT_TRUE(std::isfinite(bound)) << t.name() << " m=" << m;
      double worst = 0.0;
      for (int s = 0; s < 4000; ++s) {
        const double x = rng.next_double(-m, m);
        worst = std::max(worst, std::abs(numrep::quantize(t, x) - x));
      }
      // Endpoints stress saturation for narrow formats.
      worst = std::max(worst, std::abs(numrep::quantize(t, m) - m));
      worst = std::max(worst, std::abs(numrep::quantize(t, -m) + m));
      EXPECT_LE(worst, bound) << t.name() << " m=" << m;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-level certificates.
// ---------------------------------------------------------------------------

TEST(ErrorBounds, Binary64AddIsNearExact) {
  ir::Module m;
  ir::Function* f = build_add(m);
  const ErrorAnalysisResult r = analyze(*f, assign_all_except(*f, kF64));
  const ir::Value* C = f->arrays().back().get();
  EXPECT_TRUE(r.stats.converged);
  EXPECT_GT(r.errors.of(C), 0.0);
  EXPECT_LT(r.errors.of(C), 1e-12);
  EXPECT_FALSE(r.divergent_control);
  EXPECT_EQ(r.capped_bounds, 0);
  EXPECT_FALSE(r.assumes_finite_run);
}

TEST(ErrorBounds, CoarserFormatsCertifyLargerErrors) {
  ir::Module m;
  ir::Function* f = build_add(m);
  const double e64 =
      analyze(*f, assign_all_except(*f, kF64)).errors.of(f->arrays()[2].get());
  const double e32 =
      analyze(*f, assign_all_except(*f, kF32)).errors.of(f->arrays()[2].get());
  const double e16 =
      analyze(*f, assign_all_except(*f, kBf16)).errors.of(f->arrays()[2].get());
  EXPECT_LT(e64, e32);
  EXPECT_LT(e32, e16);
  EXPECT_TRUE(std::isfinite(e16));
}

// The oracle the fuzz target automates, pinned on one deterministic case:
// a measured quantized-vs-reference deviation never exceeds the certified
// bound (reference run certified under binary64 and added to the budget).
TEST(ErrorBounds, MeasuredDeviationStaysWithinCertified) {
  ir::Module m;
  ir::Function* f = build_add(m);
  interp::ArrayStore store;
  Rng rng(0x5EED);
  for (const char* name : {"A", "B"}) {
    std::vector<double> buf(8);
    for (double& v : buf) v = rng.next_double(0.0, 1.0);
    store[name] = buf;
  }
  store["C"] = std::vector<double>(8, 0.0);

  const auto engine = interp::make_engine(interp::EngineKind::Reference);
  interp::ArrayStore reference = store;
  ASSERT_TRUE(engine->run(*f, TypeAssignment(), reference).ok);
  const TypeAssignment coarse = assign_all_except(*f, kBf16);
  interp::ArrayStore quantized = store;
  ASSERT_TRUE(engine->run(*f, coarse, quantized).ok);

  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const ir::Value* C = f->arrays()[2].get();
  const double budget =
      analyze_errors(*f, coarse, ranges).errors.of(C) +
      analyze_errors(*f, TypeAssignment(), ranges).errors.of(C);
  ASSERT_TRUE(std::isfinite(budget));
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_LE(std::abs(quantized["C"][i] - reference["C"][i]), budget) << i;
}

TEST(ErrorBounds, AccumulatorLoopConvergesFinite) {
  ir::Module m;
  KernelBuilder kb(m, "acc");
  Array* A = kb.array("A", {16}, 0.0, 1.0);
  Array* S = kb.array("S", {1}, 0.0, 16.0);
  kb.for_loop("i", 0, 16, [&](IVal i) {
    kb.store(kb.load(S, {kb.idx(0)}) + kb.load(A, {i}), S, {kb.idx(0)});
  });
  ir::Function* f = kb.finish();

  const ErrorAnalysisResult r = analyze(*f, assign_all_except(*f, kF32));
  EXPECT_TRUE(r.stats.converged);
  const double e = r.errors.of(S);
  EXPECT_GT(e, 0.0);
  EXPECT_TRUE(std::isfinite(e));
  EXPECT_LT(e, 1e-3); // 16 binary32 adds of O(1) values
}

// A CondBr on an FCmp lets the quantized and exact runs take different
// paths; stores must charge the representation cap. Fixed point saturates
// in hardware (unconditional cap); a float cap carries the finite-run side
// condition.
TEST(ErrorBounds, DivergentControlChargesRepresentationCap) {
  ir::Module m;
  KernelBuilder kb(m, "div");
  Array* A = kb.array("A", {8}, 0.0, 1.0);
  Array* B = kb.array("B", {8}, 0.0, 2.0);
  kb.for_loop("i", 0, 8, [&](IVal i) {
    RVal x = kb.load(A, {i});
    kb.if_then(x < kb.real(0.5), [&] { kb.store(x + x, B, {i}); });
  });
  ir::Function* f = kb.finish();

  const ErrorAnalysisResult fixed =
      analyze(*f, assign_all_except(*f, {numrep::kFixed16, 8}));
  EXPECT_TRUE(fixed.divergent_control);
  EXPECT_GT(fixed.capped_bounds, 0);
  EXPECT_FALSE(fixed.assumes_finite_run);
  const double ef = fixed.errors.of(B);
  EXPECT_TRUE(std::isfinite(ef));
  EXPECT_GT(ef, 1.0); // the cap, not a propagated bound

  const ErrorAnalysisResult flt = analyze(*f, assign_all_except(*f, kF32));
  EXPECT_TRUE(flt.divergent_control);
  EXPECT_GT(flt.capped_bounds, 0);
  EXPECT_TRUE(flt.assumes_finite_run);
  EXPECT_TRUE(std::isfinite(flt.errors.of(B)));
}

// C = A * B in fix32.20: a sound bound covers each operand's storage
// error scaled by the co-operand's magnitude, plus the product's rounding.
TEST(ErrorBounds, MulScalesOperandErrorsByCoOperand) {
  ir::Module m;
  KernelBuilder kb(m, "mul1");
  Array* A = kb.array("A", {1}, 0.0, 2.0);
  Array* B = kb.array("B", {1}, 0.0, 3.0);
  Array* C = kb.array("C", {1}, 0.0, 6.0);
  kb.store(kb.load(A, {kb.idx(0)}) * kb.load(B, {kb.idx(0)}), C, {kb.idx(0)});
  ir::Function* f = kb.finish();

  const ErrorAnalysisResult r =
      analyze(*f, assign_all_except(*f, {numrep::kFixed32, 20}));
  EXPECT_TRUE(r.stats.converged);
  const double half_step = std::ldexp(1.0, -21);
  // maxA * err(B) + maxB * err(A) + the product's own rounding.
  EXPECT_GE(r.errors.of(C), 2.0 * half_step + 3.0 * half_step + half_step);
  EXPECT_TRUE(std::isfinite(r.errors.of(C)));
}

// A divisor whose range straddles zero bounds nothing: the quotient
// register is unbounded, and the saturating fixed point store falls back
// to its representation cap.
TEST(ErrorBounds, DivisionByZeroStraddlingRangeIsUnbounded) {
  ir::Module m;
  KernelBuilder kb(m, "div0");
  Array* A = kb.array("A", {1}, -1.0, 1.0);
  Array* B = kb.array("B", {1}, 1.0, 2.0);
  kb.store(kb.load(B, {kb.idx(0)}) / kb.load(A, {kb.idx(0)}), B, {kb.idx(0)});
  ir::Function* f = kb.finish();

  const ErrorAnalysisResult r =
      analyze(*f, assign_all_except(*f, {numrep::kFixed32, 16}));
  EXPECT_FALSE(std::isfinite(r.errors.of(find_real_inst(*f, Opcode::Div))));
  EXPECT_GT(r.capped_bounds, 0);
  EXPECT_TRUE(std::isfinite(r.errors.of(B)));
}

TEST(ErrorBounds, RelativeNormalizesByRangeScale) {
  ir::Module m;
  ir::Function* f = build_add(m);
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const ErrorAnalysisResult r =
      analyze_errors(*f, assign_all_except(*f, kF32), ranges);
  const ir::Value* C = f->arrays()[2].get();
  const double scale = ranges.of(C).max_magnitude();
  ASSERT_GT(scale, 0.0);
  EXPECT_NEAR(r.relative(C, ranges), r.errors.of(C) / scale, 1e-18);
}

// Soundness on the product path: tune each PolyBench kernel with the Fast
// preset on Stm32, then hold the measured worst absolute output deviation
// of the tuned run from the binary64 run to the composed certificate (the
// tuned bound plus the binary64 run's own bound), on the VRA ranges the
// allocator used. Divergent control charges the representation cap, so
// every kernel is covered, not only those with straightforward data flow.
class ErrorSoundness : public ::testing::TestWithParam<std::string> {};

TEST_P(ErrorSoundness, PredictedBoundCoversMeasuredError) {
  ir::Module m;
  polybench::BuiltKernel kernel = polybench::build_kernel(GetParam(), m);
  const ir::Function& f = *kernel.function;
  const vra::RangeMap ranges = vra::analyze_ranges(f);
  const core::AllocationResult alloc = core::allocate_ilp(
      f, ranges, platform::stm32_table(), core::TuningConfig::fast());

  const TypeAssignment binary64;
  const ErrorAnalysisResult tuned_err =
      analyze_errors(f, alloc.assignment, ranges);
  const ErrorAnalysisResult reference_err = analyze_errors(f, binary64, ranges);

  interp::ArrayStore ref = kernel.inputs;
  ASSERT_TRUE(interp::run_function(f, binary64, ref).ok);
  interp::ArrayStore tuned = kernel.inputs;
  ASSERT_TRUE(interp::run_function(f, alloc.assignment, tuned).ok);

  for (const std::string& out : kernel.outputs) {
    const ir::Array* arr = nullptr;
    for (const auto& a : f.arrays())
      if (a->name() == out) arr = a.get();
    ASSERT_NE(arr, nullptr) << out;
    double measured = 0.0;
    for (std::size_t i = 0; i < ref.at(out).size(); ++i) {
      const double d = std::abs(ref.at(out)[i] - tuned.at(out)[i]);
      measured = std::isnan(d) ? std::numeric_limits<double>::infinity()
                               : std::max(measured, d);
    }
    EXPECT_LE(measured,
              tuned_err.errors.of(arr) + reference_err.errors.of(arr))
        << GetParam() << "/" << out;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, ErrorSoundness,
                         ::testing::ValuesIn(polybench::kernel_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Error-aware lint rules (L008-L011): each fires on a dedicated negative
// case and stays silent without an ErrorMap.
// ---------------------------------------------------------------------------

TEST(LintNegative, L008BudgetExceeded) {
  ir::Module m;
  ir::Function* f = build_add(m);
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const TypeAssignment coarse = assign_all_except(*f, kBf16);
  const ErrorAnalysisResult r = analyze_errors(*f, coarse, ranges);
  LintOptions options;
  options.max_rel_error = 1e-9;
  const DiagnosticEngine engine =
      run_lint(*f, coarse, ranges, options, &r.errors);
  EXPECT_EQ(engine.count_code("L008"), 1);
  // Without the error analysis the rule is skipped, budget or not.
  EXPECT_EQ(run_lint(*f, coarse, ranges, options).count_code("L008"), 0);
  // Within budget under binary64.
  const TypeAssignment fine = assign_all_except(*f, kF64);
  const ErrorAnalysisResult r64 = analyze_errors(*f, fine, ranges);
  EXPECT_EQ(run_lint(*f, fine, ranges, options, &r64.errors).count_code("L008"),
            0);
}

TEST(LintNegative, L009ErrorDominatedOutput) {
  ir::Module m;
  KernelBuilder kb(m, "copy");
  Array* A = kb.array("A", {8}, 0.0, 0.4);
  Array* B = kb.array("B", {8}, 0.0, 0.4);
  kb.for_loop("i", 0, 8, [&](IVal i) { kb.store(kb.load(A, {i}), B, {i}); });
  ir::Function* f = kb.finish();
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  // Zero fractional bits: the quantization step (1.0) dwarfs the [0, 0.4]
  // value scale, so no stored bit is trustworthy.
  const TypeAssignment coarse =
      assign_all_except(*f, ConcreteType{numrep::kFixed16, 0});
  const ErrorAnalysisResult r = analyze_errors(*f, coarse, ranges);
  const DiagnosticEngine engine =
      run_lint(*f, coarse, ranges, LintOptions{}, &r.errors);
  EXPECT_GE(engine.count_code("L009"), 1);
}

TEST(LintNegative, L010CatastrophicCancellation) {
  ir::Module m;
  KernelBuilder kb(m, "cancel");
  const double w = 0x1p-20;
  Array* A = kb.array("A", {8}, 1.0, 1.0 + w);
  Array* B = kb.array("B", {8}, 1.0, 1.0 + w);
  Array* D = kb.array("D", {8}, -w, w);
  kb.for_loop("i", 0, 8, [&](IVal i) {
    kb.store(kb.load(A, {i}) - kb.load(B, {i}), D, {i});
  });
  ir::Function* f = kb.finish();
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const TypeAssignment assignment = assign_all_except(*f, kF32);
  const ErrorAnalysisResult r = analyze_errors(*f, assignment, ranges);
  const DiagnosticEngine engine =
      run_lint(*f, assignment, ranges, LintOptions{}, &r.errors);
  EXPECT_EQ(engine.count_code("L010"), 1);
}

TEST(LintNegative, L011PhiErrorImbalance) {
  // KernelBuilder lowers scalar cells through memory, so the real diamond
  // phi is written as textual IR. The branch is integer-steered (no
  // control divergence); one arm computes in bfloat16, the other in
  // binary64, so the merge phi joins errors > 2^20 apart.
  static const char* kText = R"(func @imbalance {
  array @A[8] range [1.0, 2.0]
  array @B[8] range [0.0, 5.0]
entry:
  br header
header:
  %0 = phi int [ 0, entry ], [ %9, latch ]
  %1 = icmp lt %0, 8
  condbr %1, body, exit
body:
  %2 = load @A[%0]
  %3 = icmp lt %0, 4
  condbr %3, then, else
then:
  %5 = add %2, %2
  br end
else:
  %6 = mul %2, 1.0
  br end
end:
  %7 = phi real [ %5, then ], [ %6, else ]
  store %7, @B[%0]
  br latch
latch:
  %9 = iadd %0, 1
  br header
exit:
  ret
}
)";
  ir::Module m;
  const ir::ParseResult parsed = ir::parse_function(m, kText);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ir::Function* f = parsed.function;

  TypeAssignment assignment = assign_all_except(*f, kF64);
  const Instruction* add = find_real_inst(*f, Opcode::Add);
  ASSERT_NE(add, nullptr);
  assignment.set(add, kBf16);

  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const ErrorAnalysisResult r = analyze_errors(*f, assignment, ranges);
  const DiagnosticEngine engine =
      run_lint(*f, assignment, ranges, LintOptions{}, &r.errors);
  EXPECT_GE(engine.count_code("L011"), 1);
  // Balanced precision on both arms: silent.
  const TypeAssignment uniform = assign_all_except(*f, kF64);
  const ErrorAnalysisResult ru = analyze_errors(*f, uniform, ranges);
  EXPECT_EQ(run_lint(*f, uniform, ranges, LintOptions{}, &ru.errors)
                .count_code("L011"),
            0);
}

} // namespace
} // namespace luis::analysis
