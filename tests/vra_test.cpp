#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ir/kernel_builder.hpp"
#include "support/rng.hpp"
#include "vra/range_analysis.hpp"

namespace luis::vra {
namespace {

using ir::Array;
using ir::IVal;
using ir::KernelBuilder;
using ir::RVal;
using ir::ScalarCell;

TEST(Interval, BasicArithmetic) {
  const Interval a{1.0, 2.0}, b{-3.0, 4.0};
  EXPECT_EQ(iv_add(a, b), (Interval{-2.0, 6.0}));
  EXPECT_EQ(iv_sub(a, b), (Interval{-3.0, 5.0}));
  EXPECT_EQ(iv_mul(a, b), (Interval{-6.0, 8.0}));
  EXPECT_EQ(iv_neg(a), (Interval{-2.0, -1.0}));
  EXPECT_EQ(iv_abs(b), (Interval{0.0, 4.0}));
  EXPECT_EQ(iv_join(a, b), (Interval{-3.0, 4.0}));
}

TEST(Interval, DivisionWidensOnZeroDivisor) {
  const Interval a{1.0, 2.0};
  EXPECT_EQ(iv_div(a, Interval{2.0, 4.0}, 1e9), (Interval{0.25, 1.0}));
  EXPECT_EQ(iv_div(a, Interval{-1.0, 1.0}, 1e9), Interval::top(1e9));
}

TEST(Interval, MonotoneFunctions) {
  EXPECT_EQ(iv_sqrt(Interval{4.0, 9.0}), (Interval{2.0, 3.0}));
  EXPECT_EQ(iv_sqrt(Interval{-4.0, 9.0}).lo, 0.0);
  const Interval e = iv_exp(Interval{0.0, 1.0}, 1e30);
  EXPECT_DOUBLE_EQ(e.lo, 1.0);
  EXPECT_DOUBLE_EQ(e.hi, std::exp(1.0));
}

TEST(Interval, PowCases) {
  // Even constant power over a zero-straddling base.
  EXPECT_EQ(iv_pow(Interval{-2.0, 3.0}, Interval::point(2.0), 1e30),
            (Interval{0.0, 9.0}));
  // Odd power is monotone.
  EXPECT_EQ(iv_pow(Interval{-2.0, 3.0}, Interval::point(3.0), 1e30),
            (Interval{-8.0, 27.0}));
  // Non-constant exponent falls back to top.
  EXPECT_EQ(iv_pow(Interval{1.0, 2.0}, Interval{1.0, 2.0}, 1e30).lo,
            iv_pow(Interval{1.0, 2.0}, Interval{1.0, 2.0}, 1e30).lo);
  // Positive base with fractional exponent stays bounded.
  const Interval p = iv_pow(Interval{1.0, 4.0}, Interval::point(0.5), 1e30);
  EXPECT_DOUBLE_EQ(p.lo, 1.0);
  EXPECT_DOUBLE_EQ(p.hi, 2.0);
}

TEST(Interval, WidenAndClamp) {
  EXPECT_EQ(iv_widen(Interval{0, 1}, Interval{0, 2}, 100), (Interval{0, 100}));
  EXPECT_EQ(iv_widen(Interval{0, 1}, Interval{-1, 1}, 100), (Interval{-100, 1}));
  EXPECT_EQ(iv_widen(Interval{0, 1}, Interval{0, 1}, 100), (Interval{0, 1}));
  EXPECT_EQ(iv_clamp(Interval{-1e40, 1e40}, 1e30), Interval::top(1e30));
}

// A NaN endpoint means "unknown". std::min/max silently drop a NaN argument
// (they return the other one), so a naive join would *shrink* the hull —
// the join must widen to infinity instead and let iv_clamp produce top.
TEST(Interval, JoinIsNaNSafe) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Interval known{-1.0, 2.0};
  for (const Interval poisoned :
       {Interval{nan, 2.0}, Interval{-1.0, nan}, Interval{nan, nan}}) {
    for (const Interval j :
         {iv_join(known, poisoned), iv_join(poisoned, known)}) {
      EXPECT_EQ(j.lo, -inf);
      EXPECT_EQ(j.hi, inf);
    }
  }
  // NaN-free joins still take the exact hull.
  EXPECT_EQ(iv_join(known, Interval{5.0, 6.0}), (Interval{-1.0, 6.0}));
}

TEST(Interval, ClampMapsNaNEndpointsToTop) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(iv_clamp(Interval{nan, nan}, 1e6), Interval::top(1e6));
  EXPECT_EQ(iv_clamp(Interval{nan, 0.5}, 1e6), (Interval{-1e6, 0.5}));
  EXPECT_EQ(iv_clamp(Interval{0.5, nan}, 1e6), (Interval{0.5, 1e6}));
}

TEST(Interval, MulSignGridSurvivesClampSaturation) {
  // All four sign corners of a product that overflows the clamp magnitude
  // must land on top after iv_clamp, whichever corner is extreme.
  const double big = 1e20;
  for (const Interval a : {Interval{big, 2 * big}, Interval{-2 * big, -big},
                           Interval{-big, big}}) {
    for (const Interval b : {Interval{big, 2 * big},
                             Interval{-2 * big, -big}}) {
      const Interval p = iv_clamp(iv_mul(a, b), 1e30);
      EXPECT_GE(p.lo, -1e30);
      EXPECT_LE(p.hi, 1e30);
      EXPECT_TRUE(p.lo == -1e30 || p.hi == 1e30) << p.to_string();
    }
  }
  // Sign grid stays exact when nothing saturates.
  EXPECT_EQ(iv_mul(Interval{-2, 3}, Interval{-5, 4}), (Interval{-15, 12}));
  EXPECT_EQ(iv_mul(Interval{-2, -1}, Interval{-5, -4}), (Interval{4, 10}));
}

TEST(Interval, PointIntervalsThroughJoinAndWiden) {
  const Interval point{2.5, 2.5};
  EXPECT_EQ(iv_join(point, point), point);
  // A stable point never widens; a moved point widens only the moved side.
  EXPECT_EQ(iv_widen(point, point, 100), point);
  EXPECT_EQ(iv_widen(point, Interval{2.5, 3.0}, 100), (Interval{2.5, 100}));
  EXPECT_EQ(iv_widen(point, Interval{2.0, 2.5}, 100), (Interval{-100, 2.5}));
  EXPECT_EQ(iv_mul(point, point), (Interval{6.25, 6.25}));
  EXPECT_EQ(iv_abs(Interval{-2.5, -2.5}), point);
}

TEST(Interval, JoinAndWidenHandleInfiniteEndpoints) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(iv_join(Interval{-inf, 0.0}, Interval{0.0, inf}),
            (Interval{-inf, inf}));
  // Widening an infinite growth direction lands on the bound, and the
  // stable direction is left untouched.
  EXPECT_EQ(iv_widen(Interval{0, 1}, Interval{0, inf}, 100),
            (Interval{0, 100}));
  EXPECT_EQ(iv_widen(Interval{0, 1}, Interval{-inf, inf}, 100),
            (Interval{-100, 100}));
}

// Property: interval arithmetic is sound — f(x, y) lands inside the
// transfer result for sampled x, y.
class IntervalSoundness : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSoundness, SampledOperationsStayInside) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    double a1 = rng.next_double(-10, 10), a2 = rng.next_double(-10, 10);
    double b1 = rng.next_double(-10, 10), b2 = rng.next_double(-10, 10);
    const Interval A{std::min(a1, a2), std::max(a1, a2)};
    const Interval B{std::min(b1, b2), std::max(b1, b2)};
    for (int s = 0; s < 20; ++s) {
      const double x = rng.next_double(A.lo, A.hi);
      const double y = rng.next_double(B.lo, B.hi);
      EXPECT_TRUE(iv_add(A, B).contains(x + y));
      EXPECT_TRUE(iv_sub(A, B).contains(x - y));
      EXPECT_TRUE(iv_mul(A, B).contains(x * y) ||
                  std::abs(x * y - iv_mul(A, B).hi) < 1e-9 ||
                  std::abs(x * y - iv_mul(A, B).lo) < 1e-9);
      if (!B.contains_zero()) {
        const Interval q = iv_div(A, B, 1e30);
        EXPECT_GE(x / y, q.lo - 1e-9);
        EXPECT_LE(x / y, q.hi + 1e-9);
      }
      EXPECT_TRUE(iv_min(A, B).contains(std::min(x, y)));
      EXPECT_TRUE(iv_max(A, B).contains(std::max(x, y)));
      const Interval r = iv_rem(A, B);
      if (y != 0.0) {
        EXPECT_TRUE(r.contains(std::fmod(x, y)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSoundness, ::testing::Values(1, 2, 3));

TEST(RangeAnalysis, PropagatesAnnotationsThroughArithmetic) {
  ir::Module m;
  KernelBuilder kb(m, "prop");
  Array* A = kb.array("A", {4}, -2.0, 3.0);
  Array* B = kb.array("B", {4}, 0.5, 1.0);
  ir::Instruction* sum_inst = nullptr;
  ir::Instruction* prod_inst = nullptr;
  kb.for_loop("i", 0, 4, [&](IVal i) {
    RVal a = kb.load(A, {i});
    RVal b = kb.load(B, {i});
    RVal sum = a + b;
    RVal prod = a * b;
    sum_inst = static_cast<ir::Instruction*>(sum.value);
    prod_inst = static_cast<ir::Instruction*>(prod.value);
    kb.store(sum + prod, A, {i});
  });
  ir::Function* f = kb.finish();
  const RangeMap ranges = analyze_ranges(*f);

  EXPECT_EQ(ranges.of(sum_inst), (Interval{-1.5, 4.0}));
  EXPECT_EQ(ranges.of(prod_inst), (Interval{-2.0, 3.0}));
  // Loads carry the annotation.
  EXPECT_EQ(ranges.of(A), (Interval{-2.0, 3.0}));
}

TEST(RangeAnalysis, ConstantsArePointIntervals) {
  ir::Module m;
  KernelBuilder kb(m, "consts");
  Array* A = kb.array("A", {1}, 0.0, 1.0);
  RVal x = kb.load(A, {kb.idx(0)});
  RVal y = x * kb.real(2.5);
  kb.store(y, A, {kb.idx(0)});
  ir::Function* f = kb.finish();
  const RangeMap ranges = analyze_ranges(*f);
  EXPECT_EQ(ranges.of(y.value), (Interval{0.0, 2.5}));
}

TEST(RangeAnalysis, IntInductionVariablesConverge) {
  ir::Module m;
  KernelBuilder kb(m, "loop");
  Array* A = kb.array("A", {100}, 0.0, 1.0);
  ir::Instruction* iv = nullptr;
  kb.for_loop("i", 0, 100, [&](IVal i) {
    iv = static_cast<ir::Instruction*>(i.value);
    kb.store(kb.real(1.0), A, {i});
  });
  ir::Function* f = kb.finish();
  const RangeMap ranges = analyze_ranges(*f);
  // The induction phi joins [0,0] with [1,100]; widening may push the top
  // but the bottom stays at 0.
  const Interval r = ranges.of(iv);
  EXPECT_DOUBLE_EQ(r.lo, 0.0);
  EXPECT_GE(r.hi, 99.0);
}

TEST(RangeAnalysis, DivisionByStraddlingRangeWidens) {
  ir::Module m;
  KernelBuilder kb(m, "divtop");
  Array* A = kb.array("A", {1}, -1.0, 1.0);
  Array* B = kb.array("B", {1}, 1.0, 2.0);
  RVal q = kb.load(B, {kb.idx(0)}) / kb.load(A, {kb.idx(0)});
  kb.store(q, B, {kb.idx(0)});
  ir::Function* f = kb.finish();
  VraOptions opt;
  const RangeMap ranges = analyze_ranges(*f, opt);
  EXPECT_EQ(ranges.of(q.value), Interval::top(opt.clamp));
}

TEST(RangeAnalysis, JoinStoresChecksAnnotations) {
  // With join_stores the analysis flows stored values back into arrays.
  ir::Module m;
  KernelBuilder kb(m, "joinstores");
  Array* A = kb.array("A", {4}, 0.0, 1.0);
  Array* B = kb.array("B", {4}, 0.0, 0.1); // deliberately too tight
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.store(kb.load(A, {i}) + kb.real(5.0), B, {i});
  });
  ir::Function* f = kb.finish();
  VraOptions opt;
  opt.join_stores = true;
  const RangeMap ranges = analyze_ranges(*f, opt);
  // B's effective range must have grown beyond its annotation.
  EXPECT_GE(ranges.of(f->array_by_name("B")).hi, 6.0);
}

TEST(RangeAnalysis, SelectJoinsArms) {
  ir::Module m;
  KernelBuilder kb(m, "sel");
  Array* A = kb.array("A", {1}, -4.0, -1.0);
  Array* B = kb.array("B", {1}, 2.0, 8.0);
  RVal a = kb.load(A, {kb.idx(0)});
  RVal b = kb.load(B, {kb.idx(0)});
  RVal s = kb.select(a < b, a, b);
  kb.store(s, B, {kb.idx(0)});
  ir::Function* f = kb.finish();
  const RangeMap ranges = analyze_ranges(*f);
  EXPECT_EQ(ranges.of(s.value), (Interval{-4.0, 8.0}));
}

TEST(RangeAnalysis, MathIntrinsicRanges) {
  ir::Module m;
  KernelBuilder kb(m, "intrinsics");
  Array* A = kb.array("A", {1}, 1.0, 4.0);
  RVal x = kb.load(A, {kb.idx(0)});
  RVal s = kb.sqrt(x);
  RVal e = kb.exp(kb.neg(x));
  kb.store(s + e, A, {kb.idx(0)});
  ir::Function* f = kb.finish();
  const RangeMap ranges = analyze_ranges(*f);
  EXPECT_EQ(ranges.of(s.value), (Interval{1.0, 2.0}));
  EXPECT_NEAR(ranges.of(e.value).hi, std::exp(-1.0), 1e-12);
  EXPECT_NEAR(ranges.of(e.value).lo, std::exp(-4.0), 1e-12);
}

} // namespace
} // namespace luis::vra
