// The LP entry point: every answer these tests read is certified, so each
// one also runs the independent checker on its duals, Farkas ray, or
// unbounded point and ray.
#include <gtest/gtest.h>

#include <cmath>

#include "ilp/certificate.hpp"
#include "ilp/simplex.hpp"
#include "support/rng.hpp"

namespace luis::ilp {
namespace {

/// solve_lp with a certificate that check_lp_certificate must accept.
Solution certified_lp(const Model& m, const Objective& objective,
                      const SimplexOptions& options = {},
                      std::span<const BoundsOverride> overrides = {}) {
  Certificate certificate;
  const Solution s = solve_lp(m, objective, options, overrides, &certificate);
  const CertificateCheck check =
      check_lp_certificate(m, objective, s, certificate, overrides);
  EXPECT_TRUE(check.ok) << to_string(s.status) << ": " << check.error;
  return s;
}

TEST(Simplex, TextbookTwoVariableMax) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> (2, 6), obj 36.
  Model m;
  const VarId x = m.add_continuous();
  const VarId y = m.add_continuous();
  m.add_le(LinearExpr().add(x, 1), 4);
  m.add_le(LinearExpr().add(y, 2), 12);
  m.add_le(LinearExpr().add(x, 3).add(y, 2), 18);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(x, 3).add(y, 5));

  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-6);
  EXPECT_NEAR(s.value(x), 2.0, 1e-6);
  EXPECT_NEAR(s.value(y), 6.0, 1e-6);
}

TEST(Simplex, MinimizationWithGeConstraints) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 -> x=7, y=3, obj 23.
  Model m;
  const VarId x = m.add_continuous(2.0);
  const VarId y = m.add_continuous(3.0);
  m.add_ge(LinearExpr().add(x, 1).add(y, 1), 10);
  const Objective objective(Direction::Minimize,
                            LinearExpr().add(x, 2).add(y, 3));

  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 23.0, 1e-6);
  EXPECT_NEAR(s.value(x), 7.0, 1e-6);
  EXPECT_NEAR(s.value(y), 3.0, 1e-6);
}

TEST(Simplex, EqualityConstraints) {
  // min x + 2y + 3z s.t. x+y+z = 6, x - y = 1, z >= 1.
  Model m;
  const VarId x = m.add_continuous();
  const VarId y = m.add_continuous();
  const VarId z = m.add_continuous(1.0);
  m.add_eq(LinearExpr().add(x, 1).add(y, 1).add(z, 1), 6);
  m.add_eq(LinearExpr().add(x, 1).add(y, -1), 1);
  const Objective objective(Direction::Minimize,
                            LinearExpr().add(x, 1).add(y, 2).add(z, 3));

  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  // x - y = 1 and x + y = 6 - z; cost favours small z ... z=1, x=3, y=2.
  EXPECT_NEAR(s.value(z), 1.0, 1e-6);
  EXPECT_NEAR(s.value(x), 3.0, 1e-6);
  EXPECT_NEAR(s.value(y), 2.0, 1e-6);
  EXPECT_NEAR(s.objective, 10.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  const VarId x = m.add_continuous();
  m.add_le(LinearExpr().add(x, 1), 1);
  m.add_ge(LinearExpr().add(x, 1), 2);
  const Objective objective(Direction::Minimize, LinearExpr().add(x, 1));
  EXPECT_EQ(certified_lp(m, objective).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const VarId x = m.add_continuous();
  m.add_ge(LinearExpr().add(x, 1), 1);
  const Objective objective(Direction::Maximize, LinearExpr().add(x, 1));
  EXPECT_EQ(certified_lp(m, objective).status, SolveStatus::Unbounded);
}

TEST(Simplex, RespectsVariableUpperBounds) {
  Model m;
  const VarId x = m.add_continuous(0.0, 3.5);
  const Objective objective(Direction::Maximize, LinearExpr().add(x, 1));
  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(x), 3.5, 1e-6);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y with x in [-5, 5], y >= x + 2 -> x=-5, y=-3.
  Model m;
  const VarId x = m.add_continuous(-5.0, 5.0);
  const VarId y = m.add_continuous(-kInfinity, kInfinity);
  m.add_ge(LinearExpr().add(y, 1).add(x, -1), 2);
  const Objective objective(Direction::Minimize,
                            LinearExpr().add(x, 1).add(y, 1));
  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(x), -5.0, 1e-6);
  EXPECT_NEAR(s.value(y), -3.0, 1e-6);
}

TEST(Simplex, FreeVariableSplit) {
  // min |style| objective via free variable: min y s.t. y >= x - 3,
  // y >= 3 - x, x free -> x = 3, y = 0.
  Model m;
  const VarId x = m.add_continuous(-kInfinity, kInfinity);
  const VarId y = m.add_continuous(-kInfinity, kInfinity);
  m.add_ge(LinearExpr().add(y, 1).add(x, -1), -3);
  m.add_ge(LinearExpr().add(y, 1).add(x, 1), 3);
  const Objective objective(Direction::Minimize, LinearExpr().add(y, 1));
  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-6);
  EXPECT_NEAR(s.value(x), 3.0, 1e-6);
}

TEST(Simplex, FixedVariablesAreSubstituted) {
  Model m;
  const VarId x = m.add_continuous(2.0, 2.0);
  const VarId y = m.add_continuous();
  m.add_le(LinearExpr().add(x, 1).add(y, 1), 10);
  const Objective objective(Direction::Maximize, LinearExpr().add(y, 1));
  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(x), 2.0, 1e-12);
  EXPECT_NEAR(s.value(y), 8.0, 1e-6);
}

TEST(Simplex, BoundsOverridesApply) {
  Model m;
  const VarId x = m.add_continuous(0.0, 10.0);
  const Objective objective(Direction::Maximize, LinearExpr().add(x, 1));
  const BoundsOverride o{x, 0.0, 4.0};
  const Solution s = certified_lp(m, objective, {}, std::span(&o, 1));
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(x), 4.0, 1e-6);
}

TEST(Simplex, CrossedOverrideBoundsAreInfeasible) {
  Model m;
  const VarId x = m.add_continuous(0.0, 10.0);
  const Objective objective(Direction::Minimize, LinearExpr().add(x, 1));
  const BoundsOverride o{x, 5.0, 3.0};
  EXPECT_EQ(certified_lp(m, objective, {}, std::span(&o, 1)).status,
            SolveStatus::Infeasible);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Klee-Minty-ish degeneracy: many redundant constraints through a vertex.
  Model m;
  const VarId x = m.add_continuous();
  const VarId y = m.add_continuous();
  for (int i = 0; i < 20; ++i)
    m.add_le(LinearExpr().add(x, 1.0 + i * 1e-9).add(y, 1.0), 10.0);
  m.add_le(LinearExpr().add(x, 1), 10);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(x, 2).add(y, 1));
  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-5);
}

TEST(Simplex, ObjectiveConstantIsIncluded) {
  Model m;
  const VarId x = m.add_continuous(0.0, 1.0);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(x, 2).add_constant(5));
  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-6);
}

TEST(Simplex, SolutionIsModelFeasible) {
  Rng rng(5);
  // Random dense feasible LPs: Ax <= b with b chosen so x=1 is feasible.
  for (int trial = 0; trial < 20; ++trial) {
    Model m;
    const int n = 8, rows = 12;
    std::vector<VarId> xs;
    for (int j = 0; j < n; ++j)
      xs.push_back(m.add_continuous(0.0, 10.0));
    for (int i = 0; i < rows; ++i) {
      LinearExpr e;
      double row_sum = 0;
      for (int j = 0; j < n; ++j) {
        const double a = rng.next_double(-2, 2);
        e.add(xs[static_cast<std::size_t>(j)], a);
        row_sum += a;
      }
      m.add_le(std::move(e), row_sum + rng.next_double(0, 5));
    }
    LinearExpr obj;
    for (int j = 0; j < n; ++j)
      obj.add(xs[static_cast<std::size_t>(j)], rng.next_double(-1, 1));
    const Objective objective(Direction::Maximize, std::move(obj));

    const Solution s = certified_lp(m, objective);
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
    // x = 1 is feasible, so the max must be at least the objective there.
    std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
    EXPECT_GE(s.objective, objective.value(ones) - 1e-6);
  }
}

// Beale's classic cycling example: Dantzig pricing with a naive tie-break
// cycles forever on this LP. The simplex must terminate (via Bland's rule
// anti-cycling) at the optimum -0.05, with duals that certify it.
TEST(Simplex, BealeCyclingExampleTerminatesCertified) {
  Model m;
  const VarId x4 = m.add_continuous();
  const VarId x5 = m.add_continuous();
  const VarId x6 = m.add_continuous();
  const VarId x7 = m.add_continuous();
  m.add_le(LinearExpr().add(x4, 0.25).add(x5, -60.0).add(x6, -0.04).add(x7, 9.0), 0.0);
  m.add_le(LinearExpr().add(x4, 0.5).add(x5, -90.0).add(x6, -0.02).add(x7, 3.0), 0.0);
  m.add_le(LinearExpr().add(x6, 1.0), 1.0);
  const Objective objective(Direction::Minimize, LinearExpr()
                                                     .add(x4, -0.75)
                                                     .add(x5, 150.0)
                                                     .add(x6, -0.02)
                                                     .add(x7, 6.0));
  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-9);
}

// Redundant (linearly dependent) equality rows keep a slack basic at zero
// after phase 1. No phase-2 pivot may move it off zero and so break the
// equality it stands for.
TEST(Simplex, RedundantEqualityRowsAreHandled) {
  Model m;
  const VarId x = m.add_continuous();
  const VarId y = m.add_continuous();
  m.add_eq(LinearExpr().add(x, 1.0).add(y, 1.0), 4.0);
  m.add_eq(LinearExpr().add(x, 2.0).add(y, 2.0), 8.0); // 2x the first row
  m.add_eq(LinearExpr().add(x, 1.0).add(y, 1.0), 4.0); // exact duplicate
  m.add_le(LinearExpr().add(x, 1.0), 3.0);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(x, 2.0).add(y, 1.0));
  const Solution s = certified_lp(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 2.0 * 3.0 + 1.0, 1e-7);
}

// Redundant rows whose right-hand sides contradict each other must still
// be reported infeasible, not silently dropped.
TEST(Simplex, InconsistentRedundantRowsAreInfeasible) {
  Model m;
  const VarId x = m.add_continuous();
  const VarId y = m.add_continuous();
  m.add_eq(LinearExpr().add(x, 1.0).add(y, 1.0), 4.0);
  m.add_eq(LinearExpr().add(x, 2.0).add(y, 2.0), 9.0); // contradicts 2x row 0
  const Objective objective(Direction::Minimize, LinearExpr().add(x, 1.0));
  EXPECT_EQ(certified_lp(m, objective).status, SolveStatus::Infeasible);
}

} // namespace
} // namespace luis::ilp
