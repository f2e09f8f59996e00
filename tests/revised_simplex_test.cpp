// The sparse revised simplex core: warm starts, the dual-simplex
// re-optimization path, LU/eta numerical stability, and the differential
// guarantee against the dense tableau baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ilp/revised_simplex.hpp"
#include "ilp/simplex.hpp"
#include "support/rng.hpp"

namespace luis::ilp {
namespace {

SimplexOptions revised_options() {
  SimplexOptions opt;
  opt.core = LpCore::Revised;
  return opt;
}

SimplexOptions dense_options() {
  SimplexOptions opt;
  opt.core = LpCore::Dense;
  return opt;
}

/// The allocator's canonical shape: binary-like columns in [0, 1] with SOS
/// rows. The dense tableau pays one extra row per bounded column here; the
/// revised core must handle it with plain bound flips.
Model sos_model() {
  Model m;
  std::vector<VarId> xs;
  for (int j = 0; j < 6; ++j)
    xs.push_back(m.add_continuous("x" + std::to_string(j), 0.0, 1.0));
  // Two SOS-style rows partitioning the variables.
  m.add_eq(LinearExpr().add(xs[0], 1).add(xs[1], 1).add(xs[2], 1), 1);
  m.add_eq(LinearExpr().add(xs[3], 1).add(xs[4], 1).add(xs[5], 1), 1);
  // A coupling budget.
  m.add_le(LinearExpr().add(xs[0], 3).add(xs[3], 2).add(xs[4], 5), 4);
  m.set_objective(Direction::Minimize, LinearExpr()
                                           .add(xs[0], 1.0)
                                           .add(xs[1], 2.0)
                                           .add(xs[2], 4.0)
                                           .add(xs[3], 1.5)
                                           .add(xs[4], 0.5)
                                           .add(xs[5], 3.0));
  return m;
}

TEST(RevisedSimplex, MatchesDenseOnBoundedSosModel) {
  const Model m = sos_model();
  const Solution r = solve_lp(m, revised_options());
  const Solution d = solve_lp(m, dense_options());
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  ASSERT_EQ(d.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, d.objective, 1e-7);
  EXPECT_TRUE(m.is_feasible(r.values, 1e-6));
}

TEST(RevisedSimplex, WarmStartedResolveMatchesColdSolve) {
  const Model m = sos_model();
  const SparseColumns cols = m.sparse_columns();
  const SimplexOptions opt = revised_options();

  Basis basis;
  const Solution root = solve_lp_revised(m, cols, opt, {}, &basis);
  ASSERT_EQ(root.status, SolveStatus::Optimal);
  ASSERT_TRUE(basis.fits(m.num_variables(), m.num_constraints()));

  // Branch like the B&B driver: tighten one variable and re-solve warm.
  for (const VarId branched : {VarId{0}, VarId{3}, VarId{4}}) {
    const BoundsOverride o{branched, 0.0, 0.0};
    Basis warm = basis;
    const Solution re = solve_lp_revised(m, cols, opt, std::span(&o, 1), &warm);
    const Solution cold = solve_lp_revised(m, cols, opt, std::span(&o, 1), nullptr);
    ASSERT_EQ(re.status, cold.status) << "var " << branched;
    if (re.status == SolveStatus::Optimal) {
      EXPECT_NEAR(re.objective, cold.objective, 1e-7) << "var " << branched;
      EXPECT_TRUE(m.is_feasible(re.values, 1e-6));
      // The whole point of warm starting: the re-solve is nearly free.
      EXPECT_LE(re.iterations, cold.iterations + 2) << "var " << branched;
    }
  }
}

TEST(RevisedSimplex, WarmStartFromGarbageBasisFallsBackToColdSolve) {
  const Model m = sos_model();
  const SparseColumns cols = m.sparse_columns();

  Basis garbage;
  garbage.status.assign(m.num_variables() + m.num_constraints(),
                        Basis::kAtLower);
  garbage.basic.assign(m.num_constraints(), 0); // duplicate, inconsistent
  const Solution s =
      solve_lp_revised(m, cols, revised_options(), {}, &garbage);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  const Solution cold = solve_lp(m, revised_options());
  EXPECT_NEAR(s.objective, cold.objective, 1e-9);
  // The rejected basis was replaced by the final (valid) one.
  EXPECT_TRUE(garbage.fits(m.num_variables(), m.num_constraints()));
}

TEST(RevisedSimplex, WarmStartAfterBoundRelaxationReoptimizes) {
  // Solve with a tight box, then relax it: the stale basis is still dual
  // feasible and the dual/primal cleanup must find the better optimum,
  // not return the stale one.
  Model m;
  const VarId x = m.add_continuous("x", 0.0, 1.0);
  const VarId y = m.add_continuous("y", 0.0, 1.0);
  m.add_le(LinearExpr().add(x, 1).add(y, 1), 10.0);
  m.set_objective(Direction::Maximize, LinearExpr().add(x, 3).add(y, 2));
  const SparseColumns cols = m.sparse_columns();

  Basis basis;
  const BoundsOverride tight{x, 0.0, 0.25};
  const Solution first = solve_lp_revised(m, cols, revised_options(),
                                          std::span(&tight, 1), &basis);
  ASSERT_EQ(first.status, SolveStatus::Optimal);
  EXPECT_NEAR(first.objective, 3.0 * 0.25 + 2.0, 1e-7);

  const BoundsOverride relaxed{x, 0.0, 4.0};
  const Solution second = solve_lp_revised(m, cols, revised_options(),
                                           std::span(&relaxed, 1), &basis);
  ASSERT_EQ(second.status, SolveStatus::Optimal);
  EXPECT_NEAR(second.objective, 3.0 * 4.0 + 2.0, 1e-7);
}

TEST(RevisedSimplex, FrequentRefactorizationDoesNotChangeTheAnswer) {
  // refactor_interval = 1 forces a fresh LU after every pivot; the result
  // must match the long-eta-file run bit-for-bit in status and closely in
  // objective.
  const Model m = sos_model();
  SimplexOptions every_pivot = revised_options();
  every_pivot.refactor_interval = 1;
  SimplexOptions rare = revised_options();
  rare.refactor_interval = 1 << 20;

  const Solution a = solve_lp(m, every_pivot);
  const Solution b = solve_lp(m, rare);
  ASSERT_EQ(a.status, SolveStatus::Optimal);
  ASSERT_EQ(b.status, SolveStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
}

TEST(RevisedSimplex, IllConditionedModelStaysAccurate) {
  // Coefficients spanning ten orders of magnitude with nearly parallel
  // rows: eta-file drift would show up as a wrong objective or an
  // infeasible "solution". Compare against the dense core, which performs
  // full-tableau elimination with fresh arithmetic every pivot.
  Model m;
  const VarId x = m.add_continuous("x", 0.0, 1e6);
  const VarId y = m.add_continuous("y", 0.0, 1e6);
  const VarId z = m.add_continuous("z", 0.0, 1e6);
  m.add_le(LinearExpr().add(x, 1e-5).add(y, 1.0).add(z, 1e5), 2e5);
  m.add_le(LinearExpr().add(x, 1.000001e-5).add(y, 1.0).add(z, 1e5), 2e5);
  m.add_le(LinearExpr().add(x, 1.0).add(y, 1e-4).add(z, 1.0), 3.0);
  m.add_ge(LinearExpr().add(x, 1.0).add(y, 1.0), 0.5);
  m.set_objective(Direction::Maximize,
                  LinearExpr().add(x, 1.0).add(y, 1e-3).add(z, 10.0));

  SimplexOptions opt = revised_options();
  opt.refactor_interval = 4; // stress the refactorization path too
  const Solution r = solve_lp(m, opt);
  const Solution d = solve_lp(m, dense_options());
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  ASSERT_EQ(d.status, SolveStatus::Optimal);
  EXPECT_TRUE(m.is_feasible(r.values, 1e-4));
  EXPECT_NEAR(r.objective / d.objective, 1.0, 1e-6);
}

TEST(RevisedSimplex, RandomDifferentialAgainstDenseCore) {
  // Random LPs across senses, bound shapes, and both objective
  // directions: the two cores must agree on status and optimum.
  Rng rng(17);
  int optimal = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Model m;
    const int n = static_cast<int>(rng.next_int(1, 6));
    for (int j = 0; j < n; ++j) {
      const double lo = rng.next_bool(0.2)
                            ? -kInfinity
                            : static_cast<double>(rng.next_int(-3, 1));
      const double hi =
          rng.next_bool(0.2)
              ? kInfinity
              : (std::isfinite(lo) ? lo : 0.0) +
                    static_cast<double>(rng.next_int(0, 5));
      m.add_continuous("x" + std::to_string(j), lo, hi);
    }
    const int rows = static_cast<int>(rng.next_int(0, 5));
    for (int i = 0; i < rows; ++i) {
      LinearExpr e;
      bool any = false;
      for (int j = 0; j < n; ++j) {
        if (rng.next_bool(0.4) || (j + 1 == n && !any)) {
          e.add(j, static_cast<double>(rng.next_int(1, 4)) *
                       (rng.next_bool(0.5) ? 1.0 : -1.0));
          any = true;
        }
      }
      const double rhs = static_cast<double>(rng.next_int(-6, 6));
      const std::uint64_t pick = rng.next_below(3);
      if (pick == 0)
        m.add_le(std::move(e), rhs);
      else if (pick == 1)
        m.add_ge(std::move(e), rhs);
      else
        m.add_eq(std::move(e), rhs);
    }
    LinearExpr obj;
    for (int j = 0; j < n; ++j)
      if (rng.next_bool(0.8))
        obj.add(j, static_cast<double>(rng.next_int(-3, 3)));
    m.set_objective(rng.next_bool(0.5) ? Direction::Minimize
                                       : Direction::Maximize,
                    std::move(obj));

    const Solution r = solve_lp(m, revised_options());
    const Solution d = solve_lp(m, dense_options());
    ASSERT_EQ(r.status, d.status) << "trial " << trial;
    if (r.status == SolveStatus::Optimal) {
      ++optimal;
      EXPECT_NEAR(r.objective, d.objective, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.is_feasible(r.values, 1e-5)) << "trial " << trial;
    }
  }
  EXPECT_GT(optimal, 10); // the grid must actually exercise the solvers
}

TEST(RevisedSimplex, LpCoreDefaultRoundTrips) {
  EXPECT_STREQ(to_string(LpCore::Revised), "revised");
  EXPECT_STREQ(to_string(LpCore::Dense), "dense");
}

} // namespace
} // namespace luis::ilp
