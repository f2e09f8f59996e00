// The sparse revised simplex: warm starts, the dual-simplex
// re-optimization path, LU/eta numerical stability, and answers whose
// certificates the independent checker accepts.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "ilp/certificate.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/simplex.hpp"
#include "support/rng.hpp"

namespace luis::ilp {
namespace {

/// solve_lp with a certificate; the checker's verdict goes to `check`.
Solution certified_lp(const Model& m, const Objective& objective,
                      const SimplexOptions& options, CertificateCheck& check) {
  Certificate certificate;
  const Solution s = solve_lp(m, objective, options, {}, &certificate);
  check = check_lp_certificate(m, objective, s, certificate);
  return s;
}

/// The allocator's canonical shape: binary-like columns in [0, 1] with SOS
/// rows, and the objective its tests minimize. Bounded columns need no
/// extra rows: the simplex handles them with plain bound flips.
std::pair<Model, Objective> sos_model() {
  Model m;
  std::vector<VarId> xs;
  for (int j = 0; j < 6; ++j)
    xs.push_back(m.add_continuous(0.0, 1.0));
  // Two SOS-style rows partitioning the variables.
  m.add_eq(LinearExpr().add(xs[0], 1).add(xs[1], 1).add(xs[2], 1), 1);
  m.add_eq(LinearExpr().add(xs[3], 1).add(xs[4], 1).add(xs[5], 1), 1);
  // A coupling budget.
  m.add_le(LinearExpr().add(xs[0], 3).add(xs[3], 2).add(xs[4], 5), 4);
  Objective objective(Direction::Minimize, LinearExpr()
                                               .add(xs[0], 1.0)
                                               .add(xs[1], 2.0)
                                               .add(xs[2], 4.0)
                                               .add(xs[3], 1.5)
                                               .add(xs[4], 0.5)
                                               .add(xs[5], 3.0));
  return {std::move(m), std::move(objective)};
}

TEST(RevisedSimplex, CertifiesBoundedSosModel) {
  const auto [m, objective] = sos_model();
  CertificateCheck check;
  const Solution r = certified_lp(m, objective, {}, check);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_TRUE(check.ok) << check.error;
  // Each group's mass starts on its dearest column (x1, x5: cost 5) and
  // the budget 3 x0 + 2 x3 + 5 x4 <= 4 buys savings where they are
  // cheapest: x3 = 1 (1.5 for 2), then x0 = 2/3 (1 per 3). 5 - 1.5 - 2/3.
  EXPECT_NEAR(r.objective, 17.0 / 6.0, 1e-9);
}

TEST(RevisedSimplex, WarmStartedResolveMatchesColdSolve) {
  const auto [m, objective] = sos_model();
  const SparseColumns cols = m.sparse_columns();
  const SimplexOptions opt;

  Basis basis;
  const Solution root = RevisedSolver(m, cols, objective, opt).solve({}, &basis);
  ASSERT_EQ(root.status, SolveStatus::Optimal);
  ASSERT_TRUE(basis.fits(m.num_variables(), m.num_constraints()));

  // Branch like the B&B driver: tighten one variable and re-solve warm.
  for (const VarId branched : {VarId{0}, VarId{3}, VarId{4}}) {
    const BoundsOverride o{branched, 0.0, 0.0};
    Basis warm = basis;
    RevisedSolver solver(m, cols, objective, opt);
    const Solution re = solver.solve(std::span(&o, 1), &warm);
    const Solution cold =
        RevisedSolver(m, cols, objective, opt).solve(std::span(&o, 1), nullptr);
    ASSERT_EQ(re.status, cold.status) << "var " << branched;
    // The warm answer certifies on its own.
    Certificate certificate;
    Certificate::Leaf& leaf = certificate.leaves.emplace_back();
    if (re.status == SolveStatus::Infeasible)
      leaf.closed = Certificate::Closed::Infeasible;
    solver.multipliers(leaf.duals);
    const CertificateCheck check = check_lp_certificate(
        m, objective, re, certificate, std::span(&o, 1));
    EXPECT_TRUE(check.ok) << "var " << branched << ": " << check.error;
    if (re.status == SolveStatus::Optimal) {
      EXPECT_NEAR(re.objective, cold.objective, 1e-7) << "var " << branched;
      // The whole point of warm starting: the re-solve is nearly free.
      EXPECT_LE(re.iterations, cold.iterations + 2) << "var " << branched;
    }
  }
}

TEST(RevisedSimplex, WarmStartFromGarbageBasisFallsBackToColdSolve) {
  const auto [m, objective] = sos_model();
  const SparseColumns cols = m.sparse_columns();

  Basis garbage;
  garbage.status.assign(m.num_variables() + m.num_constraints(),
                        Basis::kAtLower);
  garbage.basic.assign(m.num_constraints(), 0); // duplicate, inconsistent
  const Solution s =
      RevisedSolver(m, cols, objective, {}).solve({}, &garbage);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  const Solution cold = solve_lp(m, objective);
  EXPECT_NEAR(s.objective, cold.objective, 1e-9);
  // The rejected basis was replaced by the final (valid) one.
  EXPECT_TRUE(garbage.fits(m.num_variables(), m.num_constraints()));
}

TEST(RevisedSimplex, WarmStartAfterBoundRelaxationReoptimizes) {
  // Solve with a tight box, then relax it: the stale basis is still dual
  // feasible and the dual/primal cleanup must find the better optimum,
  // not return the stale one.
  Model m;
  const VarId x = m.add_continuous(0.0, 1.0);
  const VarId y = m.add_continuous(0.0, 1.0);
  m.add_le(LinearExpr().add(x, 1).add(y, 1), 10.0);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(x, 3).add(y, 2));
  const SparseColumns cols = m.sparse_columns();

  Basis basis;
  const BoundsOverride tight{x, 0.0, 0.25};
  RevisedSolver solver(m, cols, objective, {});
  const Solution first = solver.solve(std::span(&tight, 1), &basis);
  ASSERT_EQ(first.status, SolveStatus::Optimal);
  EXPECT_NEAR(first.objective, 3.0 * 0.25 + 2.0, 1e-7);

  const BoundsOverride relaxed{x, 0.0, 4.0};
  const Solution second = solver.solve(std::span(&relaxed, 1), &basis);
  ASSERT_EQ(second.status, SolveStatus::Optimal);
  EXPECT_NEAR(second.objective, 3.0 * 4.0 + 2.0, 1e-7);
}

TEST(RevisedSimplex, FrequentRefactorizationDoesNotChangeTheAnswer) {
  // refactor_interval = 1 forces a fresh LU after every pivot; the result
  // must match the long-eta-file run bit-for-bit in status and closely in
  // objective.
  const auto [m, objective] = sos_model();
  SimplexOptions every_pivot;
  every_pivot.refactor_interval = 1;
  SimplexOptions rare;
  rare.refactor_interval = 1 << 20;

  const Solution a = solve_lp(m, objective, every_pivot);
  const Solution b = solve_lp(m, objective, rare);
  ASSERT_EQ(a.status, SolveStatus::Optimal);
  ASSERT_EQ(b.status, SolveStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
}

TEST(RevisedSimplex, IllConditionedModelStaysAccurate) {
  // Coefficients spanning ten orders of magnitude with nearly parallel
  // rows: eta-file drift would show up as a wrong objective or an
  // infeasible "solution". The certificate's duals, summed in long double
  // over the model as given, must bound the objective the solver reports.
  Model m;
  const VarId x = m.add_continuous(0.0, 1e6);
  const VarId y = m.add_continuous(0.0, 1e6);
  const VarId z = m.add_continuous(0.0, 1e6);
  m.add_le(LinearExpr().add(x, 1e-5).add(y, 1.0).add(z, 1e5), 2e5);
  m.add_le(LinearExpr().add(x, 1.000001e-5).add(y, 1.0).add(z, 1e5), 2e5);
  m.add_le(LinearExpr().add(x, 1.0).add(y, 1e-4).add(z, 1.0), 3.0);
  m.add_ge(LinearExpr().add(x, 1.0).add(y, 1.0), 0.5);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(x, 1.0).add(y, 1e-3).add(z, 10.0));

  SimplexOptions opt;
  opt.refactor_interval = 4; // stress the refactorization path too
  CertificateCheck check;
  const Solution r = certified_lp(m, objective, opt, check);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(RevisedSimplex, RandomLpsCertify) {
  // Random LPs across senses, bound shapes, and both objective
  // directions: every answer, whatever its status, carries a certificate
  // the checker accepts.
  Rng rng(17);
  int optimal = 0, infeasible = 0, unbounded = 0;
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
      m.add_continuous(lo, hi);
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
    const Objective objective(rng.next_bool(0.5) ? Direction::Minimize
                                                 : Direction::Maximize,
                              std::move(obj));

    CertificateCheck check;
    const Solution r = certified_lp(m, objective, {}, check);
    EXPECT_TRUE(check.ok) << "trial " << trial << " ("
                          << to_string(r.status) << "): " << check.error;
    optimal += r.status == SolveStatus::Optimal;
    infeasible += r.status == SolveStatus::Infeasible;
    unbounded += r.status == SolveStatus::Unbounded;
  }
  // The grid must exercise every kind of certificate.
  EXPECT_GT(optimal, 10);
  EXPECT_GT(infeasible, 5);
  EXPECT_GT(unbounded, 2);
}

} // namespace
} // namespace luis::ilp
