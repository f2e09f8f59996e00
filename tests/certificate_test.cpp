// The certificate checker: honest answers of every status pass, and each
// kind of tampering with an answer or its evidence is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ilp/branch_and_bound.hpp"
#include "ilp/certificate.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/simplex.hpp"
#include "support/rng.hpp"

namespace luis::ilp {
namespace {

/// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: optimum 36 at (2, 6).
struct Textbook {
  Model m;
  Objective objective;
  Textbook() {
    const VarId x = m.add_continuous();
    const VarId y = m.add_continuous();
    m.add_le(LinearExpr().add(x, 1), 4);
    m.add_le(LinearExpr().add(y, 2), 12);
    m.add_le(LinearExpr().add(x, 3).add(y, 2), 18);
    objective = Objective(Direction::Maximize, LinearExpr().add(x, 3).add(y, 5));
  }
};

/// A 0-1 knapsack whose search branches several levels deep.
struct Knapsack {
  Model m;
  Objective objective;
  Knapsack() {
    LinearExpr weight, value;
    const double w[] = {5, 7, 4, 9, 6, 3, 8, 5};
    const double v[] = {9, 11, 6, 14, 8, 5, 13, 7};
    for (int i = 0; i < 8; ++i) {
      const VarId x = m.add_binary();
      weight.add(x, w[i]);
      value.add(x, v[i]);
    }
    m.add_le(std::move(weight), 22.0); // 15 nodes, 11 leaves, depth 5
    objective = Objective(Direction::Maximize, std::move(value));
  }
};

TEST(Certificate, EveryLpStatusCertifies) {
  const Textbook t;
  Certificate c;
  const Solution s = solve_lp(t.m, t.objective, {}, {}, &c);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  ASSERT_EQ(c.leaves.size(), 1u);
  EXPECT_TRUE(check_lp_certificate(t.m, t.objective, s, c).ok);

  Model infeasible; // x <= 1 and x >= 2: phase 1's duals are the ray
  const VarId x = infeasible.add_continuous();
  infeasible.add_le(LinearExpr().add(x, 1), 1);
  infeasible.add_ge(LinearExpr().add(x, 1), 2);
  const Objective min_x(Direction::Minimize, LinearExpr().add(x, 1));
  const Solution si = solve_lp(infeasible, min_x, {}, {}, &c);
  ASSERT_EQ(si.status, SolveStatus::Infeasible);
  const CertificateCheck farkas = check_lp_certificate(infeasible, min_x, si, c);
  EXPECT_TRUE(farkas.ok) << farkas.error;

  Model open; // max x + y s.t. x - y <= 1, y free above
  const VarId a = open.add_continuous();
  const VarId b = open.add_continuous();
  open.add_le(LinearExpr().add(a, 1).add(b, -1), 1);
  const Objective max_sum(Direction::Maximize, LinearExpr().add(a, 1).add(b, 1));
  const Solution su = solve_lp(open, max_sum, {}, {}, &c);
  ASSERT_EQ(su.status, SolveStatus::Unbounded);
  const CertificateCheck ray = check_lp_certificate(open, max_sum, su, c);
  EXPECT_TRUE(ray.ok) << ray.error;
}

TEST(Certificate, RejectsAFlippedDualSign) {
  const Textbook t;
  Certificate c;
  const Solution s = solve_lp(t.m, t.objective, {}, {}, &c);
  ASSERT_TRUE(check_lp_certificate(t.m, t.objective, s, c).ok);
  std::vector<double>& y = c.leaves[0].duals;
  const auto binding = std::find_if(y.begin(), y.end(),
                                    [](double v) { return v != 0.0; });
  ASSERT_NE(binding, y.end());
  *binding = -*binding;
  EXPECT_FALSE(check_lp_certificate(t.m, t.objective, s, c).ok);

  // The same in one leaf of a branch & bound tree.
  const Knapsack k;
  Certificate tree;
  const Solution ks = solve_milp(k.m, k.objective, {}, &tree);
  ASSERT_TRUE(check_certificate(k.m, k.objective, ks, tree).ok);
  for (Certificate::Leaf& leaf : tree.leaves)
    if (leaf.closed != Certificate::Closed::Infeasible)
      for (double& v : leaf.duals) v = -v;
  EXPECT_FALSE(check_certificate(k.m, k.objective, ks, tree).ok);
}

TEST(Certificate, RejectsADroppedLeaf) {
  const Knapsack k;
  Certificate c;
  const Solution s = solve_milp(k.m, k.objective, {}, &c);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  ASSERT_GE(c.leaves.size(), 3u);
  ASSERT_TRUE(check_certificate(k.m, k.objective, s, c).ok);
  for (std::size_t drop = 0; drop < c.leaves.size(); ++drop) {
    Certificate cut = c;
    cut.leaves.erase(cut.leaves.begin() + static_cast<long>(drop));
    EXPECT_FALSE(check_certificate(k.m, k.objective, s, cut).ok)
        << "leaf " << drop;
  }
}

TEST(Certificate, RejectsALeafBoxWithAnOverrideRemoved) {
  const Knapsack k;
  Certificate c;
  const Solution s = solve_milp(k.m, k.objective, {}, &c);
  ASSERT_TRUE(check_certificate(k.m, k.objective, s, c).ok);
  int tried = 0;
  for (std::size_t leaf = 0; leaf < c.leaves.size(); ++leaf)
    for (std::size_t at = 0; at < c.leaves[leaf].box.size(); ++at) {
      Certificate cut = c;
      std::vector<BoundsOverride>& box = cut.leaves[leaf].box;
      box.erase(box.begin() + static_cast<long>(at));
      EXPECT_FALSE(check_certificate(k.m, k.objective, s, cut).ok)
          << "leaf " << leaf << ", override " << at;
      ++tried;
    }
  EXPECT_GT(tried, 4);
}

TEST(Certificate, RejectsAnIncumbentMovedOffTheOptimum) {
  const Knapsack k;
  Certificate c;
  const Solution s = solve_milp(k.m, k.objective, {}, &c);
  ASSERT_TRUE(check_certificate(k.m, k.objective, s, c).ok);
  // A feasible, integral, self-consistent but worse point: drop one item.
  Solution worse = s;
  const auto taken = std::find(worse.values.begin(), worse.values.end(), 1.0);
  ASSERT_NE(taken, worse.values.end());
  *taken = 0.0;
  worse.objective = k.objective.value(worse.values);
  EXPECT_FALSE(check_certificate(k.m, k.objective, worse, c).ok);
  // An infeasible point, or an objective its point does not have.
  Solution overfull = s;
  std::fill(overfull.values.begin(), overfull.values.end(), 1.0);
  overfull.objective = k.objective.value(overfull.values);
  EXPECT_FALSE(check_certificate(k.m, k.objective, overfull, c).ok);
  Solution boasting = s;
  boasting.objective += 1.0;
  EXPECT_FALSE(check_certificate(k.m, k.objective, boasting, c).ok);
}

TEST(Certificate, RejectsFarkasRaysAndUnboundedRaysThatProveNothing) {
  Model m;
  const VarId x = m.add_continuous(0.0, 10.0);
  m.add_ge(LinearExpr().add(x, 1), 12);
  const Objective min_x(Direction::Minimize, LinearExpr().add(x, 1));
  Certificate c;
  const Solution s = solve_lp(m, min_x, {}, {}, &c);
  ASSERT_EQ(s.status, SolveStatus::Infeasible);
  ASSERT_TRUE(check_lp_certificate(m, min_x, s, c).ok);
  Certificate flipped = c;
  for (double& v : flipped.leaves[0].duals) v = -v;
  EXPECT_FALSE(check_lp_certificate(m, min_x, s, flipped).ok);
  Certificate zero = c;
  for (double& v : zero.leaves[0].duals) v = 0.0;
  EXPECT_FALSE(check_lp_certificate(m, min_x, s, zero).ok);

  Model open;
  const VarId a = open.add_continuous(0.0, 5.0);
  const VarId b = open.add_continuous();
  open.add_ge(LinearExpr().add(b, 1).add(a, -1), 0);
  const Objective max_b(Direction::Maximize, LinearExpr().add(b, 1));
  Certificate u;
  const Solution su = solve_lp(open, max_b, {}, {}, &u);
  ASSERT_EQ(su.status, SolveStatus::Unbounded);
  ASSERT_TRUE(check_lp_certificate(open, max_b, su, u).ok);
  Certificate backwards = u;
  for (double& v : backwards.ray) v = -v; // worsens, and leaves b >= 0
  EXPECT_FALSE(check_lp_certificate(open, max_b, su, backwards).ok);
  Certificate bounded = u;
  bounded.ray[static_cast<std::size_t>(a)] = 1.0; // a has an upper bound
  EXPECT_FALSE(check_lp_certificate(open, max_b, su, bounded).ok);
}

// An LP is one leaf over its whole box. min -x s.t. 2x <= 1, x in [0, 1]
// has its LP optimum -0.5 at x = 1/2; leaves x = 0 (bound 0) and x = 1
// (empty) prove the integer optimum 0 but skip the points in between.
TEST(Certificate, RejectsAnLpAnswerSplitIntoLeaves) {
  Model m;
  const VarId x = m.add_integer(0, 1);
  m.add_le(LinearExpr().add(x, 2), 1);
  const Objective min_neg_x(Direction::Minimize, LinearExpr().add(x, -1));
  Solution zero;
  zero.status = SolveStatus::Optimal;
  zero.values = {0.0};
  Certificate split;
  split.leaves.push_back({{{x, 0.0, 0.0}}, Certificate::Closed::Pruned, {0.0}});
  split.leaves.push_back(
      {{{x, 1.0, 1.0}}, Certificate::Closed::Infeasible, {-1.0}});
  EXPECT_TRUE(check_certificate(m, min_neg_x, zero, split).ok);
  const CertificateCheck lp = check_lp_certificate(m, min_neg_x, zero, split);
  EXPECT_FALSE(lp.ok);
  EXPECT_NE(lp.error.find("one leaf"), std::string::npos) << lp.error;

  Certificate c;
  const Solution s = solve_lp(m, min_neg_x, {}, {}, &c);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -0.5, 1e-12);
  EXPECT_TRUE(check_lp_certificate(m, min_neg_x, s, c).ok);
}

TEST(Certificate, WarmDualSimplexAndCrossedBoundsCertifyInfeasibility) {
  // Solve, then tighten both boxes below the row: the warm start is dual
  // feasible, so the dual simplex finds the infeasibility and its row of
  // B^-1 is the ray.
  Model m;
  const VarId x = m.add_continuous(0.0, 5.0);
  const VarId y = m.add_continuous(0.0, 5.0);
  m.add_ge(LinearExpr().add(x, 1).add(y, 1), 3);
  const Objective objective(Direction::Minimize,
                            LinearExpr().add(x, 1).add(y, 2));
  const SparseColumns cols = m.sparse_columns();
  RevisedSolver solver(m, cols, objective, {});
  Basis basis;
  ASSERT_EQ(solver.solve({}, &basis).status, SolveStatus::Optimal);
  const BoundsOverride tight[] = {{x, 0.0, 1.0}, {y, 0.0, 1.0}};
  const Solution s = solver.solve(tight, &basis);
  ASSERT_EQ(s.status, SolveStatus::Infeasible);
  Certificate c;
  Certificate::Leaf& leaf = c.leaves.emplace_back();
  leaf.closed = Certificate::Closed::Infeasible;
  solver.multipliers(leaf.duals);
  const CertificateCheck check = check_lp_certificate(m, objective, s, c, tight);
  EXPECT_TRUE(check.ok) << check.error;

  // A crossed override needs no multipliers at all.
  const BoundsOverride crossed{x, 4.0, 2.0};
  Certificate none;
  const Solution sc = solve_lp(m, objective, {}, std::span(&crossed, 1), &none);
  ASSERT_EQ(sc.status, SolveStatus::Infeasible);
  EXPECT_TRUE(none.leaves.at(0).duals.empty());
  EXPECT_TRUE(
      check_lp_certificate(m, objective, sc, none, std::span(&crossed, 1)).ok);
}

TEST(Certificate, MixedIntegerSearchesCertify) {
  Rng rng(31);
  int branched = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Model m;
    LinearExpr row, obj;
    for (int i = 0; i < 6; ++i) {
      const VarId v = i % 2 ? m.add_continuous(0.0, 3.0) : m.add_integer(-2, 3);
      row.add(v, static_cast<double>(rng.next_int(1, 5)) *
                     (rng.next_bool(0.5) ? 1.0 : -1.0));
      obj.add(v, static_cast<double>(rng.next_int(-4, 4)) + 0.5);
    }
    // One row as a narrow band, so the LP optimum is rarely integral.
    LinearExpr again = row;
    const double rhs = static_cast<double>(rng.next_int(-6, 6)) + 0.25;
    m.add_ge(std::move(row), rhs);
    m.add_le(std::move(again), rhs + rng.next_double(0.0, 0.5));
    const Objective objective(rng.next_bool(0.5) ? Direction::Minimize
                                                 : Direction::Maximize,
                              std::move(obj));
    Certificate c;
    const Solution s = solve_milp(m, objective, {}, &c);
    const CertificateCheck check = check_certificate(m, objective, s, c);
    EXPECT_TRUE(check.ok) << "trial " << trial << " (" << to_string(s.status)
                          << "): " << check.error;
    branched += s.nodes > 1;
  }
  EXPECT_GT(branched, 5);
}

} // namespace
} // namespace luis::ilp
