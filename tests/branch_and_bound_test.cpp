#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "ilp/branch_and_bound.hpp"
#include "ilp/lp_writer.hpp"
#include "ilp/solver_cache.hpp"
#include "support/rng.hpp"

namespace luis::ilp {
namespace {

TEST(BranchAndBound, SimpleIntegerRounding) {
  // max x + y s.t. 2x + 2y <= 7, integer -> x + y = 3 (not 3.5).
  Model m;
  const VarId x = m.add_integer("x", 0, 10);
  const VarId y = m.add_integer("y", 0, 10);
  m.add_le(LinearExpr().add(x, 2).add(y, 2), 7);
  m.set_objective(Direction::Maximize, LinearExpr().add(x, 1).add(y, 1));
  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
  EXPECT_TRUE(m.is_feasible(s.values));
}

TEST(BranchAndBound, KnapsackAgainstBruteForce) {
  Rng rng(42);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 12;
    std::vector<double> weight(n), value(n);
    for (int i = 0; i < n; ++i) {
      weight[static_cast<std::size_t>(i)] = static_cast<double>(rng.next_int(1, 20));
      value[static_cast<std::size_t>(i)] = static_cast<double>(rng.next_int(1, 30));
    }
    const double cap = static_cast<double>(rng.next_int(20, 80));

    Model m;
    LinearExpr wsum, vsum;
    std::vector<VarId> xs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(m.add_binary("x" + std::to_string(i)));
      wsum.add(xs.back(), weight[static_cast<std::size_t>(i)]);
      vsum.add(xs.back(), value[static_cast<std::size_t>(i)]);
    }
    m.add_le(std::move(wsum), cap);
    m.set_objective(Direction::Maximize, std::move(vsum));

    const Solution s = solve_milp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_TRUE(m.is_feasible(s.values)) << "trial " << trial;

    // Brute force over 2^12 subsets.
    double best = 0.0;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      double w = 0, v = 0;
      for (int i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          w += weight[static_cast<std::size_t>(i)];
          v += value[static_cast<std::size_t>(i)];
        }
      }
      if (w <= cap) best = std::max(best, v);
    }
    EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
  }
}

TEST(BranchAndBound, AssignmentProblemIsIntegralAtRoot) {
  // 4x4 assignment: LP relaxation is integral (totally unimodular), so the
  // solver should find the optimum with very few nodes.
  const double cost[4][4] = {
      {9, 2, 7, 8}, {6, 4, 3, 7}, {5, 8, 1, 8}, {7, 6, 9, 4}};
  Model m;
  VarId x[4][4];
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      x[i][j] = m.add_binary("x" + std::to_string(i) + std::to_string(j));
  for (int i = 0; i < 4; ++i) {
    LinearExpr row, col;
    for (int j = 0; j < 4; ++j) {
      row.add(x[i][j], 1);
      col.add(x[j][i], 1);
    }
    m.add_eq(std::move(row), 1);
    m.add_eq(std::move(col), 1);
  }
  LinearExpr obj;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) obj.add(x[i][j], cost[i][j]);
  m.set_objective(Direction::Minimize, std::move(obj));

  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 13.0, 1e-6); // 2 + 3 + 5 + 4 (hand-checked best)
  EXPECT_LE(s.nodes, 10);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // max 3x + 2y, x integer, y continuous; x + y <= 4.5, x <= 2.3.
  Model m;
  const VarId x = m.add_integer("x", 0, 10);
  const VarId y = m.add_continuous("y", 0.0, kInfinity);
  m.add_le(LinearExpr().add(x, 1).add(y, 1), 4.5);
  m.add_le(LinearExpr().add(x, 1), 2.3);
  m.set_objective(Direction::Maximize, LinearExpr().add(x, 3).add(y, 2));
  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(x), 2.0, 1e-6);
  EXPECT_NEAR(s.value(y), 2.5, 1e-6);
  EXPECT_NEAR(s.objective, 11.0, 1e-6);
}

TEST(BranchAndBound, InfeasibleIntegerProblem) {
  // 2x = 3 has no integer solution.
  Model m;
  const VarId x = m.add_integer("x", 0, 10);
  m.add_eq(LinearExpr().add(x, 2), 3);
  m.set_objective(Direction::Minimize, LinearExpr().add(x, 1));
  EXPECT_EQ(solve_milp(m).status, SolveStatus::Infeasible);
}

TEST(BranchAndBound, BigMIndicatorConstraints) {
  // The exact constraint shape the LUIS model uses: y >= x_a + x_b - 1.
  // Choosing types t for a and t' for b must force the cast indicator.
  Model m;
  const VarId xa = m.add_binary("xa_t");
  const VarId xb = m.add_binary("xb_u");
  const VarId cast = m.add_binary("y_cast");
  // xa + xb <= y + 1
  m.add_le(LinearExpr().add(xa, 1).add(xb, 1).add(cast, -1), 1);
  m.add_eq(LinearExpr().add(xa, 1), 1);
  m.add_eq(LinearExpr().add(xb, 1), 1);
  m.set_objective(Direction::Minimize, LinearExpr().add(cast, 5));
  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(cast), 1.0, 1e-6);
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

TEST(BranchAndBound, NodeLimitReportsIncumbent) {
  // A problem needing branching, with max_nodes = 1: after the root LP the
  // search stops; either no incumbent (Infeasible->NodeLimit) or a found
  // one is reported with NodeLimit status.
  Model m;
  const VarId x = m.add_integer("x", 0, 10);
  const VarId y = m.add_integer("y", 0, 10);
  m.add_le(LinearExpr().add(x, 2).add(y, 2), 7);
  m.set_objective(Direction::Maximize, LinearExpr().add(x, 1).add(y, 1));
  BranchAndBoundOptions opt;
  opt.max_nodes = 1;
  const Solution s = solve_milp(m, opt);
  EXPECT_EQ(s.status, SolveStatus::NodeLimit);
}

TEST(BranchAndBound, NodeLimitBoundStaysBelowIncumbentObjective) {
  // Minimization under a node limit: the proven bound must never claim
  // more than the search established, i.e. best_bound <= objective.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 10;
    Model m;
    LinearExpr cover, obj;
    for (int i = 0; i < n; ++i) {
      const VarId x = m.add_binary("x" + std::to_string(i));
      cover.add(x, static_cast<double>(rng.next_int(1, 6)));
      obj.add(x, static_cast<double>(rng.next_int(1, 9)) + 0.5);
    }
    m.add_ge(std::move(cover), 12.0);
    m.set_objective(Direction::Minimize, std::move(obj));

    BranchAndBoundOptions opt;
    opt.max_nodes = 3; // forces an early stop on most trials
    const Solution s = solve_milp(m, opt);
    if (s.values.empty()) continue; // no incumbent: nothing to compare
    EXPECT_LE(s.best_bound, s.objective + 1e-9) << "trial " << trial;
  }
}

TEST(BranchAndBound, IterationLimitKeepsBoundSound) {
  // Starved LP iterations: nodes whose relaxation hits IterationLimit are
  // abandoned, but their subtree's bound must survive into best_bound.
  // Dropping them silently used to report best_bound = +inf for a
  // minimization problem — an unproven "proof" of optimality.
  Model m;
  LinearExpr cover, obj;
  for (int i = 0; i < 8; ++i) {
    const VarId x = m.add_binary("x" + std::to_string(i));
    cover.add(x, static_cast<double>(1 + (i * 3) % 5));
    obj.add(x, static_cast<double>(2 + (i * 7) % 9));
  }
  m.add_ge(cover, 10.0);
  m.set_objective(Direction::Minimize, obj);

  // Reference optimum with generous limits.
  const Solution exact = solve_milp(m);
  ASSERT_EQ(exact.status, SolveStatus::Optimal);

  BranchAndBoundOptions starved;
  starved.lp.max_iterations = 1;
  const Solution s = solve_milp(m, starved);
  EXPECT_EQ(s.status, SolveStatus::NodeLimit);
  // Nothing was proven, so the bound may be -inf — but it must not exceed
  // the true optimum (a bound above it would falsely tighten the gap).
  EXPECT_LE(s.best_bound, exact.objective + 1e-9);
}

TEST(BranchAndBound, CachedSolutionEqualsFreshSolve) {
  Model m;
  LinearExpr wsum, vsum;
  for (int i = 0; i < 10; ++i) {
    const VarId x = m.add_binary("x" + std::to_string(i));
    wsum.add(x, static_cast<double>(3 + (i * 5) % 11));
    vsum.add(x, static_cast<double>(1 + (i * 7) % 13));
  }
  m.add_le(std::move(wsum), 30.0);
  m.set_objective(Direction::Maximize, std::move(vsum));

  const Solution fresh = solve_milp(m);
  ASSERT_EQ(fresh.status, SolveStatus::Optimal);

  SolverCache cache;
  BranchAndBoundOptions opt;
  opt.cache = &cache;
  const Solution miss = solve_milp(m, opt); // computes and fills the cache
  const Solution hit = solve_milp(m, opt);  // must come from the cache

  const SolverCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);

  for (const Solution* s : {&miss, &hit}) {
    EXPECT_EQ(s->status, fresh.status);
    EXPECT_EQ(s->objective, fresh.objective); // bit-identical, not NEAR
    EXPECT_EQ(s->best_bound, fresh.best_bound);
    EXPECT_EQ(s->values, fresh.values);
  }
}

TEST(BranchAndBound, CacheKeySeparatesModelsAndOptions) {
  Model a, b;
  const VarId xa = a.add_integer("x", 0, 5);
  a.set_objective(Direction::Maximize, LinearExpr().add(xa, 1));
  const VarId xb = b.add_integer("x", 0, 6); // differs only in one bound
  b.set_objective(Direction::Maximize, LinearExpr().add(xb, 1));

  BranchAndBoundOptions opt;
  EXPECT_NE(canonical_model_key(a, opt), canonical_model_key(b, opt));
  BranchAndBoundOptions other = opt;
  other.max_nodes = opt.max_nodes + 1;
  EXPECT_NE(canonical_model_key(a, opt), canonical_model_key(a, other));

  // Names must NOT separate: the canonical form is name-free.
  Model c;
  const VarId xc = c.add_integer("renamed", 0, 5);
  c.set_objective(Direction::Maximize, LinearExpr().add(xc, 1));
  EXPECT_EQ(canonical_model_key(a, opt), canonical_model_key(c, opt));

  // Every number reaches the key exactly: one-ulp neighbours, the two
  // zeros and the two infinities all split, and a model rebuilt from the
  // same numbers keeps its key.
  struct Numbers {
    double coeff = 3.0, x_lower = 0.0, x_upper = 4.0, y_lower = -kInfinity;
    double rhs = 10.0, constant = 0.5;
  };
  const auto build = [](const Numbers& n) {
    Model m;
    const VarId x = m.add_integer("x", n.x_lower, n.x_upper);
    const VarId y = m.add_continuous("y", n.y_lower, kInfinity);
    m.add_le(LinearExpr().add(x, n.coeff).add(y, 1.0), n.rhs);
    m.set_objective(Direction::Maximize,
                    LinearExpr().add(x, 1.0).add_constant(n.constant));
    return m;
  };
  const std::string base = canonical_model_key(build({}), opt);
  EXPECT_EQ(base, canonical_model_key(build({}), opt));
  EXPECT_EQ(structural_model_key(build({})), structural_model_key(build({})));
  std::vector<Numbers> variants(7);
  variants[0].coeff = std::nextafter(3.0, kInfinity);
  variants[1].x_upper = std::nextafter(4.0, 0.0);
  variants[2].rhs = std::nextafter(10.0, kInfinity);
  variants[3].constant = std::nextafter(0.5, 0.0);
  variants[4].x_lower = -0.0;
  variants[5].y_lower = kInfinity;
  variants[6].y_lower = std::nextafter(-kInfinity, 0.0); // -DBL_MAX
  for (std::size_t i = 0; i < variants.size(); ++i)
    EXPECT_NE(base, canonical_model_key(build(variants[i]), opt)) << "variant " << i;

  SolverCache cache;
  BranchAndBoundOptions cached = opt;
  cached.cache = &cache;
  const Solution sa = solve_milp(a, cached);
  const Solution sb = solve_milp(b, cached);
  EXPECT_EQ(cache.stats().hits, 0); // distinct models, no false sharing
  EXPECT_NEAR(sa.objective, 5.0, 1e-9);
  EXPECT_NEAR(sb.objective, 6.0, 1e-9);
}

TEST(BranchAndBound, RandomMilpsMatchBruteForce) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 8;
    Model m;
    std::vector<VarId> xs;
    for (int i = 0; i < n; ++i) xs.push_back(m.add_binary("b" + std::to_string(i)));
    std::vector<std::vector<double>> rows;
    std::vector<double> rhs;
    for (int r = 0; r < 5; ++r) {
      LinearExpr e;
      std::vector<double> coef(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        coef[static_cast<std::size_t>(i)] = static_cast<double>(rng.next_int(-5, 5));
        e.add(xs[static_cast<std::size_t>(i)], coef[static_cast<std::size_t>(i)]);
      }
      const double b = static_cast<double>(rng.next_int(0, 10));
      m.add_le(std::move(e), b);
      rows.push_back(std::move(coef));
      rhs.push_back(b);
    }
    LinearExpr obj;
    std::vector<double> c(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      c[static_cast<std::size_t>(i)] = static_cast<double>(rng.next_int(-10, 10));
      obj.add(xs[static_cast<std::size_t>(i)], c[static_cast<std::size_t>(i)]);
    }
    m.set_objective(Direction::Maximize, std::move(obj));

    const Solution s = solve_milp(m);

    double best = -1e300;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      bool ok = true;
      for (std::size_t r = 0; r < rows.size() && ok; ++r) {
        double lhs = 0;
        for (int i = 0; i < n; ++i)
          if (mask & (1u << i)) lhs += rows[r][static_cast<std::size_t>(i)];
        ok = lhs <= rhs[r] + 1e-9;
      }
      if (!ok) continue;
      double v = 0;
      for (int i = 0; i < n; ++i)
        if (mask & (1u << i)) v += c[static_cast<std::size_t>(i)];
      best = std::max(best, v);
    }
    if (best == -1e300) {
      EXPECT_EQ(s.status, SolveStatus::Infeasible) << "trial " << trial;
    } else {
      ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
      EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.is_feasible(s.values)) << "trial " << trial;
    }
  }
}

TEST(BranchAndBound, NearTiePruningRespectsConfiguredTolerance) {
  // Two feasible points whose objectives differ by 5e-8 — below the old
  // hardcoded 1e-9/1e-12 prune cutoffs' blind spot but within the LP
  // tolerance (1e-7). With prune_tolerance tightened to 1e-12 the solver
  // must still find the strictly better point; with a loose 1e-3 it may
  // settle for either, but must never return something worse than that
  // slack allows.
  Model m;
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  m.add_eq(LinearExpr().add(a, 1).add(b, 1), 1); // pick exactly one
  m.set_objective(Direction::Minimize,
                  LinearExpr().add(a, 1.0).add(b, 1.0 + 5e-8));

  BranchAndBoundOptions tight;
  tight.prune_tolerance = 1e-12;
  tight.relative_gap = 0.0;
  const Solution s = solve_milp(m, tight);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(a), 1.0, 1e-6); // the strictly better point
  EXPECT_NEAR(s.objective, 1.0, 1e-9);

  BranchAndBoundOptions loose;
  loose.prune_tolerance = 1e-3;
  const Solution sl = solve_milp(m, loose);
  ASSERT_EQ(sl.status, SolveStatus::Optimal);
  EXPECT_LE(sl.objective, 1.0 + 1e-3);
}

TEST(BranchAndBound, WarmStartOnAndOffAgreeOnOptimum) {
  Rng rng(23);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 10;
    Model m;
    LinearExpr wsum, vsum;
    for (int i = 0; i < n; ++i) {
      const VarId x = m.add_binary("x" + std::to_string(i));
      wsum.add(x, static_cast<double>(rng.next_int(1, 12)));
      vsum.add(x, static_cast<double>(rng.next_int(1, 20)));
    }
    m.add_le(std::move(wsum), 25.0);
    m.set_objective(Direction::Maximize, std::move(vsum));

    BranchAndBoundOptions warm;
    warm.warm_start = true;
    BranchAndBoundOptions cold;
    cold.warm_start = false;
    const Solution sw = solve_milp(m, warm);
    const Solution sc = solve_milp(m, cold);
    ASSERT_EQ(sw.status, SolveStatus::Optimal) << "trial " << trial;
    ASSERT_EQ(sc.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(sw.objective, sc.objective, 1e-6) << "trial " << trial;
    EXPECT_TRUE(m.is_feasible(sw.values)) << "trial " << trial;
  }
}

// Models with fixed variables, singleton rows and empty-after-fixing rows:
// branch & bound must get their status, objective and bound right on the
// model as given, on both LP cores.
constexpr LpCore kCores[] = {LpCore::Revised, LpCore::Dense};

Solution solve_on(const Model& m, LpCore core) {
  BranchAndBoundOptions opt;
  opt.lp.core = core;
  return solve_milp(m, opt);
}

TEST(BranchAndBound, FixedVariableCountsInObjectiveAndBound) {
  Model m;
  const VarId x = m.add_continuous("x", 2.0, 2.0);
  const VarId y = m.add_continuous("y", 0.0, 4.0);
  m.set_objective(Direction::Maximize, LinearExpr().add(x, 10).add(y, 1));
  for (const LpCore core : kCores) {
    SCOPED_TRACE(to_string(core));
    const Solution s = solve_on(m, core);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(s.objective, 24.0);
    EXPECT_DOUBLE_EQ(s.best_bound, 24.0);
  }
}

TEST(BranchAndBound, FixedIntegerKeepsBoundAboveObjective) {
  Model m;
  const VarId f = m.add_integer("f", 7, 7);
  const VarId x = m.add_integer("x", 0, 5);
  const VarId y = m.add_integer("y", 0, 5);
  m.add_le(LinearExpr().add(x, 2.0).add(y, 3.0), 12.0);
  m.set_objective(Direction::Maximize,
                  LinearExpr().add(f, 100).add(x, 4).add(y, 5));
  for (const LpCore core : kCores) {
    SCOPED_TRACE(to_string(core));
    const Solution s = solve_on(m, core);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_GT(s.objective, 700.0);
    EXPECT_GE(s.best_bound, s.objective - 1e-9);
    EXPECT_NEAR(s.best_bound, s.objective, 1e-6);
  }
}

TEST(BranchAndBound, InfeasibleThroughRowsAndBounds) {
  Model contradictory; // x <= 3 and x >= 7
  const VarId a = contradictory.add_integer("x", 0, 10);
  contradictory.add_le(LinearExpr().add(a, 1.0), 3.0);
  contradictory.add_ge(LinearExpr().add(a, 1.0), 7.0);
  contradictory.set_objective(Direction::Minimize, LinearExpr().add(a, 1));

  Model window; // 2.2 <= x <= 2.8 holds no integer
  const VarId b = window.add_integer("x", 0, 10);
  window.add_ge(LinearExpr().add(b, 1.0), 2.2);
  window.add_le(LinearExpr().add(b, 1.0), 2.8);
  window.set_objective(Direction::Minimize, LinearExpr().add(b, 1));

  Model fixed; // x = 1 under x <= 0.5
  const VarId c = fixed.add_continuous("x", 1.0, 1.0);
  fixed.add_le(LinearExpr().add(c, 1.0), 0.5);
  fixed.set_objective(Direction::Minimize, LinearExpr().add(c, 1));

  for (const LpCore core : kCores) {
    SCOPED_TRACE(to_string(core));
    EXPECT_EQ(solve_on(contradictory, core).status, SolveStatus::Infeasible);
    EXPECT_EQ(solve_on(window, core).status, SolveStatus::Infeasible);
    EXPECT_EQ(solve_on(fixed, core).status, SolveStatus::Infeasible);
  }
}

TEST(BranchAndBound, CascadingEqualitiesFixEveryVariable) {
  Model m;
  const VarId x = m.add_integer("x", 0, 10);
  const VarId y = m.add_integer("y", 0, 10);
  m.add_eq(LinearExpr().add(x, 1.0), 4.0);              // x = 4
  m.add_eq(LinearExpr().add(x, 1.0).add(y, 1.0), 10.0); // then y = 6
  m.set_objective(Direction::Minimize, LinearExpr().add(y, 1));
  for (const LpCore core : kCores) {
    SCOPED_TRACE(to_string(core));
    const Solution s = solve_on(m, core);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(s.values[static_cast<std::size_t>(x)], 4.0);
    EXPECT_DOUBLE_EQ(s.values[static_cast<std::size_t>(y)], 6.0);
  }
}

TEST(BranchAndBound, SingletonRowCapsIntegerMaximum) {
  Model m;
  const VarId x = m.add_integer("x", 0, 10);
  m.add_le(LinearExpr().add(x, 2.0), 9.0); // x <= 4.5
  m.set_objective(Direction::Maximize, LinearExpr().add(x, 1));
  for (const LpCore core : kCores) {
    SCOPED_TRACE(to_string(core));
    const Solution s = solve_on(m, core);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(s.objective, 4.0);
  }
}

// Random integer models mixing fixed variables, narrow boxes and singleton
// rows under one dense row: both cores reach the same status and optimum,
// and the incumbent is feasible for the model as given.
TEST(BranchAndBound, CoresAgreeOnFixedVariablesAndSingletonRows) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Model m;
    const int n = 8;
    std::vector<VarId> xs;
    for (int i = 0; i < n; ++i) {
      const double lo = static_cast<double>(rng.next_int(0, 2));
      const double hi = lo + static_cast<double>(rng.next_int(0, 3));
      xs.push_back(m.add_integer("x" + std::to_string(i), lo, hi));
    }
    LinearExpr total;
    for (int i = 0; i < n; ++i) {
      if (rng.next_bool(0.4))
        m.add_le(LinearExpr().add(xs[static_cast<std::size_t>(i)], 1.0),
                 static_cast<double>(rng.next_int(1, 4)));
      total.add(xs[static_cast<std::size_t>(i)],
                static_cast<double>(rng.next_int(-3, 3)));
    }
    m.add_le(std::move(total), static_cast<double>(rng.next_int(2, 12)));
    LinearExpr obj;
    for (int i = 0; i < n; ++i)
      obj.add(xs[static_cast<std::size_t>(i)],
              static_cast<double>(rng.next_int(-5, 5)));
    m.set_objective(Direction::Maximize, std::move(obj));

    const Solution revised = solve_on(m, LpCore::Revised);
    const Solution dense = solve_on(m, LpCore::Dense);
    ASSERT_EQ(revised.status, dense.status) << "trial " << trial;
    if (revised.status == SolveStatus::Optimal) {
      EXPECT_NEAR(revised.objective, dense.objective, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.is_feasible(revised.values)) << "trial " << trial;
      EXPECT_TRUE(m.is_feasible(dense.values)) << "trial " << trial;
    }
  }
}

TEST(SolverCache, StructuralKeyIgnoresObjective) {
  // The basis pool is keyed structurally: two sweep presets differing only
  // in objective weights share warm starts, but any structural change
  // (bounds, rows) must split them.
  Model a;
  const VarId xa = a.add_binary("x");
  a.add_le(LinearExpr().add(xa, 1), 1);
  a.set_objective(Direction::Minimize, LinearExpr().add(xa, 2.0));

  Model b;
  const VarId xb = b.add_binary("x");
  b.add_le(LinearExpr().add(xb, 1), 1);
  b.set_objective(Direction::Minimize, LinearExpr().add(xb, 7.5));

  Model c; // different bound: structurally distinct
  const VarId xc = c.add_integer("x", 0, 2);
  c.add_le(LinearExpr().add(xc, 1), 1);
  c.set_objective(Direction::Minimize, LinearExpr().add(xc, 2.0));

  Model d; // c with its upper bound one ulp higher
  const VarId xd = d.add_integer("x", 0, std::nextafter(2.0, 3.0));
  d.add_le(LinearExpr().add(xd, 1), 1);
  d.set_objective(Direction::Minimize, LinearExpr().add(xd, 2.0));

  EXPECT_EQ(structural_model_key(a), structural_model_key(b));
  EXPECT_NE(structural_model_key(a), structural_model_key(c));
  EXPECT_NE(structural_model_key(c), structural_model_key(d));
}

TEST(SolverCache, BasisPoolRoundTrips) {
  SolverCache cache;
  const std::string key = "struct|demo";
  EXPECT_FALSE(cache.lookup_basis(key).has_value());

  Basis basis;
  basis.status = {Basis::kAtLower, Basis::kBasic};
  basis.basic = {1};
  cache.store_basis(key, basis);
  const std::optional<Basis> got = cache.lookup_basis(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, basis.status);
  EXPECT_EQ(got->basic, basis.basic);

  // Empty bases are not stored; stores are last-wins.
  cache.store_basis(key, Basis{});
  ASSERT_TRUE(cache.lookup_basis(key).has_value());
  Basis other;
  other.status = {Basis::kBasic, Basis::kAtUpper};
  other.basic = {0};
  cache.store_basis(key, other);
  EXPECT_EQ(cache.lookup_basis(key)->basic, other.basic);

  cache.clear();
  EXPECT_FALSE(cache.lookup_basis(key).has_value());
}

TEST(BranchAndBound, SharedBasisAcrossPresetsKeepsAnswersExact) {
  // Same structure, different objectives — the second solve warm starts
  // from the first's root basis and must land on the same optimum as a
  // solve without any cache.
  auto build = [](double w0, double w1) {
    Model m;
    LinearExpr wsum;
    std::vector<VarId> xs;
    for (int i = 0; i < 8; ++i) {
      xs.push_back(m.add_binary("x" + std::to_string(i)));
      wsum.add(xs.back(), static_cast<double>(1 + (i * 3) % 7));
    }
    m.add_le(std::move(wsum), 14.0);
    LinearExpr obj;
    for (int i = 0; i < 8; ++i)
      obj.add(xs[static_cast<std::size_t>(i)], (i % 2 == 0 ? w0 : w1) + i);
    m.set_objective(Direction::Maximize, std::move(obj));
    return m;
  };

  SolverCache cache;
  BranchAndBoundOptions shared;
  shared.cache = &cache;
  shared.share_basis = true;
  for (const auto [w0, w1] : {std::pair{3.0, 5.0}, {4.0, 2.0}, {1.0, 9.0}}) {
    const Model m = build(w0, w1);
    const Solution s = solve_milp(m, shared);
    const Solution plain = solve_milp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, plain.objective, 1e-6);
    EXPECT_TRUE(m.is_feasible(s.values));
  }
}

TEST(LpWriter, ProducesParsableText) {
  Model m;
  const VarId x = m.add_integer("x", 0, 5);
  const VarId y = m.add_continuous("y", -kInfinity, 2.0);
  m.add_le(LinearExpr().add(x, 2).add(y, -1), 4, "cap");
  m.set_objective(Direction::Minimize, LinearExpr().add(x, 1).add(y, 3));
  const std::string text = to_lp_format(m);
  EXPECT_NE(text.find("Minimize"), std::string::npos);
  EXPECT_NE(text.find("cap:"), std::string::npos);
  EXPECT_NE(text.find("General"), std::string::npos);
  EXPECT_NE(text.find("End"), std::string::npos);
}

TEST(Model, FeasibilityChecker) {
  Model m;
  const VarId x = m.add_integer("x", 0, 5);
  m.add_le(LinearExpr().add(x, 1), 3);
  m.set_objective(Direction::Minimize, LinearExpr().add(x, 1));
  EXPECT_TRUE(m.is_feasible({2.0}));
  EXPECT_FALSE(m.is_feasible({2.5})); // fractional integer
  EXPECT_FALSE(m.is_feasible({4.0})); // violates constraint
  EXPECT_FALSE(m.is_feasible({-1.0})); // violates bound
}

TEST(Model, NormalizeCombinesDuplicateTerms) {
  LinearExpr e;
  e.add(0, 1.0).add(1, 2.0).add(0, 3.0).add(1, -2.0);
  e.normalize();
  ASSERT_EQ(e.terms().size(), 1u);
  EXPECT_EQ(e.terms()[0].first, 0);
  EXPECT_DOUBLE_EQ(e.terms()[0].second, 4.0);
}

} // namespace
} // namespace luis::ilp
