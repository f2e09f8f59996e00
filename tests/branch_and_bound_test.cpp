#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ilp/branch_and_bound.hpp"
#include "ilp/certificate.hpp"
#include "ilp/lp_writer.hpp"
#include "ilp/solver_cache.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace luis::ilp {
namespace {

/// solve_milp with a certificate that check_certificate must accept.
Solution certified(const Model& m, const Objective& objective,
                   const BranchAndBoundOptions& options = {},
                   Certificate* out = nullptr) {
  Certificate certificate;
  const Solution s = solve_milp(m, objective, options, &certificate);
  const CertificateCheck check =
      check_certificate(m, objective, s, certificate, options);
  EXPECT_TRUE(check.ok) << to_string(s.status) << ": " << check.error;
  if (out) *out = std::move(certificate);
  return s;
}

TEST(BranchAndBound, SimpleIntegerRounding) {
  // max x + y s.t. 2x + 2y <= 7, integer -> x + y = 3 (not 3.5).
  Model m;
  const VarId x = m.add_integer(0, 10);
  const VarId y = m.add_integer(0, 10);
  m.add_le(LinearExpr().add(x, 2).add(y, 2), 7);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(x, 1).add(y, 1));
  const Solution s = certified(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
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
      xs.push_back(m.add_binary());
      wsum.add(xs.back(), weight[static_cast<std::size_t>(i)]);
      vsum.add(xs.back(), value[static_cast<std::size_t>(i)]);
    }
    m.add_le(std::move(wsum), cap);
    const Objective objective(Direction::Maximize, std::move(vsum));

    const Solution s = certified(m, objective);
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;

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
      x[i][j] = m.add_binary();
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
  const Objective objective(Direction::Minimize, std::move(obj));

  const Solution s = certified(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 13.0, 1e-6); // 2 + 3 + 5 + 4 (hand-checked best)
  EXPECT_LE(s.nodes, 10);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // max 3x + 2y, x integer, y continuous; x + y <= 4.5, x <= 2.3.
  Model m;
  const VarId x = m.add_integer(0, 10);
  const VarId y = m.add_continuous(0.0, kInfinity);
  m.add_le(LinearExpr().add(x, 1).add(y, 1), 4.5);
  m.add_le(LinearExpr().add(x, 1), 2.3);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(x, 3).add(y, 2));
  const Solution s = certified(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(x), 2.0, 1e-6);
  EXPECT_NEAR(s.value(y), 2.5, 1e-6);
  EXPECT_NEAR(s.objective, 11.0, 1e-6);
}

TEST(BranchAndBound, InfeasibleIntegerProblem) {
  // 2x = 3 has no integer solution.
  Model m;
  const VarId x = m.add_integer(0, 10);
  m.add_eq(LinearExpr().add(x, 2), 3);
  const Objective objective(Direction::Minimize, LinearExpr().add(x, 1));
  EXPECT_EQ(certified(m, objective).status, SolveStatus::Infeasible);
}

TEST(BranchAndBound, BigMIndicatorConstraints) {
  // The exact constraint shape the LUIS model uses: y >= x_a + x_b - 1.
  // Choosing types t for a and t' for b must force the cast indicator.
  Model m;
  const VarId xa = m.add_binary();
  const VarId xb = m.add_binary();
  const VarId cast = m.add_binary();
  // xa + xb <= y + 1
  m.add_le(LinearExpr().add(xa, 1).add(xb, 1).add(cast, -1), 1);
  m.add_eq(LinearExpr().add(xa, 1), 1);
  m.add_eq(LinearExpr().add(xb, 1), 1);
  const Objective objective(Direction::Minimize, LinearExpr().add(cast, 5));
  const Solution s = certified(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(cast), 1.0, 1e-6);
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

TEST(BranchAndBound, NodeLimitReportsIncumbent) {
  // A problem needing branching, with max_nodes = 1: after the root LP the
  // search stops; either no incumbent (Infeasible->NodeLimit) or a found
  // one is reported with NodeLimit status.
  Model m;
  const VarId x = m.add_integer(0, 10);
  const VarId y = m.add_integer(0, 10);
  m.add_le(LinearExpr().add(x, 2).add(y, 2), 7);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(x, 1).add(y, 1));
  BranchAndBoundOptions opt;
  opt.max_nodes = 1;
  const Solution s = certified(m, objective, opt);
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
      const VarId x = m.add_binary();
      cover.add(x, static_cast<double>(rng.next_int(1, 6)));
      obj.add(x, static_cast<double>(rng.next_int(1, 9)) + 0.5);
    }
    m.add_ge(std::move(cover), 12.0);
    const Objective objective(Direction::Minimize, std::move(obj));

    BranchAndBoundOptions opt;
    opt.max_nodes = 3; // forces an early stop on most trials
    const Solution s = certified(m, objective, opt);
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
    const VarId x = m.add_binary();
    cover.add(x, static_cast<double>(1 + (i * 3) % 5));
    obj.add(x, static_cast<double>(2 + (i * 7) % 9));
  }
  m.add_ge(cover, 10.0);
  const Objective objective(Direction::Minimize, obj);

  // Reference optimum with generous limits.
  const Solution exact = solve_milp(m, objective);
  ASSERT_EQ(exact.status, SolveStatus::Optimal);

  BranchAndBoundOptions starved;
  starved.lp.max_iterations = 1;
  const Solution s = certified(m, objective, starved);
  EXPECT_EQ(s.status, SolveStatus::NodeLimit);
  // Nothing was proven, so the bound may be -inf — but it must not exceed
  // the true optimum (a bound above it would falsely tighten the gap).
  EXPECT_LE(s.best_bound, exact.objective + 1e-9);
}

TEST(BranchAndBound, CachedSolutionEqualsFreshSolve) {
  Model m;
  LinearExpr wsum, vsum;
  for (int i = 0; i < 10; ++i) {
    const VarId x = m.add_binary();
    wsum.add(x, static_cast<double>(3 + (i * 5) % 11));
    vsum.add(x, static_cast<double>(1 + (i * 7) % 13));
  }
  m.add_le(std::move(wsum), 30.0);
  const Objective objective(Direction::Maximize, std::move(vsum));

  const Solution fresh = solve_milp(m, objective);
  ASSERT_EQ(fresh.status, SolveStatus::Optimal);

  SolverCache cache;
  BranchAndBoundOptions opt;
  opt.cache = &cache;
  // The first solve computes and fills the cache; the second must hit it.
  const Solution miss = solve_milp(m, objective, opt);
  const Solution hit = solve_milp(m, objective, opt);

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
  SolverCache cache;
  const auto key = [&cache](const Model& m, const Objective& objective,
                            const BranchAndBoundOptions& options) {
    return SolverCache::key(cache.structure(m), objective, options);
  };
  Model a, b;
  const VarId xa = a.add_integer(0, 5);
  const Objective a_objective(Direction::Maximize, LinearExpr().add(xa, 1));
  const VarId xb = b.add_integer(0, 6); // differs only in one bound
  const Objective b_objective(Direction::Maximize, LinearExpr().add(xb, 1));

  BranchAndBoundOptions opt;
  EXPECT_NE(key(a, a_objective, opt), key(b, b_objective, opt));
  BranchAndBoundOptions other = opt;
  other.max_nodes = opt.max_nodes + 1;
  EXPECT_NE(key(a, a_objective, opt), key(a, a_objective, other));

  // A separately built copy of the same problem shares the key.
  Model c;
  const VarId xc = c.add_integer(0, 5);
  const Objective c_objective(Direction::Maximize, LinearExpr().add(xc, 1));
  EXPECT_EQ(key(a, a_objective, opt), key(c, c_objective, opt));

  // Every field of the layout reaches the key exactly: each variant below
  // changes one field of one problem and splits from the base, one-ulp
  // neighbours, the two zeros, the two infinities and two NaN payloads
  // included, while a problem rebuilt from the same fields keeps its key.
  struct Problem {
    VarKind x_kind = VarKind::Integer;
    double x_lower = 0.0, x_upper = 4.0, y_lower = -kInfinity;
    // Row 0 is coeff * x + 1 * term_var (+ row_constant) `sense` rhs; row 1
    // is z <= 1. move_term moves row 0's second term to row 1, and
    // swap_rows adds row 1 first.
    Sense sense = Sense::LE;
    double coeff = 3.0, rhs = 10.0, row_constant = 0.0;
    VarId term_var = 1;
    bool move_term = false, swap_rows = false;
    // The objective is objective_coeff * objective_var + constant.
    Direction direction = Direction::Maximize;
    VarId objective_var = 0;
    double objective_coeff = 1.0, constant = 0.5;
  };
  const auto build = [](const Problem& p) {
    Model m;
    const VarId x = m.add_variable(p.x_kind, p.x_lower, p.x_upper);
    m.add_continuous(p.y_lower, kInfinity);
    const VarId z = m.add_binary();
    LinearExpr first =
        LinearExpr().add(x, p.coeff).add_constant(p.row_constant);
    LinearExpr second = LinearExpr().add(z, 1.0);
    (p.move_term ? second : first).add(p.term_var, 1.0);
    if (p.swap_rows) m.add_le(second, 1.0);
    m.add_constraint(std::move(first), p.sense, p.rhs);
    if (!p.swap_rows) m.add_le(std::move(second), 1.0);
    Objective objective(p.direction,
                        LinearExpr()
                            .add(p.objective_var, p.objective_coeff)
                            .add_constant(p.constant));
    return std::pair{std::move(m), std::move(objective)};
  };
  const auto problem_key = [&](const Problem& p) {
    const auto [m, objective] = build(p);
    return key(m, objective, opt);
  };
  const std::string base = problem_key({});
  EXPECT_EQ(base, problem_key({}));
  EXPECT_EQ(cache.structure(build({}).first), cache.structure(build({}).first));
  // NaN payloads split: quiet NaNs with payloads 1 and 2 reach the rhs
  // through the constant folding's subtraction, which keeps payloads on
  // x86-64 and AArch64, and give different keys.
  const auto nan_rhs = [](std::uint64_t payload) {
    Problem p;
    p.rhs = std::bit_cast<double>(0x7ff8000000000000ull | payload);
    return p;
  };

  std::vector<std::pair<const char*, Problem>> variants;
  const auto variant = [&variants](const char* name, auto&& change) {
    Problem p;
    change(p);
    variants.emplace_back(name, p);
  };
  variant("variable kind", [](Problem& p) { p.x_kind = VarKind::Continuous; });
  variant("lower bound -0", [](Problem& p) { p.x_lower = -0.0; });
  variant("lower bound +inf", [](Problem& p) { p.y_lower = kInfinity; });
  variant("lower bound -DBL_MAX",
          [](Problem& p) { p.y_lower = std::nextafter(-kInfinity, 0.0); });
  variant("upper bound",
          [](Problem& p) { p.x_upper = std::nextafter(4.0, 0.0); });
  variant("row sense", [](Problem& p) { p.sense = Sense::GE; });
  variant("rhs", [](Problem& p) { p.rhs = std::nextafter(10.0, kInfinity); });
  variant("row constant", [](Problem& p) { // same folded rhs
    p.row_constant = 0.5;
    p.rhs = 10.5;
  });
  variant("term variable", [](Problem& p) { p.term_var = 2; });
  variant("coefficient",
          [](Problem& p) { p.coeff = std::nextafter(3.0, kInfinity); });
  variant("row order", [](Problem& p) { p.swap_rows = true; });
  variant("term moved to the next row", [](Problem& p) { p.move_term = true; });
  variant("objective direction",
          [](Problem& p) { p.direction = Direction::Minimize; });
  variant("objective constant",
          [](Problem& p) { p.constant = std::nextafter(0.5, 0.0); });
  variant("objective term variable", [](Problem& p) { p.objective_var = 2; });
  variant("objective coefficient",
          [](Problem& p) { p.objective_coeff = std::nextafter(1.0, 2.0); });
  for (const auto& [name, p] : variants)
    EXPECT_NE(base, problem_key(p)) << name;
  EXPECT_NE(base, problem_key(nan_rhs(1)));
  EXPECT_NE(problem_key(nan_rhs(1)), problem_key(nan_rhs(2)));

  // A row's term count is what tells these two apart: without it, p's
  // second term and second row's header have the bytes of q's second
  // row's header and first term. Denormals keep the folded rhs exact.
  const double t = std::bit_cast<double>(0x0000004024000000ull);
  const double tiny = std::bit_cast<double>(0x1ull);
  const double r = std::bit_cast<double>(0x0000000200000000ull);
  Model p, q;
  for (Model* pq : {&p, &q})
    for (int j = 0; j < 4; ++j) pq->add_continuous();
  p.add_le(LinearExpr().add(0, 1.0).add(1, t), 1.0);
  p.add_le(LinearExpr().add(3, 1.0).add_constant(tiny), r + tiny);
  q.add_le(LinearExpr().add(0, 1.0), 1.0);
  q.add_ge(LinearExpr().add(2, tiny).add(3, 1.0), 10.0);
  EXPECT_NE(cache.structure(p), cache.structure(q));

  // Each result-affecting option.
  const auto [m, objective] = build({});
  std::vector<BranchAndBoundOptions> options(7, opt);
  options[0].max_nodes += 1;
  options[1].relative_gap = std::nextafter(opt.relative_gap, 1.0);
  options[2].prune_tolerance = -0.5;
  options[3].share_basis = true;
  options[4].lp.max_iterations += 1;
  options[5].lp.tolerance = std::nextafter(opt.lp.tolerance, 1.0);
  options[6].lp.refactor_interval += 1;
  for (std::size_t i = 0; i < options.size(); ++i)
    EXPECT_NE(base, key(m, objective, options[i])) << "option " << i;

  BranchAndBoundOptions cached = opt;
  cached.cache = &cache;
  const Solution sa = solve_milp(a, a_objective, cached);
  const Solution sb = solve_milp(b, b_objective, cached);
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
    for (int i = 0; i < n; ++i) xs.push_back(m.add_binary());
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
    const Objective objective(Direction::Maximize, std::move(obj));

    const Solution s = certified(m, objective);

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
  const VarId a = m.add_binary();
  const VarId b = m.add_binary();
  m.add_eq(LinearExpr().add(a, 1).add(b, 1), 1); // pick exactly one
  const Objective objective(Direction::Minimize,
                            LinearExpr().add(a, 1.0).add(b, 1.0 + 5e-8));

  BranchAndBoundOptions tight;
  tight.prune_tolerance = 1e-12;
  tight.relative_gap = 0.0;
  const Solution s = certified(m, objective, tight);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(a), 1.0, 1e-6); // the strictly better point
  EXPECT_NEAR(s.objective, 1.0, 1e-9);

  BranchAndBoundOptions loose;
  loose.prune_tolerance = 1e-3;
  const Solution sl = certified(m, objective, loose);
  ASSERT_EQ(sl.status, SolveStatus::Optimal);
  EXPECT_LE(sl.objective, 1.0 + 1e-3);
}

// Every child warm-starts from its parent's basis. The warm search's
// certificate must check, and a cold LP solve of the leaf that closed as
// the incumbent must reach the same optimum.
TEST(BranchAndBound, WarmStartOnAndOffAgreeOnOptimum) {
  Rng rng(23);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 10;
    Model m;
    LinearExpr wsum, vsum;
    for (int i = 0; i < n; ++i) {
      const VarId x = m.add_binary();
      wsum.add(x, static_cast<double>(rng.next_int(1, 12)));
      vsum.add(x, static_cast<double>(rng.next_int(1, 20)));
    }
    m.add_le(std::move(wsum), 25.0);
    const Objective objective(Direction::Maximize, std::move(vsum));

    Certificate certificate;
    const Solution sw = certified(m, objective, {}, &certificate);
    ASSERT_EQ(sw.status, SolveStatus::Optimal) << "trial " << trial;
    const auto last = std::find_if(
        certificate.leaves.rbegin(), certificate.leaves.rend(),
        [](const Certificate::Leaf& l) {
          return l.closed == Certificate::Closed::Integral;
        });
    ASSERT_NE(last, certificate.leaves.rend()) << "trial " << trial;
    const Solution cold = solve_lp(m, objective, {}, last->box);
    ASSERT_EQ(cold.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(cold.objective, sw.objective, 1e-6) << "trial " << trial;
  }
}

// Models with fixed variables, singleton rows and empty-after-fixing rows:
// branch & bound must get their status, objective and bound right on the
// model as given, and certify them.
TEST(BranchAndBound, FixedVariableCountsInObjectiveAndBound) {
  Model m;
  const VarId x = m.add_continuous(2.0, 2.0);
  const VarId y = m.add_continuous(0.0, 4.0);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(x, 10).add(y, 1));
  const Solution s = certified(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(s.objective, 24.0);
  EXPECT_DOUBLE_EQ(s.best_bound, 24.0);
}

TEST(BranchAndBound, FixedIntegerKeepsBoundAboveObjective) {
  Model m;
  const VarId f = m.add_integer(7, 7);
  const VarId x = m.add_integer(0, 5);
  const VarId y = m.add_integer(0, 5);
  m.add_le(LinearExpr().add(x, 2.0).add(y, 3.0), 12.0);
  const Objective objective(Direction::Maximize,
                            LinearExpr().add(f, 100).add(x, 4).add(y, 5));
  const Solution s = certified(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_GT(s.objective, 700.0);
  EXPECT_GE(s.best_bound, s.objective - 1e-9);
  EXPECT_NEAR(s.best_bound, s.objective, 1e-6);
}

TEST(BranchAndBound, InfeasibleThroughRowsAndBounds) {
  Model contradictory; // x <= 3 and x >= 7
  const VarId a = contradictory.add_integer(0, 10);
  contradictory.add_le(LinearExpr().add(a, 1.0), 3.0);
  contradictory.add_ge(LinearExpr().add(a, 1.0), 7.0);
  const Objective contradictory_objective(Direction::Minimize,
                                          LinearExpr().add(a, 1));

  Model window; // 2.2 <= x <= 2.8 holds no integer
  const VarId b = window.add_integer(0, 10);
  window.add_ge(LinearExpr().add(b, 1.0), 2.2);
  window.add_le(LinearExpr().add(b, 1.0), 2.8);
  const Objective window_objective(Direction::Minimize, LinearExpr().add(b, 1));

  Model fixed; // x = 1 under x <= 0.5
  const VarId c = fixed.add_continuous(1.0, 1.0);
  fixed.add_le(LinearExpr().add(c, 1.0), 0.5);
  const Objective fixed_objective(Direction::Minimize, LinearExpr().add(c, 1));

  EXPECT_EQ(certified(contradictory, contradictory_objective).status,
            SolveStatus::Infeasible);
  EXPECT_EQ(certified(window, window_objective).status,
            SolveStatus::Infeasible);
  EXPECT_EQ(certified(fixed, fixed_objective).status,
            SolveStatus::Infeasible);
}

TEST(BranchAndBound, CascadingEqualitiesFixEveryVariable) {
  Model m;
  const VarId x = m.add_integer(0, 10);
  const VarId y = m.add_integer(0, 10);
  m.add_eq(LinearExpr().add(x, 1.0), 4.0);              // x = 4
  m.add_eq(LinearExpr().add(x, 1.0).add(y, 1.0), 10.0); // then y = 6
  const Objective objective(Direction::Minimize, LinearExpr().add(y, 1));
  const Solution s = certified(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(s.values[static_cast<std::size_t>(x)], 4.0);
  EXPECT_DOUBLE_EQ(s.values[static_cast<std::size_t>(y)], 6.0);
}

TEST(BranchAndBound, SingletonRowCapsIntegerMaximum) {
  Model m;
  const VarId x = m.add_integer(0, 10);
  m.add_le(LinearExpr().add(x, 2.0), 9.0); // x <= 4.5
  const Objective objective(Direction::Maximize, LinearExpr().add(x, 1));
  const Solution s = certified(m, objective);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(s.objective, 4.0);
}

// Random integer models mixing fixed variables, narrow boxes and singleton
// rows under one dense row: every answer certifies, and the incumbent is
// feasible for the model as given.
TEST(BranchAndBound, FixedVariablesAndSingletonRowsCertify) {
  Rng rng(99);
  int optimal = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Model m;
    const int n = 8;
    std::vector<VarId> xs;
    for (int i = 0; i < n; ++i) {
      const double lo = static_cast<double>(rng.next_int(0, 2));
      const double hi = lo + static_cast<double>(rng.next_int(0, 3));
      xs.push_back(m.add_integer(lo, hi));
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
    const Objective objective(Direction::Maximize, std::move(obj));

    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const Solution s = certified(m, objective);
    if (s.status == SolveStatus::Optimal) {
      ++optimal;
    }
  }
  EXPECT_GT(optimal, 3);
}

TEST(SolverCache, StructuralKeyIgnoresObjective) {
  // The basis pool is per structure: two sweep presets differing only in
  // objective weights share warm starts, but any structural change
  // (bounds, rows) must split them.
  Model a;
  const VarId xa = a.add_binary();
  a.add_le(LinearExpr().add(xa, 1), 1);
  const Objective a_objective(Direction::Minimize, LinearExpr().add(xa, 2.0));

  Model b;
  const VarId xb = b.add_binary();
  b.add_le(LinearExpr().add(xb, 1), 1);
  const Objective b_objective(Direction::Minimize, LinearExpr().add(xb, 7.5));

  Model c; // different bound: structurally distinct
  const VarId xc = c.add_integer(0, 2);
  c.add_le(LinearExpr().add(xc, 1), 1);

  Model d; // c with its upper bound one ulp higher
  const VarId xd = d.add_integer(0, std::nextafter(2.0, 3.0));
  d.add_le(LinearExpr().add(xd, 1), 1);

  SolverCache cache;
  const std::size_t sa = cache.structure(a);
  EXPECT_EQ(cache.structure(b), sa); // the same bytes, the same structure
  EXPECT_EQ(cache.structure(a), sa); // and the same id on every call
  const BranchAndBoundOptions opt;
  EXPECT_NE(SolverCache::key(sa, a_objective, opt),
            SolverCache::key(sa, b_objective, opt));
  const std::size_t sc = cache.structure(c);
  EXPECT_NE(sc, sa);
  EXPECT_NE(cache.structure(d), sc);
  EXPECT_NE(cache.structure(d), sa);
}

TEST(SolverCache, BasisPoolRoundTrips) {
  Model a;
  a.add_binary();
  Model b;
  b.add_integer(0, 2);
  SolverCache cache;
  const std::size_t sa = cache.structure(a);
  const std::size_t sb = cache.structure(b);
  EXPECT_FALSE(cache.lookup_basis(sa).has_value());

  Basis basis;
  basis.status = {Basis::kAtLower, Basis::kBasic};
  basis.basic = {1};
  cache.store_basis(sa, basis);
  const std::optional<Basis> got = cache.lookup_basis(sa);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, basis.status);
  EXPECT_EQ(got->basic, basis.basic);
  // The pool is per structure.
  EXPECT_FALSE(cache.lookup_basis(sb).has_value());

  // Empty bases are not stored; stores are last-wins.
  cache.store_basis(sa, Basis{});
  ASSERT_TRUE(cache.lookup_basis(sa).has_value());
  EXPECT_EQ(cache.lookup_basis(sa)->basic, basis.basic);
  Basis other;
  other.status = {Basis::kBasic, Basis::kAtUpper};
  other.basic = {0};
  cache.store_basis(sa, other);
  EXPECT_EQ(cache.lookup_basis(sa)->basic, other.basic);
  cache.store_basis(sb, basis);
  EXPECT_EQ(cache.lookup_basis(sa)->basic, other.basic);
  EXPECT_EQ(cache.lookup_basis(sb)->basic, basis.basic);
}

// One cache shared by four threads that solve the same problems at once,
// each twice: every answer equals an uncached solve bit for bit, every
// lookup either hits or runs one search, and each distinct problem is
// stored once.
TEST(SolverCache, ConcurrentSolvesAreExact) {
  Model shared, distinct;
  LinearExpr weights, tighter;
  std::vector<VarId> xs;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(shared.add_binary());
    distinct.add_binary();
    weights.add(xs.back(), static_cast<double>(3 + (i * 5) % 11));
    tighter.add(xs.back(), static_cast<double>(3 + (i * 5) % 11));
  }
  shared.add_le(std::move(weights), 30.0);
  distinct.add_le(std::move(tighter), 29.0);
  std::vector<std::pair<const Model*, Objective>> problems;
  for (int p = 0; p < 4; ++p) {
    LinearExpr obj;
    for (int i = 0; i < 10; ++i)
      obj.add(xs[static_cast<std::size_t>(i)],
              static_cast<double>(1 + (i * (7 + p)) % 13));
    problems.emplace_back(&shared, Objective(Direction::Maximize, obj));
    if (p == 0)
      problems.emplace_back(&distinct, Objective(Direction::Maximize, obj));
  }
  std::vector<Solution> reference;
  for (const auto& [model, objective] : problems)
    reference.push_back(solve_milp(*model, objective));

  constexpr int kThreads = 4;
  constexpr int kRounds = 2;
  SolverCache cache;
  BranchAndBoundOptions opt;
  opt.cache = &cache;
  obs::Histogram& searches =
      obs::metrics().histogram("ilp.bnb.nodes_per_solve");
  const long searches_before = searches.snapshot().count;
  std::vector<std::vector<Solution>> answers(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round)
        for (const auto& [model, objective] : problems)
          answers[static_cast<std::size_t>(t)].push_back(
              solve_milp(*model, objective, opt));
    });
  }
  for (std::thread& thread : threads) thread.join();

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::vector<Solution>& got : answers) {
    ASSERT_EQ(got.size(), kRounds * problems.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Solution& want = reference[i % problems.size()];
      EXPECT_EQ(got[i].status, want.status);
      EXPECT_EQ(bits(got[i].objective), bits(want.objective));
      EXPECT_EQ(bits(got[i].best_bound), bits(want.best_bound));
      EXPECT_EQ(got[i].nodes, want.nodes);
      EXPECT_EQ(got[i].iterations, want.iterations);
      ASSERT_EQ(got[i].values.size(), want.values.size());
      for (std::size_t j = 0; j < want.values.size(); ++j)
        EXPECT_EQ(bits(got[i].values[j]), bits(want.values[j]));
    }
  }
  const SolverCache::Stats stats = cache.stats();
  const long runs = kThreads * kRounds * static_cast<long>(problems.size());
  EXPECT_EQ(stats.lookups, runs);
  EXPECT_EQ(stats.lookups,
            stats.hits + (searches.snapshot().count - searches_before));
  EXPECT_EQ(stats.insertions, static_cast<long>(problems.size()));
  // A thread's second round finds its own first round's answers at least.
  EXPECT_GE(stats.hits, runs / kRounds);
}

TEST(BranchAndBound, SharedBasisAcrossPresetsKeepsAnswersExact) {
  // Same model, different objectives — the second solve warm starts
  // from the first's root basis and must land on the same optimum as a
  // solve without any cache. A certified solve skips only the result
  // cache, so it still reads and writes the basis pool.
  Model m;
  LinearExpr wsum;
  std::vector<VarId> xs;
  for (int i = 0; i < 8; ++i) {
    xs.push_back(m.add_binary());
    wsum.add(xs.back(), static_cast<double>(1 + (i * 3) % 7));
  }
  m.add_le(std::move(wsum), 14.0);
  auto preset = [&](double w0, double w1) {
    LinearExpr obj;
    for (int i = 0; i < 8; ++i)
      obj.add(xs[static_cast<std::size_t>(i)], (i % 2 == 0 ? w0 : w1) + i);
    return Objective(Direction::Maximize, std::move(obj));
  };

  SolverCache cache;
  BranchAndBoundOptions shared;
  shared.cache = &cache;
  shared.share_basis = true;
  for (const auto& [w0, w1] : {std::pair{3.0, 5.0}, {4.0, 2.0}, {1.0, 9.0}}) {
    const Objective objective = preset(w0, w1);
    const Solution s = certified(m, objective, shared);
    const Solution plain = solve_milp(m, objective);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, plain.objective, 1e-6);
  }
}

// An unbounded root relaxation makes the MILP unbounded or infeasible, and
// the answer certifies just that: its point is the relaxation's. Here
// 2x - 2y = 1 holds at no integer point, so the point must be fractional.
TEST(BranchAndBound, UnboundedRelaxationCertifies) {
  Model m;
  const VarId x = m.add_integer(0, kInfinity);
  const VarId y = m.add_integer(0, kInfinity);
  m.add_eq(LinearExpr().add(x, 2).add(y, -2), 1);
  const Objective objective(Direction::Maximize, LinearExpr().add(x, 1));
  Certificate certificate;
  const Solution s = certified(m, objective, {}, &certificate);
  ASSERT_EQ(s.status, SolveStatus::Unbounded);
  ASSERT_EQ(certificate.point.size(), 2u);
  EXPECT_NEAR(certificate.point[0] - certificate.point[1], 0.5, 1e-9);
  EXPECT_GT(certificate.ray[0], 0.0);
}

// One model, many objectives: the sweep solves every job of a kernel over
// its one shared model, so a solve must never write to the model it reads.
// A, then B (the other direction), then A again on one model: the second A
// repeats the first bit for bit, and each solve equals a solve of a freshly
// built copy.
TEST(BranchAndBound, ObjectivesShareOneModelWithoutTouchingIt) {
  const auto build = [] {
    Model m;
    LinearExpr weight, volume;
    for (int i = 0; i < 10; ++i) {
      const VarId x = m.add_integer(0, 3);
      weight.add(x, static_cast<double>(3 + (i * 5) % 7));
      volume.add(x, static_cast<double>(2 + (i * 3) % 5));
    }
    m.add_le(std::move(weight), 23.5);
    m.add_ge(std::move(volume), 7.5);
    return m;
  };
  const Model m = build();
  LinearExpr value, cost;
  for (VarId j = 0; j < 10; ++j) {
    value.add(j, 1.5 + (j * 7) % 5);
    cost.add(j, 2.0 + (j * 2) % 3);
  }
  const Objective a(Direction::Maximize, std::move(value));
  const Objective b(Direction::Minimize, std::move(cost));

  const auto same_bits = [](const Solution& x, const Solution& y) {
    const auto bits = [](double v) {
      std::uint64_t u = 0;
      std::memcpy(&u, &v, sizeof u);
      return u;
    };
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(bits(x.objective), bits(y.objective));
    EXPECT_EQ(bits(x.best_bound), bits(y.best_bound));
    EXPECT_EQ(x.nodes, y.nodes);
    EXPECT_EQ(x.iterations, y.iterations);
    ASSERT_EQ(x.values.size(), y.values.size());
    for (std::size_t j = 0; j < x.values.size(); ++j)
      EXPECT_EQ(bits(x.values[j]), bits(y.values[j])) << "value " << j;
  };
  const Solution first_a = solve_milp(m, a);
  const Solution first_b = solve_milp(m, b);
  const Solution second_a = solve_milp(m, a);
  ASSERT_EQ(first_a.status, SolveStatus::Optimal);
  ASSERT_EQ(first_b.status, SolveStatus::Optimal);
  EXPECT_GT(first_a.nodes, 1); // the search really branched
  EXPECT_NE(first_a.values, first_b.values);
  same_bits(second_a, first_a);
  same_bits(first_a, solve_milp(build(), a));
  same_bits(first_b, solve_milp(build(), b));
}

TEST(LpWriter, ProducesParsableText) {
  Model m;
  const VarId x = m.add_integer(0, 5);
  const VarId y = m.add_continuous(-kInfinity, 2.0);
  m.add_le(LinearExpr().add(x, 2).add(y, -1), 4);
  const Objective objective(Direction::Minimize,
                            LinearExpr().add(x, 1).add(y, 3));
  const std::string text = to_lp_format(m, objective);
  EXPECT_NE(text.find("Minimize"), std::string::npos);
  // Variables and rows are named by position.
  EXPECT_NE(text.find(" c0: 2 x0 - x1 <= 4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("General"), std::string::npos);
  EXPECT_NE(text.find("End"), std::string::npos);
}

// The certificate checker is the one feasibility check. A NodeLimit
// answer claims no cover, so only its point is judged.
TEST(Model, FeasibilityChecker) {
  Model m;
  const VarId x = m.add_integer(0, 5);
  m.add_le(LinearExpr().add(x, 1), 3);
  const Objective objective(Direction::Minimize, LinearExpr().add(x, 1));
  const auto feasible = [&](double v) {
    Solution s;
    s.status = SolveStatus::NodeLimit;
    s.values = {v};
    s.objective = v;
    return check_certificate(m, objective, s, {}).ok;
  };
  EXPECT_TRUE(feasible(2.0));
  EXPECT_FALSE(feasible(2.5)); // fractional integer
  EXPECT_FALSE(feasible(4.0)); // violates constraint
  EXPECT_FALSE(feasible(-1.0)); // violates bound
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
