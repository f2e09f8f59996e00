#include "ilp/certificate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>

#include "support/string_utils.hpp"

namespace luis::ilp {
namespace {

using Real = long double;

/// A point may miss a bound or a row by this much, relative to its value
/// or to the magnitude of the row's terms (at least 1), and an integer
/// variable an integer: branch & bound rounds values within 1e-6 of one.
constexpr double kFeasTol = 1e-6;
/// An LP's dual bound may fall short of its optimum by this much, relative
/// to the optimum (at least 1).
constexpr double kGapTol = 1e-9;
/// A reduced cost or ray entry this small against its terms counts as zero
/// where the bound it would multiply is infinite.
constexpr double kZeroTol = 1e-9;
/// Rounding allowance of a long double sum, relative to its terms.
constexpr double kSumTol = 1e-12;

CertificateCheck fail(std::string error) { return {false, std::move(error)}; }

/// A sum with the magnitude of its terms, which scales its rounding error.
struct Sum {
  Real value = 0, magnitude = 0;
  void add(Real term) {
    value += term;
    magnitude += std::fabs(term);
  }
};

/// a.x for one row, less its right-hand side when `rhs`.
Sum row_sum(const Constraint& row, const std::vector<double>& x, bool rhs) {
  Sum s;
  if (rhs) s.add(-static_cast<Real>(row.rhs));
  for (const auto& [var, a] : row.expr.terms())
    s.add(static_cast<Real>(a) * x[static_cast<std::size_t>(var)]);
  return s;
}

/// Variable bounds: the model's, with overrides applied in order.
struct Box {
  std::vector<double> lo, hi;

  bool apply(std::span<const BoundsOverride> overrides) {
    for (const BoundsOverride& o : overrides) {
      if (o.var < 0 || static_cast<std::size_t>(o.var) >= lo.size()) return false;
      lo[static_cast<std::size_t>(o.var)] = o.lower;
      hi[static_cast<std::size_t>(o.var)] = o.upper;
    }
    return true;
  }
  bool empty() const { // a crossed bound leaves no point
    for (std::size_t j = 0; j < lo.size(); ++j)
      if (lo[j] > hi[j]) return true;
    return false;
  }
};

/// Adds min over [lo, hi] of d * x. A d negligible against `scale` adds
/// nothing where its bound is infinite; any other d makes the sum -inf.
void add_min(Sum& sum, Real d, Real scale, double lo, double hi) {
  if (d == 0) return;
  const double bound = d > 0 ? lo : hi;
  if (std::isfinite(bound))
    sum.add(d * bound);
  else if (!(std::fabs(d) <= kZeroTol * std::max<Real>(1, scale)))
    sum.value = -std::numeric_limits<Real>::infinity();
}

/// One answer's check: the model, its minimization-form costs and the
/// root box.
struct Check {
  const Model& m;
  std::vector<Real> cost;
  Box root;

  /// L(y) over `box`, slacks included; with `farkas`, for c = 0.
  Sum lagrangian(const std::vector<double>& y, const Box& box, bool farkas) const {
    std::vector<Real> d(cost.size(), 0), scale(cost.size(), 0);
    if (!farkas)
      for (std::size_t j = 0; j < cost.size(); ++j) {
        d[j] = cost[j];
        scale[j] = std::fabs(cost[j]);
      }
    Sum out;
    for (std::size_t i = 0; i < m.num_constraints(); ++i) {
      const Real yi = y[i];
      if (yi == 0) continue;
      const Constraint& row = m.constraints()[i];
      for (const auto& [var, a] : row.expr.terms()) {
        d[static_cast<std::size_t>(var)] -= yi * a;
        scale[static_cast<std::size_t>(var)] += std::fabs(yi * a);
      }
      out.add(yi * row.rhs);
      // The slack s = b - a.x: cost 0, a unit column, so reduced cost
      // -y_i over the range the row's sense allows.
      add_min(out, -yi, std::fabs(yi), row.sense == Sense::GE ? -kInfinity : 0.0,
              row.sense == Sense::LE ? kInfinity : 0.0);
    }
    for (std::size_t j = 0; j < d.size(); ++j)
      add_min(out, d[j], scale[j], box.lo[j], box.hi[j]);
    return out;
  }

  /// Empty when `x` lies in the root box, meets every row within kFeasTol
  /// and, when `integral`, is integral where the model says; otherwise what
  /// it violates.
  std::string violation(const std::vector<double>& x, bool integral) const {
    if (x.size() != cost.size()) return "a point of the wrong size";
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double tol = kFeasTol * std::max(1.0, std::abs(x[j]));
      if (!(x[j] >= root.lo[j] - tol && x[j] <= root.hi[j] + tol))
        return format_string("x%zu = %.17g lies outside [%.17g, %.17g]", j, x[j],
                             root.lo[j], root.hi[j]);
      if (integral && m.variables()[j].kind != VarKind::Continuous &&
          std::abs(x[j] - std::round(x[j])) > kFeasTol)
        return format_string("integer x%zu = %.17g is fractional", j, x[j]);
    }
    for (std::size_t i = 0; i < m.num_constraints(); ++i) {
      const Constraint& row = m.constraints()[i];
      const Sum act = row_sum(row, x, true);
      const Real miss = row.sense == Sense::LE   ? act.value
                        : row.sense == Sense::GE ? -act.value
                                                 : std::fabs(act.value);
      if (!(miss <= kFeasTol * std::max<Real>(1, act.magnitude)))
        return format_string("row %zu is violated by %.3Lg", i, miss);
    }
    return {};
  }

  /// Checks a feasible point and an improving ray of the root box's
  /// relaxation: a MILP whose relaxation is unbounded is unbounded or
  /// infeasible, and its point need not be integral.
  CertificateCheck unbounded(const Certificate& c) const {
    if (std::string v = violation(c.point, false); !v.empty())
      return fail("the unbounded answer's point: " + v);
    const std::vector<double>& ray = c.ray;
    Real norm = 0;
    for (const double r : ray) norm = std::max<Real>(norm, std::fabs(r));
    if (ray.size() != cost.size() || !(norm > 0 && std::isfinite(norm)))
      return fail("the unbounded answer has no finite, nonzero ray");
    Sum slope;
    for (std::size_t j = 0; j < ray.size(); ++j) {
      if ((ray[j] > kZeroTol * norm && std::isfinite(root.hi[j])) ||
          (ray[j] < -kZeroTol * norm && std::isfinite(root.lo[j])))
        return fail(format_string("the ray leaves x%zu's bounds", j));
      slope.add(cost[j] * ray[j]);
    }
    for (std::size_t i = 0; i < m.num_constraints(); ++i) {
      const Constraint& row = m.constraints()[i];
      const Sum act = row_sum(row, ray, false);
      const Real tol = kFeasTol * act.magnitude;
      if ((row.sense != Sense::GE && act.value > tol) ||
          (row.sense != Sense::LE && act.value < -tol))
        return fail(format_string("the ray leaves row %zu", i));
    }
    if (!(slope.value < -kSumTol * slope.magnitude))
      return fail("the ray does not improve the objective");
    return {};
  }

  /// Checks that leaf k's duals bound its box at `threshold` or above, or
  /// that its Farkas ray proves the box empty.
  CertificateCheck leaf(const Certificate& c, std::size_t k, Real threshold) const {
    const Certificate::Leaf& leaf = c.leaves[k];
    Box box = root;
    if (!box.apply(leaf.box))
      return fail(format_string("leaf %zu's box names no variable", k));
    if (box.empty()) return {};
    if (leaf.duals.size() != m.num_constraints())
      return fail(format_string("leaf %zu has %zu multipliers for %zu rows", k,
                                leaf.duals.size(), m.num_constraints()));
    const bool farkas = leaf.closed == Certificate::Closed::Infeasible;
    const Sum l = lagrangian(leaf.duals, box, farkas);
    if (farkas && !(l.value > kSumTol * l.magnitude))
      return fail(format_string("leaf %zu: its Farkas ray proves nothing (%.3Lg)",
                                k, l.value));
    if (!farkas && !(l.value + kSumTol * l.magnitude >= threshold))
      return fail(format_string("leaf %zu: its bound %.17Lg falls below %.17Lg",
                                k, l.value, threshold));
    return {};
  }

  /// Checks that leaves `ids`, which share their first `depth` box entries,
  /// cover every integer point of `box`, the region those entries cut out:
  /// one leaf is the region itself, or the region splits on an integer
  /// variable at x <= k | x >= k + 1 and each side is covered or holds no
  /// integer.
  CertificateCheck covers(const Certificate& c, const std::vector<std::size_t>& ids,
                          std::size_t depth, Box box) const {
    for (const std::size_t k : ids)
      if (c.leaves[k].box.size() == depth)
        return ids.size() == 1
                   ? CertificateCheck{}
                   : fail(format_string("leaf %zu's box holds another leaf", k));
    const BoundsOverride first = c.leaves[ids[0]].box[depth];
    const auto j = static_cast<std::size_t>(first.var);
    const double lo = box.lo[j], hi = box.hi[j];
    const double split = first.lower == lo ? first.upper : first.lower - 1.0;
    if (m.variables()[j].kind == VarKind::Continuous || split != std::floor(split))
      return fail(format_string("leaf %zu splits x%zu at %.17g", ids[0], j, split));
    std::vector<std::size_t> down, up;
    for (const std::size_t k : ids) {
      const BoundsOverride& o = c.leaves[k].box[depth];
      const bool same = static_cast<std::size_t>(o.var) == j;
      if (same && o.lower == lo && o.upper == split)
        down.push_back(k);
      else if (same && o.lower == split + 1.0 && o.upper == hi)
        up.push_back(k);
      else
        return fail(format_string("leaf %zu leaves the split of x%zu at %.17g",
                                  k, j, split));
    }
    for (const auto& [side, side_lo, side_hi] :
         {std::tuple{&down, lo, split}, std::tuple{&up, split + 1.0, hi}}) {
      if (side->empty()) {
        if (std::ceil(side_lo - 1e-9) <= std::floor(side_hi + 1e-9))
          return fail(format_string("no leaf covers x%zu in [%.17g, %.17g]", j,
                                    side_lo, side_hi));
        continue;
      }
      box.lo[j] = side_lo;
      box.hi[j] = side_hi;
      if (CertificateCheck sub = covers(c, *side, depth + 1, box); !sub.ok)
        return sub;
    }
    return {};
  }
};

/// Checks `answer` over the model's bounds with `overrides` applied. Every
/// leaf's bound must reach the answer's cost less max(abs_slack,
/// rel_slack * max(1, |cost|)); a finished solve's leaves must cover the
/// box.
CertificateCheck check(const Model& m, const Objective& objective,
                       const Solution& answer, const Certificate& c,
                       std::span<const BoundsOverride> overrides, bool integer,
                       double abs_slack, double rel_slack) {
  Check check{m, std::vector<Real>(m.num_variables(), 0), {}};
  for (const Variable& v : m.variables()) {
    check.root.lo.push_back(v.lower);
    check.root.hi.push_back(v.upper);
  }
  if (!check.root.apply(overrides)) return fail("an override names no variable");
  const Real sign = objective.direction == Direction::Minimize ? 1 : -1;
  for (const auto& [var, coeff] : objective.expr.terms()) {
    if (var < 0 || static_cast<std::size_t>(var) >= m.num_variables())
      return fail("the objective names no variable");
    check.cost[static_cast<std::size_t>(var)] = sign * coeff;
  }
  if (answer.status == SolveStatus::Unbounded) return check.unbounded(c);

  // The answer's point, and the bound every leaf must reach.
  Real threshold = std::numeric_limits<Real>::infinity();
  if (answer.status == SolveStatus::Optimal || !answer.values.empty()) {
    if (std::string v = check.violation(answer.values, integer); !v.empty())
      return fail("the answer's point: " + v);
    Sum value;
    for (const auto& [var, coeff] : objective.expr.terms())
      value.add(static_cast<Real>(coeff) *
                answer.values[static_cast<std::size_t>(var)]);
    const Real claimed = answer.objective - objective.expr.constant();
    if (!(std::fabs(value.value - claimed) <=
          kSumTol * std::max<Real>(1, value.magnitude)))
      return fail(format_string("the answer's objective %.17g is not its point's",
                                answer.objective));
    const Real cost = sign * value.value; // minimization form, no constant
    threshold = cost - std::max<Real>(abs_slack,
                                      rel_slack * std::max<Real>(1, std::fabs(cost)));
  }
  for (std::size_t k = 0; k < c.leaves.size(); ++k)
    if (CertificateCheck leaf = check.leaf(c, k, threshold); !leaf.ok) return leaf;
  // Only a finished solve claims its leaves cover the box.
  if (answer.status != SolveStatus::Optimal &&
      answer.status != SolveStatus::Infeasible)
    return {};
  // An LP is one leaf over its whole box: a split at x <= k | x >= k + 1
  // would leave out the relaxation's points in between.
  if (!integer)
    return c.leaves.size() == 1 && c.leaves[0].box.empty()
               ? CertificateCheck{}
               : fail("an LP answer needs one leaf, with no branchings");
  if (c.leaves.empty()) return fail("no leaf covers the root box");
  std::vector<std::size_t> all(c.leaves.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return check.covers(c, all, 0, check.root);
}

} // namespace

CertificateCheck check_certificate(const Model& model,
                                   const Objective& objective,
                                   const Solution& answer,
                                   const Certificate& certificate,
                                   const BranchAndBoundOptions& options) {
  const double prune_tol = options.prune_tolerance >= 0.0
                               ? options.prune_tolerance
                               : options.lp.tolerance;
  return check(model, objective, answer, certificate, {}, true, prune_tol,
               options.relative_gap);
}

CertificateCheck check_lp_certificate(const Model& model,
                                      const Objective& objective,
                                      const Solution& answer,
                                      const Certificate& certificate,
                                      std::span<const BoundsOverride> overrides) {
  return check(model, objective, answer, certificate, overrides, false, 0.0,
               kGapTol);
}

} // namespace luis::ilp
