#include "ilp/branch_and_bound.hpp"

#include "ilp/certificate.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/solver_cache.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/diag.hpp"

namespace luis::ilp {
namespace {

struct Node {
  std::vector<BoundsOverride> overrides;
  double bound = 0.0; // parent LP objective, in minimization sign
  /// Parent's final LP basis: the child re-solve starts dual feasible and
  /// typically finishes in a handful of pivots.
  Basis basis;
  /// Certified searches only: the parent's LP duals, which still bound
  /// this smaller box (a node pruned unsolved closes with them), then the
  /// node's own once it is solved.
  std::vector<double> duals;
};

struct NodeOrder {
  bool operator()(const std::shared_ptr<Node>& a,
                  const std::shared_ptr<Node>& b) const {
    return a->bound > b->bound; // best (smallest) bound first
  }
};

/// An LP value within this distance of an integer counts as integral.
constexpr double kIntegralityTolerance = 1e-6;

/// Finds the integer variable with the most fractional LP value, or -1
/// when every integer variable is integral.
int most_fractional(const Model& model, const std::vector<double>& values) {
  int best = -1;
  double best_dist = kIntegralityTolerance;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    if (model.variables()[j].kind == VarKind::Continuous) continue;
    const double v = values[j];
    const double dist = std::abs(v - std::round(v));
    const double frac_dist = std::min(v - std::floor(v), std::ceil(v) - v);
    if (dist > kIntegralityTolerance && frac_dist > best_dist) {
      best = static_cast<int>(j);
      best_dist = frac_dist;
    }
  }
  return best;
}

Solution solve_milp_impl(const Model& model, const Objective& objective,
                         const BranchAndBoundOptions& opt,
                         Certificate* certificate) {
  obs::TraceSpan bnb_span("ilp.bnb", "ilp", [&] {
    return obs::Args()
        .num("variables", model.num_variables())
        .num("constraints", model.constraints().size())
        .done();
  });
  // Work in minimization sign internally.
  const double sign = objective.direction == Direction::Minimize ? 1.0 : -1.0;

  // Derived tolerances: everything that compares a bound against the
  // incumbent uses prune_tol (see the option docs); the child-creation
  // checks (can floor(v) / ceil(v) still fit the variable's bounds?) use
  // child_tol. Both follow the LP core's own accuracy instead of unrelated
  // hardcoded constants.
  const double prune_tol =
      opt.prune_tolerance >= 0.0 ? opt.prune_tolerance : opt.lp.tolerance;
  const double child_tol = std::max(1e-9, opt.lp.tolerance);

  // One solver serves every node: its factorization and work vectors are
  // allocated once per search.
  const SparseColumns cols = model.sparse_columns();
  RevisedSolver solver(model, cols, objective, opt.lp);
  // Structural basis pool: objective-free key, so presets that only differ
  // in objective weights land on the same entry.
  const std::string basis_key = (opt.share_basis && opt.cache)
                                    ? structural_model_key(model)
                                    : std::string();
  // Closes a node as a leaf of the certificate, if one is kept.
  const auto close = [&](const Node& node, Certificate::Closed how) {
    if (certificate) certificate->leaves.push_back({node.overrides, how, node.duals});
  };

  Solution incumbent;
  incumbent.status = SolveStatus::Infeasible;
  double incumbent_cost = kInfinity;
  double best_open_bound = -kInfinity;
  long nodes = 0;
  long iterations = 0;
  bool hit_limit = false;
  // Tightest bound among nodes abandoned unexplored — because their LP
  // relaxation hit the iteration limit, or because the node limit fired
  // with the open queue still populated. Their subtrees are unexplored, so
  // their parent bounds must stay in the proven-bound computation or
  // best_bound (and the reported gap) overstate what the search proved.
  double dropped_open_bound = kInfinity;

  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>,
                      NodeOrder>
      open;
  auto root = std::make_shared<Node>();
  root->bound = -kInfinity;
  if (!basis_key.empty()) {
    if (std::optional<Basis> warm = opt.cache->lookup_basis(basis_key))
      root->basis = std::move(*warm);
  }
  open.push(std::move(root));

  bool any_unbounded = false;
  while (!open.empty()) {
    if (nodes >= opt.max_nodes) {
      hit_limit = true;
      // Every node still open is abandoned unexplored: fold the tightest
      // of their bounds into the dropped-bound accounting so the reported
      // best_bound stays a true bound on the optimum.
      dropped_open_bound = std::min(dropped_open_bound, open.top()->bound);
      break;
    }
    const std::shared_ptr<Node> node = open.top();
    open.pop();
    // Prune against the incumbent: the LP cannot certify improvements
    // finer than its own tolerance, and the caller may additionally accept
    // a relative gap.
    const double gap_slack =
        std::isfinite(incumbent_cost)
            ? opt.relative_gap * std::max(1.0, std::abs(incumbent_cost))
            : 0.0;
    if (node->bound >= incumbent_cost - std::max(prune_tol, gap_slack)) {
      close(*node, Certificate::Closed::Pruned);
      continue;
    }
    ++nodes;
    // Early nodes individually, later ones sampled: enough to see the
    // search shape in a trace without drowning big solves in events.
    if (obs::tracing_enabled() && (nodes <= 8 || nodes % 64 == 0))
      obs::instant("bnb.node", "ilp",
                   obs::Args()
                       .num("node", nodes)
                       .num("bound", sign * node->bound)
                       .num("open", open.size())
                       .done());

    const Solution lp = solver.solve(node->overrides, &node->basis);
    if (certificate) solver.multipliers(node->duals);
    iterations += lp.iterations;
    if (nodes == 1 && !basis_key.empty() && lp.status == SolveStatus::Optimal)
      opt.cache->store_basis(basis_key, node->basis);
    if (lp.status == SolveStatus::IterationLimit) {
      hit_limit = true;
      dropped_open_bound = std::min(dropped_open_bound, node->bound);
      continue;
    }
    if (lp.status == SolveStatus::Infeasible) {
      close(*node, Certificate::Closed::Infeasible);
      continue;
    }
    if (lp.status == SolveStatus::Unbounded) {
      // An unbounded relaxation at the root makes the MILP unbounded or
      // infeasible; report unbounded (LUIS models are always bounded).
      if (certificate && !any_unbounded)
        solver.unbounded_ray(certificate->point, certificate->ray);
      any_unbounded = true;
      continue;
    }
    const double cost = sign * lp.objective;
    if (cost >= incumbent_cost - prune_tol) { // bound prune
      close(*node, Certificate::Closed::Pruned);
      continue;
    }

    const int branch_var = most_fractional(model, lp.values);
    if (branch_var < 0) {
      // Integral: new incumbent.
      incumbent.values = lp.values;
      incumbent.objective = lp.objective;
      incumbent.status = SolveStatus::Optimal;
      incumbent_cost = cost;
      close(*node, Certificate::Closed::Integral);
      if (obs::tracing_enabled()) {
        // Gap against the best bound still open (in minimization sign).
        const double open_bound = open.empty() ? cost : open.top()->bound;
        obs::instant("bnb.incumbent", "ilp",
                     obs::Args()
                         .num("node", nodes)
                         .num("objective", lp.objective)
                         .num("bound_gap", cost - std::min(open_bound,
                                                           dropped_open_bound))
                         .done());
      }
      continue;
    }

    const double v = lp.values[static_cast<std::size_t>(branch_var)];
    const Variable& var = model.variables()[static_cast<std::size_t>(branch_var)];
    // Current effective bounds of the branch variable at this node.
    double cur_lo = var.lower, cur_hi = var.upper;
    for (const BoundsOverride& o : node->overrides) {
      if (o.var == branch_var) {
        cur_lo = o.lower;
        cur_hi = o.upper;
      }
    }
    const double floor_v = std::floor(v);
    // Down child: x <= floor(v).
    if (floor_v >= cur_lo - child_tol) {
      auto down = std::make_shared<Node>();
      down->overrides = node->overrides;
      down->overrides.push_back({branch_var, cur_lo, floor_v});
      down->bound = cost;
      down->basis = node->basis;
      down->duals = node->duals;
      open.push(std::move(down));
    }
    // Up child: x >= ceil(v).
    if (floor_v + 1.0 <= cur_hi + child_tol) {
      auto up = std::make_shared<Node>();
      up->overrides = node->overrides;
      up->overrides.push_back({branch_var, floor_v + 1.0, cur_hi});
      up->bound = cost;
      up->basis = std::move(node->basis);
      up->duals = std::move(node->duals);
      open.push(std::move(up));
    }
  }

  // The tightest bound still open (for gap reporting), including nodes
  // whose subtrees were abandoned at the LP iteration or node limit.
  best_open_bound = open.empty() ? incumbent_cost : open.top()->bound;
  best_open_bound = std::min(best_open_bound, dropped_open_bound);

  incumbent.nodes = nodes;
  incumbent.iterations = iterations;
  obs::metrics().counter("ilp.bnb.nodes").inc(nodes);
  obs::metrics().counter("ilp.bnb.lp_iterations").inc(iterations);
  obs::metrics().counter("ilp.lu.factorizations").inc(solver.factorizations());
  obs::metrics().counter("ilp.lu.nucleus_columns")
      .inc(solver.nucleus_columns());
  obs::metrics().histogram("ilp.bnb.nodes_per_solve")
      .observe(static_cast<double>(nodes));
  incumbent.best_bound = sign * std::min(best_open_bound, incumbent_cost);
  if (incumbent.status == SolveStatus::Optimal) {
    // Snap integer values that are within tolerance of an integer.
    for (std::size_t j = 0; j < model.num_variables(); ++j) {
      if (model.variables()[j].kind == VarKind::Continuous) continue;
      incumbent.values[j] = std::round(incumbent.values[j]);
    }
    incumbent.objective = objective.value(incumbent.values);
    if (hit_limit) incumbent.status = SolveStatus::NodeLimit;
    return incumbent;
  }
  if (hit_limit) {
    incumbent.status = SolveStatus::NodeLimit;
  } else if (any_unbounded) {
    incumbent.status = SolveStatus::Unbounded;
  }
  return incumbent;
}

} // namespace

Solution solve_milp(const Model& model, const Objective& objective,
                    const BranchAndBoundOptions& opt,
                    Certificate* certificate) {
  obs::metrics().counter("ilp.solves").inc();
  if (certificate) *certificate = {};
  if (!opt.cache || certificate)
    return solve_milp_impl(model, objective, opt, certificate);
  obs::TraceSpan cache_span("ilp.cache", "ilp");
  const std::string key = canonical_model_key(model, objective, opt);
  std::optional<Solution> hit = opt.cache->lookup(key);
  cache_span.end();
  if (hit) return *hit;
  Solution sol = solve_milp_impl(model, objective, opt, nullptr);
  opt.cache->insert(key, sol);
  return sol;
}

} // namespace luis::ilp
