#include "ilp/branch_and_bound.hpp"

#include "ilp/presolve.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/solver_cache.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
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
  /// Parent's final LP basis (revised core): the child re-solve starts
  /// dual feasible and typically finishes in a handful of pivots.
  Basis basis;
  // Branching bookkeeping for pseudo-cost updates.
  int branch_var = -1;        ///< variable branched on to create this node
  bool branch_up = false;     ///< true: x >= ceil(v); false: x <= floor(v)
  double branch_frac = 0.0;   ///< fractional distance moved by the branch
};

struct NodeOrder {
  bool operator()(const std::shared_ptr<Node>& a,
                  const std::shared_ptr<Node>& b) const {
    return a->bound > b->bound; // best (smallest) bound first
  }
};

/// Per-variable pseudo-costs: average objective degradation per unit of
/// fractional distance, kept separately for the up and down branches.
struct PseudoCosts {
  std::vector<double> up_sum, down_sum;
  std::vector<long> up_count, down_count;

  explicit PseudoCosts(std::size_t n)
      : up_sum(n, 0.0), down_sum(n, 0.0), up_count(n, 0), down_count(n, 0) {}

  void record(const Node& node, double child_cost) {
    if (node.branch_var < 0) return;
    const auto j = static_cast<std::size_t>(node.branch_var);
    const double degrade = std::max(0.0, child_cost - node.bound) /
                           std::max(node.branch_frac, 1e-6);
    if (node.branch_up) {
      up_sum[j] += degrade;
      ++up_count[j];
    } else {
      down_sum[j] += degrade;
      ++down_count[j];
    }
  }

  /// Estimated per-unit degradation in a direction; variables without
  /// history borrow `fallback` (the global average).
  double estimate(std::size_t j, bool up, double fallback) const {
    const long n = up ? up_count[j] : down_count[j];
    if (n == 0) return fallback;
    return (up ? up_sum[j] : down_sum[j]) / static_cast<double>(n);
  }

  double global_average() const {
    double sum = 0.0;
    long n = 0;
    for (std::size_t j = 0; j < up_sum.size(); ++j) {
      sum += up_sum[j] + down_sum[j];
      n += up_count[j] + down_count[j];
    }
    return n > 0 ? sum / static_cast<double>(n) : 1.0;
  }
};

/// Finds the integer variable with the most fractional LP value.
int most_fractional(const Model& model, const std::vector<double>& values,
                    double tol) {
  int best = -1;
  double best_dist = tol;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    if (model.variables()[j].kind == VarKind::Continuous) continue;
    const double v = values[j];
    const double dist = std::abs(v - std::round(v));
    const double frac_dist = std::min(v - std::floor(v), std::ceil(v) - v);
    if (dist > tol && frac_dist > best_dist) {
      best = static_cast<int>(j);
      best_dist = frac_dist;
    }
  }
  return best;
}

/// Pseudo-cost selection: maximize the product of the estimated up and
/// down degradations (the classic reliability-branching score). Variables
/// without history effectively score by fractionality via the fallback.
int select_pseudo_cost(const Model& model, const std::vector<double>& values,
                       double tol, const PseudoCosts& pc) {
  const double fallback = pc.global_average();
  int best = -1;
  double best_score = -1.0;
  double best_frac = 0.0;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    if (model.variables()[j].kind == VarKind::Continuous) continue;
    const double v = values[j];
    if (std::abs(v - std::round(v)) <= tol) continue;
    const double f_down = v - std::floor(v);
    const double f_up = std::ceil(v) - v;
    const double score = std::max(f_down * pc.estimate(j, false, fallback), 1e-12) *
                         std::max(f_up * pc.estimate(j, true, fallback), 1e-12);
    const double frac = std::min(f_down, f_up);
    if (score > best_score + 1e-15 ||
        (score > best_score - 1e-15 && frac > best_frac + 1e-12)) {
      best = static_cast<int>(j);
      best_score = score;
      best_frac = frac;
    }
  }
  return best;
}

} // namespace

namespace {
Solution solve_milp_impl(const Model& model, const BranchAndBoundOptions& opt);

Solution solve_milp_uncached(const Model& model,
                             const BranchAndBoundOptions& opt) {
  if (!opt.presolve) return solve_milp_impl(model, opt);

  obs::TraceSpan presolve_span("ilp.presolve", "ilp", [&] {
    return obs::Args()
        .num("variables", model.num_variables())
        .num("constraints", model.constraints().size())
        .done();
  });
  const PresolvedModel pre = presolve(model);
  presolve_span.end();
  if (pre.infeasible) {
    Solution sol;
    sol.status = SolveStatus::Infeasible;
    return sol;
  }
  Solution sol = solve_milp_impl(pre.reduced, opt);
  // The reduced objective omits the fixed-variable contribution; lift the
  // proven bound back into full-model terms so bound and objective are
  // comparable whenever presolve fixed a variable with a nonzero
  // objective coefficient.
  sol.best_bound += pre.objective_offset;
  if (!sol.values.empty()) {
    sol.values = pre.restore(sol.values);
    sol.objective = model.objective_value(sol.values);
  } else if (sol.status == SolveStatus::Optimal ||
             pre.reduced.num_variables() == 0) {
    // Fully presolved model: the fixed assignment is the solution, if it
    // satisfies the (already verified) constraints.
    sol.values = pre.restore({});
    if (model.is_feasible(sol.values)) {
      sol.status = SolveStatus::Optimal;
      sol.objective = model.objective_value(sol.values);
      sol.best_bound = sol.objective;
    }
  }
  return sol;
}
} // namespace

Solution solve_milp(const Model& model, const BranchAndBoundOptions& opt) {
  obs::TraceSpan span("ilp.solve", "ilp", [&] {
    return obs::Args()
        .num("variables", model.num_variables())
        .num("constraints", model.constraints().size())
        .boolean("cached", opt.cache != nullptr)
        .done();
  });
  obs::metrics().counter("ilp.solves").inc();
  if (!opt.cache) return solve_milp_uncached(model, opt);
  obs::TraceSpan cache_span("ilp.cache", "ilp");
  const std::string key = canonical_model_key(model, opt);
  std::optional<Solution> hit = opt.cache->lookup(key);
  cache_span.end();
  if (hit) return *hit;
  Solution sol = solve_milp_uncached(model, opt);
  opt.cache->insert(key, sol);
  return sol;
}

namespace {

Solution solve_milp_impl(const Model& model, const BranchAndBoundOptions& opt) {
  obs::TraceSpan bnb_span("ilp.bnb", "ilp", [&] {
    return obs::Args()
        .num("variables", model.num_variables())
        .num("constraints", model.constraints().size())
        .done();
  });
  // Work in minimization sign internally.
  const double sign = model.objective_direction() == Direction::Minimize ? 1.0 : -1.0;

  // Derived tolerances (see the option docs): everything that compares a
  // bound against the incumbent uses prune_tol; everything that checks a
  // branch against variable bounds uses child_tol. Both default to the LP
  // core's own accuracy instead of unrelated hardcoded constants.
  const double prune_tol =
      opt.prune_tolerance >= 0.0 ? opt.prune_tolerance : opt.lp.tolerance;
  const double child_tol = opt.child_bound_tolerance >= 0.0
                               ? opt.child_bound_tolerance
                               : std::max(1e-9, opt.lp.tolerance);

  const bool revised = opt.lp.core == LpCore::Revised;
  SparseColumns cols;
  if (revised) cols = model.sparse_columns();
  // Structural basis pool: objective-free key, so presets that only differ
  // in objective weights land on the same entry.
  const std::string basis_key =
      (revised && opt.share_basis && opt.cache) ? structural_model_key(model)
                                                : std::string();

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

  PseudoCosts pseudo(model.num_variables());

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
    if (node->bound >= incumbent_cost - std::max(prune_tol, gap_slack))
      continue;
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

    Solution lp;
    if (revised)
      lp = solve_lp_revised(model, cols, opt.lp, node->overrides,
                            opt.warm_start ? &node->basis : nullptr);
    else
      lp = solve_lp(model, opt.lp, node->overrides);
    iterations += lp.iterations;
    if (nodes == 1 && !basis_key.empty() && lp.status == SolveStatus::Optimal)
      opt.cache->store_basis(basis_key, node->basis);
    if (lp.status == SolveStatus::IterationLimit) {
      hit_limit = true;
      dropped_open_bound = std::min(dropped_open_bound, node->bound);
      continue;
    }
    if (lp.status == SolveStatus::Infeasible) continue;
    if (lp.status == SolveStatus::Unbounded) {
      // An unbounded relaxation at the root makes the MILP unbounded or
      // infeasible; report unbounded (LUIS models are always bounded).
      any_unbounded = true;
      continue;
    }
    const double cost = sign * lp.objective;
    pseudo.record(*node, cost);
    if (cost >= incumbent_cost - prune_tol) continue; // bound prune

    const int branch_var =
        opt.branching == Branching::PseudoCost
            ? select_pseudo_cost(model, lp.values, opt.integrality_tolerance,
                                 pseudo)
            : most_fractional(model, lp.values, opt.integrality_tolerance);
    if (branch_var < 0) {
      // Integral: new incumbent.
      incumbent.values = lp.values;
      incumbent.objective = lp.objective;
      incumbent.status = SolveStatus::Optimal;
      incumbent_cost = cost;
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
      down->branch_var = branch_var;
      down->branch_up = false;
      down->branch_frac = v - floor_v;
      open.push(std::move(down));
    }
    // Up child: x >= ceil(v).
    if (floor_v + 1.0 <= cur_hi + child_tol) {
      auto up = std::make_shared<Node>();
      up->overrides = node->overrides;
      up->overrides.push_back({branch_var, floor_v + 1.0, cur_hi});
      up->bound = cost;
      up->basis = std::move(node->basis);
      up->branch_var = branch_var;
      up->branch_up = true;
      up->branch_frac = floor_v + 1.0 - v;
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
  obs::metrics().histogram("ilp.bnb.nodes_per_solve")
      .observe(static_cast<double>(nodes));
  incumbent.best_bound = sign * std::min(best_open_bound, incumbent_cost);
  if (incumbent.status == SolveStatus::Optimal) {
    // Snap integer values that are within tolerance of an integer.
    for (std::size_t j = 0; j < model.num_variables(); ++j) {
      if (model.variables()[j].kind == VarKind::Continuous) continue;
      incumbent.values[j] = std::round(incumbent.values[j]);
    }
    incumbent.objective = model.objective_value(incumbent.values);
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

} // namespace luis::ilp
