// Branch & bound MILP driver on top of the simplex LP solver.
//
// Best-first search over LP relaxations with bound overrides (no model
// copies). Branching picks the most fractional integer variable. With the
// revised LP core each child node warm-starts from its parent's basis, so
// a node re-solve is typically one dual-simplex pivot instead of a full
// cold solve. The search is exact when it terminates with Optimal; node
// and iteration limits degrade gracefully to the best incumbent found.
#pragma once

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"

namespace luis::ilp {

class SolverCache;

struct BranchAndBoundOptions {
  long max_nodes = 50000;
  /// Relative optimality gap at which the search stops early.
  double relative_gap = 1e-9;
  /// Slack used when pruning nodes and LP relaxations against the
  /// incumbent: a subtree whose bound cannot improve the incumbent by more
  /// than this is cut. Negative (the default) derives it from
  /// lp.tolerance — pruning more finely than the LP's own accuracy just
  /// expands nodes chasing noise.
  double prune_tolerance = -1.0;
  /// Revised core only: child nodes warm-start from the parent's basis.
  bool warm_start = true;
  /// Reuse/store root bases in the SolverCache basis pool, keyed by the
  /// objective-free model structure, so neighboring sweep presets (same
  /// model, different objective weights) start from each other's optimal
  /// bases. Off by default: pool contents depend on solve order, so only
  /// drivers with a deterministic solve order (serial sweeps) enable it.
  bool share_basis = false;
  SimplexOptions lp;
  /// Optional shared memoization of whole-model solves (see
  /// solver_cache.hpp). Not owned; may be shared across threads.
  SolverCache* cache = nullptr;
};

/// Solves `model` to integer optimality (within the configured limits).
/// Continuous variables are left to the LP. Returns the incumbent and the
/// proven bound; status NodeLimit means the incumbent may be suboptimal.
Solution solve_milp(const Model& model, const BranchAndBoundOptions& options = {});

} // namespace luis::ilp
