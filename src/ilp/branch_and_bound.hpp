// Branch & bound MILP driver on top of the simplex LP solver.
//
// Best-first search over LP relaxations with bound overrides (no model
// copies). Branching picks the most fractional integer variable. Each
// child node warm-starts from its parent's basis, so a node re-solve is
// typically one dual-simplex pivot instead of a full cold solve. The
// search is exact when it terminates with Optimal; node and iteration
// limits degrade gracefully to the best incumbent found.
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
  /// Reuse/store root bases in the SolverCache basis pool, keyed by the
  /// objective-free model structure, so solves of one model under
  /// different objectives start from each other's optimal bases. Off by
  /// default: pool contents depend on solve order, so iteration counts
  /// depend on which solve came last. The sweep leaves it off, so its
  /// rows are the same at every thread count; only perfbench's traced
  /// replay of a serial sweep turns it on.
  bool share_basis = false;
  SimplexOptions lp;
  /// Optional shared memoization of whole-model solves (see
  /// solver_cache.hpp). Not owned; may be shared across threads.
  SolverCache* cache = nullptr;
};

/// Solves `model` under `objective` to integer optimality (within the
/// configured limits). Continuous variables are left to the LP. Returns
/// the incumbent and the proven bound; status NodeLimit means the
/// incumbent may be suboptimal. The model is only read, so concurrent
/// solves may share it. `certificate`, when non-null, receives every
/// closed leaf of the search for check_certificate; such a solve skips
/// `options.cache`, whose answers carry no evidence.
Solution solve_milp(const Model& model, const Objective& objective,
                    const BranchAndBoundOptions& options = {},
                    Certificate* certificate = nullptr);

} // namespace luis::ilp
