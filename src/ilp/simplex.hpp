// LP engines underneath the branch & bound MILP driver.
//
// Two cores share one entry point:
//
//  - LpCore::Revised (default): a bounded-variable sparse revised simplex —
//    column-wise sparse constraint storage, an LU-factorized basis with
//    eta-file updates and periodic refactorization, a primal phase 1/2 and
//    a dual-simplex re-optimization path for warm starts (see
//    revised_simplex.hpp and docs/SOLVER.md).
//  - LpCore::Dense: the original dense two-phase tableau simplex, kept as
//    the reference the tests, the ILP fuzz oracle and bench_ilp check the
//    revised core against (selected through SimplexOptions::core).
//
// Both handle general variable bounds, detect infeasibility and
// unboundedness, and guard against cycling by falling back to Bland's rule
// when the objective stalls.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ilp/model.hpp"

namespace luis::ilp {

struct BoundsOverride {
  VarId var = 0;
  double lower = 0.0;
  double upper = kInfinity;
};

enum class LpCore { Revised, Dense };

const char* to_string(LpCore core);

struct SimplexOptions {
  long max_iterations = 500000;
  double tolerance = 1e-7;
  LpCore core = LpCore::Revised;
  /// Revised core: pivots between basis refactorizations. Each pivot
  /// appends one eta vector; refactorizing resets the eta file and
  /// recomputes the basic solution from scratch, which bounds drift.
  int refactor_interval = 64;
};

/// Basis snapshot of the revised simplex: enough to warm-start a re-solve
/// after bound changes (branch & bound children, sweep presets). Column
/// order is [structural variables | one slack per constraint row].
struct Basis {
  enum Status : std::uint8_t {
    kAtLower = 0, ///< nonbasic at its lower bound
    kAtUpper = 1, ///< nonbasic at its upper bound
    kBasic = 2,
    kFree = 3, ///< nonbasic free variable, held at zero
  };
  std::vector<std::uint8_t> status; ///< per column; size cols + rows
  std::vector<int> basic;           ///< per row: the column basic in it

  bool empty() const { return status.empty(); }
  /// Structurally compatible with a model of the given shape?
  bool fits(std::size_t num_variables, std::size_t num_constraints) const {
    return status.size() == num_variables + num_constraints &&
           basic.size() == num_constraints;
  }
};

/// Solves the LP relaxation of `model` (integrality is ignored).
/// `overrides` replaces the bounds of selected variables, which is how the
/// branch & bound driver explores subproblems without copying the model.
Solution solve_lp(const Model& model, const SimplexOptions& options = {},
                  std::span<const BoundsOverride> overrides = {});

} // namespace luis::ilp
