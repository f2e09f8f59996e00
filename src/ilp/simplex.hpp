// The LP entry point underneath the branch & bound MILP driver. One core
// solves every LP, a bounded-variable sparse revised simplex
// (revised_simplex.hpp, docs/SOLVER.md), and each answer can carry a
// certificate that an independent checker verifies (certificate.hpp).
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

struct Certificate;

struct SimplexOptions {
  long max_iterations = 500000;
  double tolerance = 1e-7;
  /// Pivots between basis refactorizations. Each pivot appends one eta
  /// vector; refactorizing resets the eta file and recomputes the basic
  /// solution from scratch, which bounds drift.
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

/// Solves the LP relaxation of `model` under `objective`. `overrides`
/// replaces the bounds of selected variables, which is how branch & bound
/// explores subproblems without copying the model. `certificate`, when
/// non-null, receives the answer's evidence for check_lp_certificate.
Solution solve_lp(const Model& model, const Objective& objective,
                  const SimplexOptions& options = {},
                  std::span<const BoundsOverride> overrides = {},
                  Certificate* certificate = nullptr);

} // namespace luis::ilp
