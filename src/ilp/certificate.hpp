// Certificates for the answers of solve_lp and solve_milp, and a small
// independent checker, after VIPR (Cheung, Gleixner and Steffy, "Verifying
// Integer Programming Results", IPCO 2017): duals bound an optimal LP, a
// Farkas ray proves an LP infeasible, a point and an improving ray prove it
// unbounded, and a MILP answer lists every closed leaf of its search. The
// checker shares no code with the simplex; it computes, in long double,
// the Lagrangian bound y.b + sum_j min over [l_j, u_j] of (c_j - y.a_j) x_j
// (slacks included), which holds for any y, so a wrong y can only fail.
// docs/SOLVER.md ("Certificates") states what it checks and its tolerances.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ilp/branch_and_bound.hpp"

namespace luis::ilp {

struct Certificate {
  /// How a leaf closed.
  enum class Closed : std::uint8_t {
    Pruned,     ///< its bound cannot beat the answer (an LP's optimal leaf)
    Infeasible, ///< its Farkas ray, or a crossed bound, proves it empty
    Integral,   ///< its LP optimum was integral
  };
  struct Leaf {
    /// The bounds that cut the leaf out of the solve's box: a node's
    /// branchings from the root, in order (none for an LP's one leaf).
    std::vector<BoundsOverride> box;
    Closed closed = Closed::Pruned;
    /// One per row, for the minimization form (the objective negated when
    /// maximizing): the duals that bound the leaf, or its Farkas ray.
    /// Empty when `box` crosses a variable's bounds.
    std::vector<double> duals;
  };
  std::vector<Leaf> leaves;
  /// An Unbounded answer: a point and an improving ray of the relaxation,
  /// one entry per variable (a MILP's point need not be integral).
  std::vector<double> point, ray;
};

/// The checker's verdict: ok, or the first condition that failed.
struct CertificateCheck {
  bool ok = true;
  std::string error;
};

/// Verifies `answer` and `certificate` of
/// solve_milp(model, objective, options, &certificate).
CertificateCheck check_certificate(const Model& model,
                                   const Objective& objective,
                                   const Solution& answer,
                                   const Certificate& certificate,
                                   const BranchAndBoundOptions& options = {});

/// Verifies `answer` and `certificate` of
/// solve_lp(model, objective, options, overrides, &certificate): the
/// relaxation under `overrides`, with no integrality.
CertificateCheck check_lp_certificate(
    const Model& model, const Objective& objective, const Solution& answer,
    const Certificate& certificate,
    std::span<const BoundsOverride> overrides = {});

} // namespace luis::ilp
