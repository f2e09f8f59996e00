// Bounded-variable sparse revised simplex.
//
// Works on the computational form  min c'x  s.t.  Ax + s = b,  l <= (x,s) <= u,
// where one slack per row encodes the row sense (LE: s >= 0, GE: s <= 0,
// EQ: s = 0). Nonbasic variables rest at a finite bound (or at zero when
// free); only the m basic values are maintained, through an LU-factorized
// basis with eta updates (basis_lu.hpp). A bounded column needs no
// upper-bound row: a 0 <= x <= 1 column is one column and nothing more.
// This is LUIS's one LP core; every answer it gives can be certified
// (certificate.hpp).
//
// Three drivers share the machinery:
//  - primal phase 1: minimizes the sum of bound violations with the
//    textbook dynamic cost vector (-1 / +1 on violating basics);
//  - primal phase 2: Dantzig pricing with a Bland fallback on stalls,
//    bound flips handled in the ratio test;
//  - dual simplex: re-optimizes after bound changes from a still
//    dual-feasible basis — the warm-start path branch & bound children
//    and sweep presets use instead of solving from scratch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ilp/basis_lu.hpp"
#include "ilp/simplex.hpp"

namespace luis::ilp {

/// One LP (a model, its sparse columns and an objective) solved under any
/// number of bound overrides. Branch & bound keeps one for a whole search,
/// so its factorization and work vectors are allocated once, not per
/// node. `model`, `cols` and `objective` are referenced, not copied, and
/// must outlive the solver.
class RevisedSolver {
public:
  RevisedSolver(const Model& model, const SparseColumns& cols,
                const Objective& objective, const SimplexOptions& options);

  /// Solves the LP under `overrides`. `basis`, when non-null and
  /// compatible, seeds the solve (dual simplex if it is still dual
  /// feasible, primal otherwise) and receives the final basis on any
  /// return, so child and neighbor re-solves start a pivot or two away.
  Solution solve(std::span<const BoundsOverride> overrides, Basis* basis);

  /// The multipliers that certify the last solve's answer, one per row,
  /// for the minimization form: its duals when it was Optimal, a Farkas ray
  /// when Infeasible (empty when an override crossed its bounds).
  void multipliers(std::vector<double>& out) const;
  /// After an Unbounded solve: a feasible point and an improving ray, one
  /// entry per variable.
  void unbounded_ray(std::vector<double>& point, std::vector<double>& ray) const;

  /// Basis factorizations over every solve so far (refactorizations
  /// included), and the columns they left to dense elimination.
  long factorizations() const { return factor_.factorizations(); }
  long nucleus_columns() const { return factor_.nucleus_columns(); }

private:
  enum class Step { Done, Infeasible, Unbounded, IterationLimit };

  const Model& model_;
  const SparseColumns& cols_;
  const Objective& objective_;
  SimplexOptions opt_;
  int m_, n_, ncols_;

  std::vector<double> lb_, ub_; ///< per column (structurals then slacks)
  std::vector<double> b_;       ///< rhs per row
  std::vector<double> cost_;    ///< minimization-sign objective per column

  std::vector<std::uint8_t> status_; ///< Basis::Status per column
  std::vector<int> basic_;           ///< per row
  std::vector<double> xb_;           ///< basic values per row
  BasisLu factor_;
  long pivots_ = 0;
  std::vector<char> banned_; ///< numerically rejected entering columns
  std::vector<char> seen_;   ///< adopt() scratch
  std::vector<double> work_; ///< ftran scratch
  std::vector<double> cb_;   ///< basic costs of the current phase
  std::vector<double> y_, rho_; ///< btran scratch (pricing / leaving row)

  // The last answer's evidence: y_ (duals, or phase 1's Farkas ray), rho_
  // (the dual simplex's unbounded row; its basic sat below its bound when
  // evidence_below_) or none (crossed bounds); an unbounded ray's entering
  // column and direction, with its ftran'd column in work_.
  enum class Evidence : std::uint8_t { Duals, DualRow, CrossedBounds };
  Evidence evidence_ = Evidence::Duals;
  bool evidence_below_ = false;
  int ray_enter_ = -1, ray_dir_ = 0;

  double ptol() const { return opt_.tolerance; }
  double dtol() const { return opt_.tolerance; }

  bool fixed_column(int j) const { return ub_[sz(j)] - lb_[sz(j)] < 1e-12; }
  static std::size_t sz(int i) { return static_cast<std::size_t>(i); }

  void load_column(int j, std::vector<double>& out) const;
  double dot_column(int j, const std::vector<double>& y) const;
  double nonbasic_value(int j) const;

  bool apply_bounds(std::span<const BoundsOverride> overrides);
  void cold_start();
  bool adopt(const Basis& warm);
  void refactorize();
  void recompute_xb();
  bool primal_infeasible() const;
  bool dual_feasible();

  Step primal(bool phase1);
  Step dual_reoptimize();
};

} // namespace luis::ilp
