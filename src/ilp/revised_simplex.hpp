// Bounded-variable sparse revised simplex.
//
// Works on the computational form  min c'x  s.t.  Ax + s = b,  l <= (x,s) <= u,
// where one slack per row encodes the row sense (LE: s >= 0, GE: s <= 0,
// EQ: s = 0). Nonbasic variables rest at a finite bound (or at zero when
// free); only the m basic values are maintained, through an LU-factorized
// basis with eta updates (basis_lu.hpp). There is no slack explosion for
// bounded columns: a 0 <= x <= 1 SOS row costs one column, not a column
// plus an upper-bound row as in the dense tableau.
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

#include <span>

#include "ilp/simplex.hpp"

namespace luis::ilp {

/// Solves the LP relaxation with the revised simplex. `cols` must be
/// `model.sparse_columns()` (hoisted out so branch & bound builds it once).
/// `basis`, when non-null and compatible, seeds the solve (dual simplex if
/// the basis is still dual feasible, primal otherwise) and receives the
/// final basis on any return, making child / neighbor re-solves start one
/// pivot away instead of from scratch.
Solution solve_lp_revised(const Model& model, const SparseColumns& cols,
                          const Objective& objective,
                          const SimplexOptions& options,
                          std::span<const BoundsOverride> overrides,
                          Basis* basis);

} // namespace luis::ilp
