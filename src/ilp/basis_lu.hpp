// LU-factorized simplex basis with an eta file.
//
// The revised simplex never forms B^{-1}. It factorizes the basis matrix
// B = P_r L U P_c once, then represents each subsequent pivot as a
// product-form eta matrix:
//
//   B_k = B_0 * E_1 * ... * E_k
//
// where E_i is the identity except for one column, the ftran'd entering
// column of pivot i. ftran/btran apply the factors in opposite orders.
//
// The factorization exploits the shape of simplex bases: unit slack
// columns are pivoted first on their own rows (triangular by construction,
// zero fill, zero elimination work), and only the remaining "bump" of
// structural columns is eliminated densely with partial pivoting. L and U
// are then stored as sparse column lists, so ftran/btran cost
// O(m + nnz(L) + nnz(U)) instead of the O(m^2) of a dense triangular
// solve — on the allocator's slack-dominated bases that is near-linear.
//
// The eta file grows by one sparse vector per pivot; the solver
// refactorizes every SimplexOptions::refactor_interval pivots (or when a
// pivot is numerically unacceptable), which caps both fill-in and drift.
#pragma once

#include <vector>

#include "ilp/model.hpp"

namespace luis::ilp {

class BasisLu {
public:
  /// Factorizes the basis given by `basic` (one column id per row; ids >=
  /// cols.cols are slack columns, i.e. unit vectors). Returns false if the
  /// basis is numerically singular.
  bool factorize(const SparseColumns& cols, const std::vector<int>& basic);

  /// Solves B x = rhs in place (forward transformation). Input is indexed
  /// by row; output by basis position (aligned with `basic`).
  void ftran(std::vector<double>& x) const;

  /// Solves B^T y = rhs in place (backward transformation). Input is
  /// indexed by basis position; output by row.
  void btran(std::vector<double>& x) const;

  /// Appends the eta for replacing basis position `row` with the column
  /// whose ftran'd representation is `w` (w = B^{-1} a_entering). Returns
  /// false — and leaves the factorization unchanged — when the pivot
  /// element w[row] is too small to update stably.
  bool update(int row, const std::vector<double>& w);

  int eta_count() const { return static_cast<int>(etas_.size()); }
  bool valid() const { return m_ >= 0; }
  void reset() { m_ = -1; }

private:
  struct Eta {
    int row = 0;
    /// Sparse ftran'd column: (row index, value) with the pivot row
    /// included. Values below the drop tolerance are not stored.
    std::vector<std::pair<int, double>> entries;
    double pivot = 1.0; ///< w[row]
  };

  int m_ = -1; ///< basis dimension; -1 = not factorized

  // Factors in pivot-position space. Position p pivots original row
  // row_of_pos_[p] against basis column col_of_pos_[p]; slack positions
  // come first, the dense-eliminated bump last.
  std::vector<int> row_of_pos_, pos_of_row_, col_of_pos_;
  std::vector<double> udiag_; ///< U diagonal per position
  /// Column lists: lcol_[p] holds (q > p, L[q][p]); ucol_[p] holds
  /// (q < p, U[q][p]).
  std::vector<std::vector<std::pair<int, double>>> lcol_, ucol_;

  std::vector<Eta> etas_;
  mutable std::vector<double> scratch_;
};

} // namespace luis::ilp
