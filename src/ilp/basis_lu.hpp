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
// The factorization exploits the shape of simplex bases. Unit slack
// columns are pivoted first on their own rows. Then a triangular pass
// pivots column singletons (a column with one entry left in the unpivoted
// rows: no L entries) and row singletons (a row with one entry left in the
// unpivoted columns: one L column, no Schur update), whose entries are at
// least the singularity floor. Neither kind does elimination work or
// creates fill. Only the nucleus that no singleton peels off is eliminated
// densely with partial pivoting; on the allocator's near-triangular bases
// it is almost always empty. L and U are flat position-ordered column
// arrays, so ftran/btran cost O(m + nnz(L) + nnz(U) + nnz(etas)).
//
// The eta file grows by one sparse vector per pivot, in one entry pool;
// the solver refactorizes every SimplexOptions::refactor_interval pivots
// (or when a pivot is numerically unacceptable), which caps both fill-in
// and drift. A refactorization clears the arrays without freeing them, so
// one object reused across solves stops allocating once it has seen its
// largest basis.
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

  int eta_count() const { return static_cast<int>(eta_row_.size()); }
  bool valid() const { return m_ >= 0; }

  /// Factorizations this object has run, and the columns they left to
  /// the dense elimination, summed.
  long factorizations() const { return factorizations_; }
  long nucleus_columns() const { return nucleus_columns_; }

private:
  bool eliminate_nucleus(const SparseColumns& cols,
                         const std::vector<int>& basic, int s0);

  int m_ = -1;     ///< basis dimension; -1 = not factorized
  int nslack_ = 0; ///< leading slack positions: no U entries, unit diagonal
  long factorizations_ = 0;
  long nucleus_columns_ = 0;

  // Factors in pivot-position space. Position p pivots original row
  // row_of_pos_[p] against basis column col_of_pos_[p]: slacks first,
  // then the singletons in the order they were found, the nucleus last.
  std::vector<int> row_of_pos_, pos_of_row_, col_of_pos_;
  std::vector<double> udiag_; ///< U diagonal per position
  /// Flat column arrays: L column p is lidx_/lval_[lstart_[p],
  /// lstart_[p+1]) with positions q > p; U column p the same over ustart_
  /// with positions q < p.
  std::vector<int> lstart_, lidx_, ustart_, uidx_;
  std::vector<double> lval_, uval_;
  /// Positions whose L column is not empty, ascending: only row
  /// singletons and the nucleus have any, so the triangular solves visit
  /// these instead of all m positions.
  std::vector<int> lpos_;

  /// Eta pool: eta e replaces position eta_row_[e] with pivot
  /// eta_pivot_[e]; its other entries above the drop tolerance are
  /// eta_idx_/eta_val_[eta_start_[e], eta_start_[e+1]).
  std::vector<int> eta_row_, eta_start_, eta_idx_;
  std::vector<double> eta_pivot_, eta_val_;

  // Factorization workspace: live counts, a row-wise copy of the
  // structural basics, the singleton work lists and the dense nucleus.
  std::vector<int> col_count_, row_count_, row_start_, row_col_;
  std::vector<double> row_val_;
  std::vector<int> col_list_, row_list_;
  std::vector<double> nucleus_;
  mutable std::vector<double> scratch_;
};

} // namespace luis::ilp
