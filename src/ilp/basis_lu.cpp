#include "ilp/basis_lu.hpp"

#include <algorithm>
#include <cmath>

namespace luis::ilp {
namespace {

constexpr double kPivotFloor = 1e-11; ///< singularity threshold
constexpr double kUpdateFloor = 1e-9; ///< minimum stable eta pivot
constexpr double kDropTol = 1e-14;    ///< entries below this are noise

std::size_t sz(int i) { return static_cast<std::size_t>(i); }

} // namespace

bool BasisLu::factorize(const SparseColumns& cols, const std::vector<int>& basic) {
  const int m = static_cast<int>(basic.size());
  ++factorizations_;
  m_ = m;
  eta_row_.clear();
  eta_pivot_.clear();
  eta_idx_.clear();
  eta_val_.clear();
  eta_start_.assign(1, 0);
  row_of_pos_.assign(sz(m), -1);
  pos_of_row_.assign(sz(m), -1);
  col_of_pos_.assign(sz(m), -1);
  udiag_.assign(sz(m), 1.0);
  lstart_.clear();
  lidx_.clear();
  lval_.clear();
  ustart_.clear();
  uidx_.clear();
  uval_.clear();
  lpos_.clear();

  // Slack pass: pivot every slack basic on its own row. A slack column is
  // a unit vector, so these pivots need no elimination and make no fill.
  // col_count_ marks a pivoted basis column with -1.
  col_count_.assign(sz(m), 0);
  int npos = 0;
  for (int c = 0; c < m; ++c) {
    const int col = basic[sz(c)];
    if (col < cols.cols) continue;
    const int r = col - cols.cols;
    row_of_pos_[sz(npos)] = r;
    pos_of_row_[sz(r)] = npos;
    col_of_pos_[sz(npos)] = c;
    lstart_.push_back(0);
    ustart_.push_back(0);
    col_count_[sz(c)] = -1;
    ++npos;
  }
  nslack_ = npos;

  // Live counts over the unpivoted rows and columns, and a row-wise copy
  // of the structural basics there (row r's columns ascending in
  // row_col_/row_val_[row_start_[r], row_start_[r+1])).
  row_start_.assign(sz(m) + 2, 0);
  for (int c = 0; c < m; ++c) {
    if (col_count_[sz(c)] < 0) continue;
    cols.for_entries(basic[sz(c)], [&](int r, double) {
      if (pos_of_row_[sz(r)] >= 0) return;
      ++col_count_[sz(c)];
      ++row_start_[sz(r) + 2];
    });
  }
  for (int r = 2; r <= m + 1; ++r) row_start_[sz(r)] += row_start_[sz(r) - 1];
  row_col_.resize(sz(row_start_[sz(m) + 1]));
  row_val_.resize(row_col_.size());
  for (int c = 0; c < m; ++c) {
    if (col_count_[sz(c)] < 0) continue;
    cols.for_entries(basic[sz(c)], [&](int r, double v) {
      if (pos_of_row_[sz(r)] >= 0) return;
      const int k = row_start_[sz(r) + 1]++;
      row_col_[sz(k)] = c;
      row_val_[sz(k)] = v;
    });
  }
  row_count_.assign(sz(m), -1);
  for (int r = 0; r < m; ++r)
    if (pos_of_row_[sz(r)] < 0)
      row_count_[sz(r)] = row_start_[sz(r) + 1] - row_start_[sz(r)];

  // Triangular pass. A column singleton (one entry left in the unpivoted
  // rows) pivots with no L entries; a row singleton (one entry left in the
  // unpivoted columns) pivots with one L column and leaves the rest of the
  // matrix untouched. Entries below the floor are left to the nucleus.
  col_list_.clear();
  row_list_.clear();
  for (int c = 0; c < m; ++c)
    if (col_count_[sz(c)] == 1) col_list_.push_back(c);
  for (int r = 0; r < m; ++r)
    if (row_count_[sz(r)] == 1) row_list_.push_back(r);
  std::size_t next_col = 0, next_row = 0;
  for (;;) {
    int r = -1, c = -1;
    double v = 0.0;
    if (next_col < col_list_.size()) {
      c = col_list_[next_col++];
      if (col_count_[sz(c)] != 1) continue;
      cols.for_entries(basic[sz(c)], [&](int rr, double vv) {
        if (pos_of_row_[sz(rr)] < 0) {
          r = rr;
          v = vv;
        }
      });
    } else if (next_row < row_list_.size()) {
      r = row_list_[next_row++];
      if (row_count_[sz(r)] != 1 || pos_of_row_[sz(r)] >= 0) continue;
      for (int k = row_start_[sz(r)]; k < row_start_[sz(r) + 1]; ++k) {
        if (col_count_[sz(row_col_[sz(k)])] < 0) continue;
        c = row_col_[sz(k)];
        v = row_val_[sz(k)];
        break;
      }
    } else {
      break;
    }
    if (std::abs(v) < kPivotFloor) continue;

    const int p = npos++;
    row_of_pos_[sz(p)] = r;
    pos_of_row_[sz(r)] = p;
    col_of_pos_[sz(p)] = c;
    udiag_[sz(p)] = v;
    col_count_[sz(c)] = -1;
    lstart_.push_back(static_cast<int>(lidx_.size()));
    ustart_.push_back(static_cast<int>(uidx_.size()));
    // Entries on rows pivoted earlier are finished U entries; entries on
    // unpivoted rows (row singletons only) are L multipliers, kept by row
    // until every row has its position.
    cols.for_entries(basic[sz(c)], [&](int rr, double vv) {
      if (rr == r) return;
      const int q = pos_of_row_[sz(rr)];
      if (q >= 0) {
        uidx_.push_back(q);
        uval_.push_back(vv);
      } else {
        lidx_.push_back(rr);
        lval_.push_back(vv / v);
        if (--row_count_[sz(rr)] == 1) row_list_.push_back(rr);
      }
    });
    for (int k = row_start_[sz(r)]; k < row_start_[sz(r) + 1]; ++k) {
      const int c2 = row_col_[sz(k)];
      if (col_count_[sz(c2)] > 0 && --col_count_[sz(c2)] == 1)
        col_list_.push_back(c2);
    }
  }

  const std::size_t singleton_l = lidx_.size();
  const int s0 = npos;
  nucleus_columns_ += m - s0;
  if (s0 < m && !eliminate_nucleus(cols, basic, s0)) {
    m_ = -1;
    return false; // singular basis
  }
  for (std::size_t k = 0; k < singleton_l; ++k)
    lidx_[k] = pos_of_row_[sz(lidx_[k])];
  lstart_.push_back(static_cast<int>(lidx_.size()));
  ustart_.push_back(static_cast<int>(uidx_.size()));
  for (int p = 0; p < m; ++p)
    if (lstart_[sz(p)] < lstart_[sz(p) + 1]) lpos_.push_back(p);
  return true;
}

bool BasisLu::eliminate_nucleus(const SparseColumns& cols,
                                const std::vector<int>& basic, int s0) {
  const int m = m_;
  const int s = m - s0;
  // The unpivoted rows host the nucleus in index order, the unpivoted
  // columns in basis order.
  for (int r = 0, p = s0; r < m; ++r) {
    if (pos_of_row_[sz(r)] >= 0) continue;
    row_of_pos_[sz(p)] = r;
    pos_of_row_[sz(r)] = p;
    ++p;
  }
  for (int c = 0, p = s0; c < m; ++c)
    if (col_count_[sz(c)] >= 0) col_of_pos_[sz(p++)] = c;

  nucleus_.assign(sz(s) * sz(s), 0.0);
  const auto at = [&](int br, int bc) -> double& {
    return nucleus_[sz(br) * sz(s) + sz(bc)];
  };
  for (int kk = 0; kk < s; ++kk) {
    cols.for_entries(basic[sz(col_of_pos_[sz(s0 + kk)])], [&](int r, double v) {
      const int rp = pos_of_row_[sz(r)];
      if (rp >= s0) at(rp - s0, kk) = v;
    });
  }

  // Dense Gaussian elimination with partial pivoting. Row swaps permute
  // row_of_pos_ within the nucleus only; the inner updates skip zero
  // multipliers, so sparse nuclei stay cheap.
  for (int kk = 0; kk < s; ++kk) {
    int piv = kk;
    double best = std::abs(at(kk, kk));
    for (int r = kk + 1; r < s; ++r) {
      const double a = std::abs(at(r, kk));
      if (a > best) {
        best = a;
        piv = r;
      }
    }
    if (best < kPivotFloor) return false;
    if (piv != kk) {
      for (int c = 0; c < s; ++c) std::swap(at(kk, c), at(piv, c));
      std::swap(row_of_pos_[sz(s0 + kk)], row_of_pos_[sz(s0 + piv)]);
    }
    const double inv = 1.0 / at(kk, kk);
    for (int r = kk + 1; r < s; ++r) {
      const double factor = at(r, kk) * inv;
      if (factor == 0.0) continue;
      at(r, kk) = factor; // store the L multiplier in place
      for (int c = kk + 1; c < s; ++c) {
        const double u = at(kk, c);
        if (u != 0.0) at(r, c) -= factor * u;
      }
    }
  }
  for (int p = s0; p < m; ++p) pos_of_row_[sz(row_of_pos_[sz(p)])] = p;

  // A nucleus column's entries on rows pivoted before the nucleus are
  // finished U entries; the rest come out of the eliminated block.
  for (int kk = 0; kk < s; ++kk) {
    const int p = s0 + kk;
    ustart_.push_back(static_cast<int>(uidx_.size()));
    cols.for_entries(basic[sz(col_of_pos_[sz(p)])], [&](int r, double v) {
      const int rp = pos_of_row_[sz(r)];
      if (rp < s0) {
        uidx_.push_back(rp);
        uval_.push_back(v);
      }
    });
    for (int r = 0; r < kk; ++r) {
      const double u = at(r, kk);
      if (u == 0.0) continue;
      uidx_.push_back(s0 + r);
      uval_.push_back(u);
    }
    lstart_.push_back(static_cast<int>(lidx_.size()));
    for (int r = kk + 1; r < s; ++r) {
      const double l = at(r, kk);
      if (l == 0.0) continue;
      lidx_.push_back(s0 + r);
      lval_.push_back(l);
    }
    udiag_[sz(p)] = at(kk, kk);
  }
  return true;
}

void BasisLu::ftran(std::vector<double>& x) const {
  const int m = m_;
  if (m <= 0) return;
  std::vector<double>& t = scratch_;
  t.resize(sz(m));
  for (int p = 0; p < m; ++p) t[sz(p)] = x[sz(row_of_pos_[sz(p)])];
  // L solve: forward column-oriented scatter, skipping zero positions.
  for (const int p : lpos_) {
    const double tp = t[sz(p)];
    if (tp == 0.0) continue;
    for (int k = lstart_[sz(p)]; k < lstart_[sz(p) + 1]; ++k)
      t[sz(lidx_[sz(k)])] -= lval_[sz(k)] * tp;
  }
  // U solve: backward column-oriented scatter (slack positions are unit).
  for (int p = m - 1; p >= nslack_; --p) {
    const double tp = t[sz(p)] / udiag_[sz(p)];
    t[sz(p)] = tp;
    if (tp == 0.0) continue;
    for (int k = ustart_[sz(p)]; k < ustart_[sz(p) + 1]; ++k)
      t[sz(uidx_[sz(k)])] -= uval_[sz(k)] * tp;
  }
  for (int p = 0; p < m; ++p) x[sz(col_of_pos_[sz(p)])] = t[sz(p)];
  // E_i^{-1}: x[row] /= pivot; x[j] -= w[j] * x[row] for j != row.
  for (std::size_t e = 0; e < eta_row_.size(); ++e) {
    const int row = eta_row_[e];
    const double xr = x[sz(row)] / eta_pivot_[e];
    if (xr != 0.0) {
      for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k)
        x[sz(eta_idx_[sz(k)])] -= eta_val_[sz(k)] * xr;
    }
    x[sz(row)] = xr;
  }
}

void BasisLu::btran(std::vector<double>& x) const {
  const int m = m_;
  if (m <= 0) return;
  // (E_k ... E_1)^T applied inverse in reverse order first.
  for (std::size_t e = eta_row_.size(); e-- > 0;) {
    const int row = eta_row_[e];
    double acc = x[sz(row)];
    for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k)
      acc -= eta_val_[sz(k)] * x[sz(eta_idx_[sz(k)])];
    x[sz(row)] = acc / eta_pivot_[e];
  }
  std::vector<double>& t = scratch_;
  t.resize(sz(m));
  for (int p = 0; p < m; ++p) t[sz(p)] = x[sz(col_of_pos_[sz(p)])];
  // U^T solve: forward gather over U's columns (slack positions are unit).
  for (int p = nslack_; p < m; ++p) {
    double acc = t[sz(p)];
    for (int k = ustart_[sz(p)]; k < ustart_[sz(p) + 1]; ++k)
      acc -= uval_[sz(k)] * t[sz(uidx_[sz(k)])];
    t[sz(p)] = acc / udiag_[sz(p)];
  }
  // L^T solve: backward gather over L's columns.
  for (auto it = lpos_.rbegin(); it != lpos_.rend(); ++it) {
    const int p = *it;
    double acc = t[sz(p)];
    for (int k = lstart_[sz(p)]; k < lstart_[sz(p) + 1]; ++k)
      acc -= lval_[sz(k)] * t[sz(lidx_[sz(k)])];
    t[sz(p)] = acc;
  }
  for (int p = 0; p < m; ++p) x[sz(row_of_pos_[sz(p)])] = t[sz(p)];
}

bool BasisLu::update(int row, const std::vector<double>& w) {
  const double pivot = w[sz(row)];
  if (std::abs(pivot) < kUpdateFloor) return false;
  eta_row_.push_back(row);
  eta_pivot_.push_back(pivot);
  for (int r = 0; r < m_; ++r) {
    const double v = w[sz(r)];
    if (r == row || std::abs(v) <= kDropTol) continue;
    eta_idx_.push_back(r);
    eta_val_.push_back(v);
  }
  eta_start_.push_back(static_cast<int>(eta_idx_.size()));
  return true;
}

} // namespace luis::ilp
