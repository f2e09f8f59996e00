#include "ilp/basis_lu.hpp"

#include <algorithm>
#include <cmath>

namespace luis::ilp {
namespace {

constexpr double kPivotFloor = 1e-11; ///< singularity threshold
constexpr double kUpdateFloor = 1e-9; ///< minimum stable eta pivot
constexpr double kDropTol = 1e-14;    ///< entries below this are noise

} // namespace

bool BasisLu::factorize(const SparseColumns& cols, const std::vector<int>& basic) {
  const int m = static_cast<int>(basic.size());
  m_ = m;
  etas_.clear();
  row_of_pos_.assign(static_cast<std::size_t>(m), -1);
  pos_of_row_.assign(static_cast<std::size_t>(m), -1);
  col_of_pos_.assign(static_cast<std::size_t>(m), -1);
  udiag_.assign(static_cast<std::size_t>(m), 1.0);
  lcol_.assign(static_cast<std::size_t>(m), {});
  ucol_.assign(static_cast<std::size_t>(m), {});
  if (m == 0) return true;

  // Phase A: pivot every slack basic on its own row. A slack column is a
  // unit vector, so these pivots are triangular by construction — no
  // elimination work and no fill.
  int npos = 0;
  for (int c = 0; c < m; ++c) {
    const int col = basic[static_cast<std::size_t>(c)];
    if (col < cols.cols) continue;
    const int r = col - cols.cols;
    row_of_pos_[static_cast<std::size_t>(npos)] = r;
    pos_of_row_[static_cast<std::size_t>(r)] = npos;
    col_of_pos_[static_cast<std::size_t>(npos)] = c;
    ++npos;
  }
  const int s0 = npos; // bump starts here
  const int s = m - s0;

  // Remaining rows (in index order) host the bump.
  for (int r = 0; r < m; ++r) {
    if (pos_of_row_[static_cast<std::size_t>(r)] >= 0) continue;
    row_of_pos_[static_cast<std::size_t>(npos)] = r;
    pos_of_row_[static_cast<std::size_t>(r)] = npos;
    ++npos;
  }

  // Phase B: scatter the structural basics. Entries landing on slack rows
  // are finished U entries (those rows sit above every bump row); entries
  // on bump rows form the dense s x s bump to eliminate.
  std::vector<double> bump(static_cast<std::size_t>(s) * static_cast<std::size_t>(s), 0.0);
  const auto at = [&](int br, int bc) -> double& {
    return bump[static_cast<std::size_t>(br) * static_cast<std::size_t>(s) +
                static_cast<std::size_t>(bc)];
  };
  int k = 0;
  for (int c = 0; c < m; ++c) {
    const int col = basic[static_cast<std::size_t>(c)];
    if (col >= cols.cols) continue;
    const int p = s0 + k;
    col_of_pos_[static_cast<std::size_t>(p)] = c;
    cols.for_entries(col, [&](int r, double v) {
      const int rp = pos_of_row_[static_cast<std::size_t>(r)];
      if (rp < s0)
        ucol_[static_cast<std::size_t>(p)].emplace_back(rp, v);
      else
        at(rp - s0, k) = v;
    });
    ++k;
  }

  // Dense Gaussian elimination with partial pivoting on the bump. Row
  // swaps permute row_of_pos_ within the bump region only; the inner
  // updates skip zero multipliers, so sparse bumps stay cheap.
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
    if (best < kPivotFloor) {
      m_ = -1;
      return false; // singular basis
    }
    if (piv != kk) {
      for (int c = 0; c < s; ++c) std::swap(at(kk, c), at(piv, c));
      std::swap(row_of_pos_[static_cast<std::size_t>(s0 + kk)],
                row_of_pos_[static_cast<std::size_t>(s0 + piv)]);
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
  for (int p = s0; p < m; ++p)
    pos_of_row_[static_cast<std::size_t>(row_of_pos_[static_cast<std::size_t>(p)])] = p;

  // Extract the bump's triangles into the sparse column lists.
  for (int kk = 0; kk < s; ++kk) {
    const int p = s0 + kk;
    udiag_[static_cast<std::size_t>(p)] = at(kk, kk);
    for (int r = 0; r < kk; ++r) {
      const double u = at(r, kk);
      if (u != 0.0) ucol_[static_cast<std::size_t>(p)].emplace_back(s0 + r, u);
    }
    for (int r = kk + 1; r < s; ++r) {
      const double l = at(r, kk);
      if (l != 0.0) lcol_[static_cast<std::size_t>(p)].emplace_back(s0 + r, l);
    }
  }
  return true;
}

void BasisLu::ftran(std::vector<double>& x) const {
  const int m = m_;
  if (m <= 0) return;
  std::vector<double>& t = scratch_;
  t.resize(static_cast<std::size_t>(m));
  for (int p = 0; p < m; ++p)
    t[static_cast<std::size_t>(p)] =
        x[static_cast<std::size_t>(row_of_pos_[static_cast<std::size_t>(p)])];
  // L solve: forward column-oriented scatter, skipping zero positions.
  for (int p = 0; p < m; ++p) {
    const double tp = t[static_cast<std::size_t>(p)];
    if (tp == 0.0) continue;
    for (const auto& [q, v] : lcol_[static_cast<std::size_t>(p)])
      t[static_cast<std::size_t>(q)] -= v * tp;
  }
  // U solve: backward column-oriented scatter.
  for (int p = m - 1; p >= 0; --p) {
    const double tp = t[static_cast<std::size_t>(p)] / udiag_[static_cast<std::size_t>(p)];
    t[static_cast<std::size_t>(p)] = tp;
    if (tp == 0.0) continue;
    for (const auto& [q, v] : ucol_[static_cast<std::size_t>(p)])
      t[static_cast<std::size_t>(q)] -= v * tp;
  }
  for (int p = 0; p < m; ++p)
    x[static_cast<std::size_t>(col_of_pos_[static_cast<std::size_t>(p)])] =
        t[static_cast<std::size_t>(p)];
  // E_i^{-1}: x[row] /= pivot; x[j] -= w[j] * x[row] for j != row.
  for (const Eta& e : etas_) {
    const double xr = x[static_cast<std::size_t>(e.row)] / e.pivot;
    if (xr != 0.0) {
      for (const auto& [r, v] : e.entries)
        if (r != e.row) x[static_cast<std::size_t>(r)] -= v * xr;
    }
    x[static_cast<std::size_t>(e.row)] = xr;
  }
}

void BasisLu::btran(std::vector<double>& x) const {
  const int m = m_;
  if (m <= 0) return;
  // (E_k ... E_1)^T applied inverse in reverse order first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const Eta& e = *it;
    double acc = x[static_cast<std::size_t>(e.row)];
    for (const auto& [r, v] : e.entries)
      if (r != e.row) acc -= v * x[static_cast<std::size_t>(r)];
    x[static_cast<std::size_t>(e.row)] = acc / e.pivot;
  }
  std::vector<double>& t = scratch_;
  t.resize(static_cast<std::size_t>(m));
  for (int p = 0; p < m; ++p)
    t[static_cast<std::size_t>(p)] =
        x[static_cast<std::size_t>(col_of_pos_[static_cast<std::size_t>(p)])];
  // U^T solve: forward gather over U's column lists.
  for (int p = 0; p < m; ++p) {
    double acc = t[static_cast<std::size_t>(p)];
    for (const auto& [q, v] : ucol_[static_cast<std::size_t>(p)])
      acc -= v * t[static_cast<std::size_t>(q)];
    t[static_cast<std::size_t>(p)] = acc / udiag_[static_cast<std::size_t>(p)];
  }
  // L^T solve: backward gather over L's column lists.
  for (int p = m - 1; p >= 0; --p) {
    double acc = t[static_cast<std::size_t>(p)];
    for (const auto& [q, v] : lcol_[static_cast<std::size_t>(p)])
      acc -= v * t[static_cast<std::size_t>(q)];
    t[static_cast<std::size_t>(p)] = acc;
  }
  for (int p = 0; p < m; ++p)
    x[static_cast<std::size_t>(row_of_pos_[static_cast<std::size_t>(p)])] =
        t[static_cast<std::size_t>(p)];
}

bool BasisLu::update(int row, const std::vector<double>& w) {
  const double pivot = w[static_cast<std::size_t>(row)];
  if (std::abs(pivot) < kUpdateFloor) return false;
  Eta e;
  e.row = row;
  e.pivot = pivot;
  for (int r = 0; r < m_; ++r) {
    const double v = w[static_cast<std::size_t>(r)];
    if (std::abs(v) > kDropTol) e.entries.emplace_back(r, v);
  }
  etas_.push_back(std::move(e));
  return true;
}

} // namespace luis::ilp
