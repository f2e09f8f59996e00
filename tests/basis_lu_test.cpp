// Direct tests of the basis factorization: random bases shaped like the
// allocator's (unit slacks plus sparse structural columns), bases with a
// nucleus that singleton peeling cannot remove, storage reuse across
// dimensions, singular bases and rejected eta updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "ilp/basis_lu.hpp"

namespace {

using luis::ilp::BasisLu;
using luis::ilp::SparseColumns;

using Column = std::vector<std::pair<int, double>>;

/// A structural column pool over `rows` rows and a basis drawn from it
/// (ids >= cols.cols are slacks), plus the pool ids no basis uses yet.
struct TestBasis {
  SparseColumns cols;
  std::vector<int> basic;
  std::vector<int> spare;
};

SparseColumns to_sparse(int rows, std::vector<Column> columns) {
  SparseColumns sc;
  sc.rows = rows;
  sc.cols = static_cast<int>(columns.size());
  sc.start.push_back(0);
  for (Column& c : columns) {
    std::sort(c.begin(), c.end());
    for (const auto& [r, v] : c) {
      sc.row.push_back(r);
      sc.value.push_back(v);
    }
    sc.start.push_back(static_cast<int>(sc.row.size()));
  }
  return sc;
}

/// Draws `k` distinct rows from `from` into `col` with values in
/// [-0.5, 0.5] (never exactly zero).
void add_entries(std::mt19937_64& rng, const std::vector<int>& from, int k,
                 Column& col) {
  std::vector<int> pick = from;
  std::shuffle(pick.begin(), pick.end(), rng);
  std::uniform_real_distribution<double> off(0.05, 0.5);
  std::bernoulli_distribution neg(0.5);
  for (int i = 0; i < k && i < static_cast<int>(pick.size()); ++i)
    col.emplace_back(pick[static_cast<std::size_t>(i)],
                     neg(rng) ? -off(rng) : off(rng));
}

/// About half of the rows are covered by slacks. The others hold
/// structural columns with 2-4 nonzeros that form a permuted triangle, as
/// the allocator's bases do, and with `cycle` three more rows hold a
/// cyclic block (column i on rows i and i+1 mod 3) that no singleton
/// peels. `spare` extra columns with 2-4 nonzeros can enter later.
TestBasis make_basis(std::uint64_t seed, int m, bool cycle, int spare) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> diag(1.0, 2.0);
  std::uniform_int_distribution<int> extra(1, 3);
  std::vector<int> rows(static_cast<std::size_t>(m));
  std::iota(rows.begin(), rows.end(), 0);
  std::shuffle(rows.begin(), rows.end(), rng);
  const int nblock = cycle ? 3 : 0;
  const int nslack = (m - nblock) / 2;
  const std::vector<int> slack_rows(rows.begin(), rows.begin() + nslack);
  const std::vector<int> block_rows(rows.begin() + nslack,
                                    rows.begin() + nslack + nblock);
  const std::vector<int> tri_rows(rows.begin() + nslack + nblock, rows.end());

  std::vector<Column> columns;
  std::vector<int> structural;
  // Column i of the triangle pivots on tri_rows[i]; its other entries sit
  // on slack rows and earlier triangle rows.
  std::vector<int> earlier = slack_rows;
  for (const int r : tri_rows) {
    Column col{{r, diag(rng)}};
    add_entries(rng, earlier, extra(rng), col);
    earlier.push_back(r);
    structural.push_back(static_cast<int>(columns.size()));
    columns.push_back(std::move(col));
  }
  for (int i = 0; i < nblock; ++i) {
    Column col{{block_rows[static_cast<std::size_t>(i)], diag(rng)},
               {block_rows[static_cast<std::size_t>((i + 1) % 3)], 0.5}};
    add_entries(rng, earlier, extra(rng) - 1, col);
    structural.push_back(static_cast<int>(columns.size()));
    columns.push_back(std::move(col));
  }
  std::vector<int> spare_ids;
  for (int i = 0; i < spare; ++i) {
    Column col;
    add_entries(rng, rows, 1 + extra(rng), col);
    spare_ids.push_back(static_cast<int>(columns.size()));
    columns.push_back(std::move(col));
  }

  TestBasis tb;
  tb.cols = to_sparse(m, std::move(columns));
  tb.basic = structural;
  for (const int r : slack_rows) tb.basic.push_back(tb.cols.cols + r);
  std::shuffle(tb.basic.begin(), tb.basic.end(), rng);
  tb.spare = std::move(spare_ids);
  return tb;
}

std::vector<double> dense_column(const SparseColumns& cols, int id) {
  std::vector<double> a(static_cast<std::size_t>(cols.rows), 0.0);
  if (id >= cols.cols)
    a[static_cast<std::size_t>(id - cols.cols)] = 1.0;
  else
    cols.for_entries(id, [&](int r, double v) {
      a[static_cast<std::size_t>(r)] = v;
    });
  return a;
}

/// max |B * ftran(a) - a| (a by row, ftran's result by basis position).
double ftran_residual(const BasisLu& lu, const TestBasis& tb,
                      const std::vector<double>& a) {
  std::vector<double> x = a;
  lu.ftran(x);
  std::vector<double> bx(a.size(), 0.0);
  for (std::size_t c = 0; c < tb.basic.size(); ++c) {
    const std::vector<double> col = dense_column(tb.cols, tb.basic[c]);
    for (std::size_t r = 0; r < col.size(); ++r) bx[r] += col[r] * x[c];
  }
  double worst = 0.0;
  for (std::size_t r = 0; r < a.size(); ++r)
    worst = std::max(worst, std::abs(bx[r] - a[r]));
  return worst;
}

/// max |B^T * btran(e) - e| (e by basis position, btran's result by row).
double btran_residual(const BasisLu& lu, const TestBasis& tb,
                      const std::vector<double>& e) {
  std::vector<double> y = e;
  lu.btran(y);
  double worst = 0.0;
  for (std::size_t c = 0; c < tb.basic.size(); ++c) {
    const std::vector<double> col = dense_column(tb.cols, tb.basic[c]);
    double acc = 0.0;
    for (std::size_t r = 0; r < col.size(); ++r) acc += col[r] * y[r];
    worst = std::max(worst, std::abs(acc - e[c]));
  }
  return worst;
}

/// Worst ftran/btran residual over every unit vector and a few random
/// right-hand sides.
double worst_residual(const BasisLu& lu, const TestBasis& tb,
                      std::mt19937_64& rng) {
  const std::size_t m = tb.basic.size();
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  double worst = 0.0;
  for (std::size_t k = 0; k < m + 3; ++k) {
    std::vector<double> v(m, 0.0);
    if (k < m)
      v[k] = 1.0;
    else
      for (double& x : v) x = u(rng);
    worst = std::max(worst, ftran_residual(lu, tb, v));
    worst = std::max(worst, btran_residual(lu, tb, v));
  }
  return worst;
}

/// Runs `pivots` eta updates the way the simplex does: a spare column
/// enters at the basis position where its ftran'd entry is largest.
void pivot_spares(BasisLu& lu, TestBasis& tb, int pivots) {
  int done = 0;
  while (done < pivots) {
    ASSERT_FALSE(tb.spare.empty()) << "ran out of entering columns";
    const int q = tb.spare.back();
    tb.spare.pop_back();
    std::vector<double> w = dense_column(tb.cols, q);
    lu.ftran(w);
    std::size_t pos = 0;
    for (std::size_t i = 1; i < w.size(); ++i)
      if (std::abs(w[i]) > std::abs(w[pos])) pos = i;
    if (std::abs(w[pos]) < 0.25) continue; // a poor pivot; try another
    ASSERT_TRUE(lu.update(static_cast<int>(pos), w));
    tb.spare.insert(tb.spare.begin(), tb.basic[pos]);
    tb.basic[pos] = q;
    ++done;
  }
}

constexpr double kTol = 1e-9;

TEST(BasisLu, SolvesRandomAllocatorShapedBases) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const int m = 8 + static_cast<int>(seed % 7) * 12;
    TestBasis tb = make_basis(seed, m, /*cycle=*/false, /*spare=*/m);
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(tb.cols, tb.basic)) << "seed " << seed;
    EXPECT_TRUE(lu.valid());
    EXPECT_EQ(lu.nucleus_columns(), 0) << "a triangle peels completely";
    std::mt19937_64 rng(seed);
    EXPECT_LE(worst_residual(lu, tb, rng), kTol) << "seed " << seed;
    pivot_spares(lu, tb, 20);
    EXPECT_EQ(lu.eta_count(), 20);
    EXPECT_LE(worst_residual(lu, tb, rng), kTol)
        << "seed " << seed << " after 20 updates";
  }
}

TEST(BasisLu, SolvesBasesWithACyclicNucleus) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const int m = 8 + static_cast<int>(seed % 7) * 12;
    TestBasis tb = make_basis(seed, m, /*cycle=*/true, /*spare=*/m);
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(tb.cols, tb.basic)) << "seed " << seed;
    EXPECT_EQ(lu.nucleus_columns(), 3) << "seed " << seed;
    std::mt19937_64 rng(seed);
    EXPECT_LE(worst_residual(lu, tb, rng), kTol) << "seed " << seed;
    pivot_spares(lu, tb, 20);
    EXPECT_LE(worst_residual(lu, tb, rng), kTol)
        << "seed " << seed << " after 20 updates";
    // Refactorizing the updated basis is as accurate and counts again.
    ASSERT_TRUE(lu.factorize(tb.cols, tb.basic)) << "seed " << seed;
    EXPECT_EQ(lu.factorizations(), 2);
    EXPECT_EQ(lu.eta_count(), 0);
    EXPECT_LE(worst_residual(lu, tb, rng), kTol) << "seed " << seed;
  }
}

TEST(BasisLu, ReusedStorageMatchesAFreshFactorization) {
  BasisLu reused;
  std::uint64_t seed = 100;
  for (const int m : {60, 5, 12}) {
    ++seed;
    TestBasis tb = make_basis(seed, m, /*cycle=*/m >= 12, /*spare=*/m);
    ASSERT_TRUE(reused.factorize(tb.cols, tb.basic));
    BasisLu fresh;
    ASSERT_TRUE(fresh.factorize(tb.cols, tb.basic));
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (int k = 0; k < 4; ++k) {
      std::vector<double> v(static_cast<std::size_t>(m));
      for (double& x : v) x = u(rng);
      std::vector<double> a = v, b = v;
      reused.ftran(a);
      fresh.ftran(b);
      EXPECT_EQ(a, b) << "ftran, dimension " << m;
      a = v;
      b = v;
      reused.btran(a);
      fresh.btran(b);
      EXPECT_EQ(a, b) << "btran, dimension " << m;
    }
    // Leave etas behind for the next, differently sized factorization.
    pivot_spares(reused, tb, std::min(m, 4));
  }
  EXPECT_EQ(reused.factorizations(), 3);
}

TEST(BasisLu, IdenticalColumnsAreSingular) {
  // Rows 0 and 1 are covered by two copies of one column; row 2 by its
  // slack.
  const SparseColumns cols =
      to_sparse(3, {{{0, 1.0}, {1, 2.0}}, {{0, 1.0}, {1, 2.0}}});
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(cols, {0, 1, cols.cols + 2}));
  EXPECT_FALSE(lu.valid());
  // Two copies of a column singleton collide on its row as well.
  const SparseColumns singles = to_sparse(2, {{{0, 3.0}}, {{0, 3.0}}});
  EXPECT_FALSE(lu.factorize(singles, {0, 1}));
  EXPECT_FALSE(lu.valid());
  // The object recovers on a nonsingular basis.
  EXPECT_TRUE(lu.factorize(cols, {0, cols.cols + 1, cols.cols + 2}));
  EXPECT_TRUE(lu.valid());
}

TEST(BasisLu, RejectsAnUpdateBelowThePivotFloor) {
  TestBasis tb = make_basis(7, 30, /*cycle=*/true, /*spare=*/30);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(tb.cols, tb.basic));
  pivot_spares(lu, tb, 3);
  ASSERT_EQ(lu.eta_count(), 3);
  std::vector<double> w(tb.basic.size(), 0.5);
  w[4] = 1e-12;
  EXPECT_FALSE(lu.update(4, w));
  EXPECT_EQ(lu.eta_count(), 3);
  std::mt19937_64 rng(7);
  EXPECT_LE(worst_residual(lu, tb, rng), kTol);
}

} // namespace
