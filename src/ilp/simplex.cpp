#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ilp/revised_simplex.hpp"
#include "support/diag.hpp"

namespace luis::ilp {
namespace {

// How a model variable is mapped onto nonnegative tableau columns.
struct ColumnMap {
  enum class Kind {
    Fixed,    // lower == upper: substituted away, no column
    Shifted,  // x = lower + x', x' >= 0
    Mirrored, // x = upper - x', x' >= 0 (lower == -inf, upper finite)
    Split,    // x = x+ - x- (both bounds infinite)
  };
  Kind kind = Kind::Shifted;
  int column = -1;     // first tableau column (x' or x+)
  int neg_column = -1; // x- column for Split
  double offset = 0.0; // lower (Shifted), upper (Mirrored), or fixed value
  double upper_gap = kInfinity; // residual upper bound of x' (Shifted only)
};

struct Row {
  std::vector<double> coeffs; // structural columns only
  Sense sense = Sense::LE;
  double rhs = 0.0;
};

class Tableau {
public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_((rows + 1) * (cols + 1), 0.0) {}

  double& at(std::size_t r, std::size_t c) { return data_[r * (cols_ + 1) + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * (cols_ + 1) + c]; }
  double& rhs(std::size_t r) { return data_[r * (cols_ + 1) + cols_]; }
  double rhs(std::size_t r) const { return data_[r * (cols_ + 1) + cols_]; }
  // Row `rows_` is the objective (reduced cost) row.
  double& obj(std::size_t c) { return data_[rows_ * (cols_ + 1) + c]; }
  double obj(std::size_t c) const { return data_[rows_ * (cols_ + 1) + c]; }
  double& obj_value() { return data_[rows_ * (cols_ + 1) + cols_]; }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  void pivot(std::size_t pr, std::size_t pc) {
    const std::size_t stride = cols_ + 1;
    double* prow = &data_[pr * stride];
    const double inv = 1.0 / prow[pc];
    for (std::size_t c = 0; c <= cols_; ++c) prow[c] *= inv;
    prow[pc] = 1.0;
    for (std::size_t r = 0; r <= rows_; ++r) {
      if (r == pr) continue;
      double* row = &data_[r * stride];
      const double factor = row[pc];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c <= cols_; ++c) row[c] -= factor * prow[c];
      row[pc] = 0.0;
    }
  }

private:
  std::size_t rows_, cols_;
  std::vector<double> data_;
};

struct PivotResult {
  enum class Kind { Optimal, Unbounded, IterationLimit } kind;
  long iterations = 0;
};

/// Runs simplex pivots on `t` until the reduced-cost row is nonnegative.
/// `basis[r]` names the column basic in row r. Columns at index >=
/// `priceable_cols` are never chosen to enter (used to freeze artificials
/// in phase 2).
PivotResult run_pivots(Tableau& t, std::vector<int>& basis,
                       std::size_t priceable_cols, const SimplexOptions& opt) {
  PivotResult result{PivotResult::Kind::Optimal, 0};
  long stall = 0;
  double last_obj = t.obj_value();
  for (; result.iterations < opt.max_iterations; ++result.iterations) {
    const bool bland = stall > 500; // anti-cycling fallback
    // Entering column.
    int enter = -1;
    double best = -opt.tolerance;
    for (std::size_t c = 0; c < priceable_cols; ++c) {
      const double rc = t.obj(c);
      if (rc < best) {
        enter = static_cast<int>(c);
        best = rc;
        if (bland) break; // Bland: first eligible index
      }
    }
    if (enter < 0) return result; // optimal

    // Ratio test; ties broken by smallest basis column (lexicographic-ish,
    // pairs with Bland to prevent cycling).
    int leave = -1;
    double best_ratio = kInfinity;
    for (std::size_t r = 0; r < t.rows(); ++r) {
      const double a = t.at(r, static_cast<std::size_t>(enter));
      if (a <= opt.tolerance) continue;
      const double ratio = t.rhs(r) / a;
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && leave >= 0 &&
           basis[r] < basis[static_cast<std::size_t>(leave)])) {
        best_ratio = ratio;
        leave = static_cast<int>(r);
      }
    }
    if (leave < 0) {
      result.kind = PivotResult::Kind::Unbounded;
      return result;
    }

    t.pivot(static_cast<std::size_t>(leave), static_cast<std::size_t>(enter));
    basis[static_cast<std::size_t>(leave)] = enter;

    // The objective cell stores -z, so minimization progress increases it.
    if (t.obj_value() > last_obj + 1e-12) {
      last_obj = t.obj_value();
      stall = 0;
    } else {
      ++stall;
    }
  }
  result.kind = PivotResult::Kind::IterationLimit;
  return result;
}

/// The original dense two-phase tableau simplex, kept verbatim as the
/// differential-testing reference for the revised core.
Solution solve_lp_dense(const Model& model, const SimplexOptions& opt,
                        std::span<const BoundsOverride> overrides) {
  Solution sol;
  const std::size_t nvars = model.num_variables();

  // Effective bounds.
  std::vector<double> lower(nvars), upper(nvars);
  for (std::size_t j = 0; j < nvars; ++j) {
    lower[j] = model.variables()[j].lower;
    upper[j] = model.variables()[j].upper;
  }
  for (const BoundsOverride& o : overrides) {
    lower[static_cast<std::size_t>(o.var)] = o.lower;
    upper[static_cast<std::size_t>(o.var)] = o.upper;
  }
  for (std::size_t j = 0; j < nvars; ++j) {
    if (lower[j] > upper[j] + opt.tolerance) {
      sol.status = SolveStatus::Infeasible;
      return sol;
    }
  }

  // Map model variables to nonnegative tableau columns.
  std::vector<ColumnMap> map(nvars);
  int next_col = 0;
  for (std::size_t j = 0; j < nvars; ++j) {
    ColumnMap& m = map[j];
    if (std::isfinite(lower[j]) && std::isfinite(upper[j]) &&
        upper[j] - lower[j] <= 1e-12) {
      m.kind = ColumnMap::Kind::Fixed;
      m.offset = lower[j];
    } else if (std::isfinite(lower[j])) {
      m.kind = ColumnMap::Kind::Shifted;
      m.offset = lower[j];
      m.column = next_col++;
      m.upper_gap = upper[j] - lower[j]; // may be +inf
    } else if (std::isfinite(upper[j])) {
      m.kind = ColumnMap::Kind::Mirrored;
      m.offset = upper[j];
      m.column = next_col++;
    } else {
      m.kind = ColumnMap::Kind::Split;
      m.column = next_col++;
      m.neg_column = next_col++;
    }
  }
  const auto nstruct = static_cast<std::size_t>(next_col);

  // Build rows: model constraints plus residual upper-bound rows.
  std::vector<Row> rows;
  rows.reserve(model.num_constraints() + nvars);
  auto expr_row = [&](const LinearExpr& expr, Sense sense, double rhs) {
    Row row;
    row.coeffs.assign(nstruct, 0.0);
    row.sense = sense;
    row.rhs = rhs;
    for (const auto& [var, coeff] : expr.terms()) {
      const ColumnMap& m = map[static_cast<std::size_t>(var)];
      switch (m.kind) {
      case ColumnMap::Kind::Fixed:
        row.rhs -= coeff * m.offset;
        break;
      case ColumnMap::Kind::Shifted:
        row.coeffs[static_cast<std::size_t>(m.column)] += coeff;
        row.rhs -= coeff * m.offset;
        break;
      case ColumnMap::Kind::Mirrored:
        row.coeffs[static_cast<std::size_t>(m.column)] -= coeff;
        row.rhs -= coeff * m.offset;
        break;
      case ColumnMap::Kind::Split:
        row.coeffs[static_cast<std::size_t>(m.column)] += coeff;
        row.coeffs[static_cast<std::size_t>(m.neg_column)] -= coeff;
        break;
      }
    }
    return row;
  };
  for (const Constraint& c : model.constraints())
    rows.push_back(expr_row(c.expr, c.sense, c.rhs));
  for (std::size_t j = 0; j < nvars; ++j) {
    const ColumnMap& m = map[j];
    if (m.kind == ColumnMap::Kind::Shifted && std::isfinite(m.upper_gap)) {
      Row row;
      row.coeffs.assign(nstruct, 0.0);
      row.coeffs[static_cast<std::size_t>(m.column)] = 1.0;
      row.sense = Sense::LE;
      row.rhs = m.upper_gap;
      rows.push_back(std::move(row));
    }
  }

  // Normalize to nonnegative right-hand sides.
  for (Row& row : rows) {
    if (row.rhs < 0.0) {
      for (double& c : row.coeffs) c = -c;
      row.rhs = -row.rhs;
      if (row.sense == Sense::LE)
        row.sense = Sense::GE;
      else if (row.sense == Sense::GE)
        row.sense = Sense::LE;
    }
  }

  // Count slack and artificial columns.
  std::size_t nslack = 0, nart = 0;
  for (const Row& row : rows) {
    if (row.sense != Sense::EQ) ++nslack;
    if (row.sense != Sense::LE) ++nart;
  }
  const std::size_t m = rows.size();
  const std::size_t total_cols = nstruct + nslack + nart;
  Tableau t(m, total_cols);
  std::vector<int> basis(m, -1);
  std::vector<bool> is_artificial(total_cols, false);

  std::size_t slack_at = nstruct;
  std::size_t art_at = nstruct + nslack;
  for (std::size_t r = 0; r < m; ++r) {
    const Row& row = rows[r];
    for (std::size_t c = 0; c < nstruct; ++c) t.at(r, c) = row.coeffs[c];
    t.rhs(r) = row.rhs;
    if (row.sense == Sense::LE) {
      t.at(r, slack_at) = 1.0;
      basis[r] = static_cast<int>(slack_at++);
    } else if (row.sense == Sense::GE) {
      t.at(r, slack_at) = -1.0;
      ++slack_at;
      t.at(r, art_at) = 1.0;
      is_artificial[art_at] = true;
      basis[r] = static_cast<int>(art_at++);
    } else {
      t.at(r, art_at) = 1.0;
      is_artificial[art_at] = true;
      basis[r] = static_cast<int>(art_at++);
    }
  }

  long total_iterations = 0;

  // ---- Phase 1: minimize the sum of artificials. ----
  if (nart > 0) {
    // Reduced costs: c = sum over artificial rows, negated into the obj row.
    for (std::size_t r = 0; r < m; ++r) {
      if (!is_artificial[static_cast<std::size_t>(basis[r])]) continue;
      for (std::size_t c = 0; c <= total_cols; ++c) {
        if (c == total_cols)
          t.obj_value() -= t.rhs(r);
        else if (!is_artificial[c])
          t.obj(c) -= t.at(r, c);
      }
    }
    const PivotResult p1 = run_pivots(t, basis, nstruct + nslack, opt);
    total_iterations += p1.iterations;
    if (p1.kind == PivotResult::Kind::IterationLimit) {
      sol.status = SolveStatus::IterationLimit;
      sol.iterations = total_iterations;
      return sol;
    }
    if (-t.obj_value() > 1e-6) { // artificial sum cannot reach zero
      sol.status = SolveStatus::Infeasible;
      sol.iterations = total_iterations;
      return sol;
    }
    // Drive remaining (degenerate) artificials out of the basis.
    for (std::size_t r = 0; r < m; ++r) {
      if (!is_artificial[static_cast<std::size_t>(basis[r])]) continue;
      std::size_t enter = total_cols;
      for (std::size_t c = 0; c < nstruct + nslack; ++c) {
        if (std::abs(t.at(r, c)) > opt.tolerance) {
          enter = c;
          break;
        }
      }
      if (enter < total_cols) {
        t.pivot(r, enter);
        basis[r] = static_cast<int>(enter);
        continue;
      }
      // A row with no pivot candidates is redundant. Leaving the artificial
      // merely basic is not enough: phase-2 pivots in other rows can push a
      // nonzero back into its right-hand side, silently re-violating the
      // original equality. Hard-pin the row to `artificial = 0` so no later
      // pivot can touch it.
      for (std::size_t c = 0; c < total_cols; ++c) t.at(r, c) = 0.0;
      t.at(r, static_cast<std::size_t>(basis[r])) = 1.0;
      t.rhs(r) = 0.0;
    }
    // Reset the objective row for phase 2.
    for (std::size_t c = 0; c <= total_cols; ++c) {
      if (c == total_cols)
        t.obj_value() = 0.0;
      else
        t.obj(c) = 0.0;
    }
  }

  // ---- Phase 2: the real objective (always minimized internally). ----
  const double sign = model.objective_direction() == Direction::Minimize ? 1.0 : -1.0;
  std::vector<double> cost(total_cols, 0.0);
  double const_cost = sign * model.objective().constant();
  for (const auto& [var, coeff] : model.objective().terms()) {
    const ColumnMap& cm = map[static_cast<std::size_t>(var)];
    const double c = sign * coeff;
    switch (cm.kind) {
    case ColumnMap::Kind::Fixed:
      const_cost += c * cm.offset;
      break;
    case ColumnMap::Kind::Shifted:
      cost[static_cast<std::size_t>(cm.column)] += c;
      const_cost += c * cm.offset;
      break;
    case ColumnMap::Kind::Mirrored:
      cost[static_cast<std::size_t>(cm.column)] -= c;
      const_cost += c * cm.offset;
      break;
    case ColumnMap::Kind::Split:
      cost[static_cast<std::size_t>(cm.column)] += c;
      cost[static_cast<std::size_t>(cm.neg_column)] -= c;
      break;
    }
  }
  for (std::size_t c = 0; c < total_cols; ++c) t.obj(c) = cost[c];
  // Make reduced costs of basic columns zero.
  for (std::size_t r = 0; r < m; ++r) {
    const auto b = static_cast<std::size_t>(basis[r]);
    const double cb = cost[b];
    if (cb == 0.0) continue;
    for (std::size_t c = 0; c <= total_cols; ++c) {
      if (c == total_cols)
        t.obj_value() -= cb * t.rhs(r);
      else
        t.obj(c) -= cb * t.at(r, c);
    }
  }

  const PivotResult p2 = run_pivots(t, basis, nstruct + nslack, opt);
  total_iterations += p2.iterations;
  sol.iterations = total_iterations;
  if (p2.kind == PivotResult::Kind::IterationLimit) {
    sol.status = SolveStatus::IterationLimit;
    return sol;
  }
  if (p2.kind == PivotResult::Kind::Unbounded) {
    sol.status = SolveStatus::Unbounded;
    return sol;
  }

  // Extract the solution.
  std::vector<double> col_value(total_cols, 0.0);
  for (std::size_t r = 0; r < m; ++r)
    col_value[static_cast<std::size_t>(basis[r])] = t.rhs(r);
  sol.values.assign(nvars, 0.0);
  for (std::size_t j = 0; j < nvars; ++j) {
    const ColumnMap& cm = map[j];
    switch (cm.kind) {
    case ColumnMap::Kind::Fixed:
      sol.values[j] = cm.offset;
      break;
    case ColumnMap::Kind::Shifted:
      sol.values[j] = cm.offset + col_value[static_cast<std::size_t>(cm.column)];
      break;
    case ColumnMap::Kind::Mirrored:
      sol.values[j] = cm.offset - col_value[static_cast<std::size_t>(cm.column)];
      break;
    case ColumnMap::Kind::Split:
      sol.values[j] = col_value[static_cast<std::size_t>(cm.column)] -
                      col_value[static_cast<std::size_t>(cm.neg_column)];
      break;
    }
  }
  sol.status = SolveStatus::Optimal;
  sol.objective = model.objective_value(sol.values);
  sol.best_bound = sol.objective;
  (void)const_cost; // objective recomputed from values; kept for clarity
  return sol;
}

} // namespace

const char* to_string(LpCore core) {
  return core == LpCore::Dense ? "dense" : "revised";
}

Solution solve_lp(const Model& model, const SimplexOptions& opt,
                  std::span<const BoundsOverride> overrides) {
  if (opt.core == LpCore::Dense) return solve_lp_dense(model, opt, overrides);
  const SparseColumns cols = model.sparse_columns();
  return solve_lp_revised(model, cols, opt, overrides, nullptr);
}

} // namespace luis::ilp
