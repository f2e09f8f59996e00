#include "ilp/model.hpp"

#include <cmath>
#include <map>

#include "support/diag.hpp"

namespace luis::ilp {

const char* to_string(SolveStatus status) {
  switch (status) {
  case SolveStatus::Optimal: return "optimal";
  case SolveStatus::Infeasible: return "infeasible";
  case SolveStatus::Unbounded: return "unbounded";
  case SolveStatus::IterationLimit: return "iteration-limit";
  case SolveStatus::NodeLimit: return "node-limit";
  }
  return "<invalid>";
}

void LinearExpr::normalize() {
  std::map<VarId, double> combined;
  for (const auto& [var, coeff] : terms_) combined[var] += coeff;
  terms_.clear();
  for (const auto& [var, coeff] : combined)
    if (coeff != 0.0) terms_.emplace_back(var, coeff);
}

Objective::Objective(Direction direction, LinearExpr expr)
    : direction(direction), expr(std::move(expr)) {
  this->expr.normalize();
}

double Objective::value(const std::vector<double>& values) const {
  double acc = expr.constant();
  for (const auto& [var, coeff] : expr.terms())
    acc += coeff * values[static_cast<std::size_t>(var)];
  return acc;
}

VarId Model::add_variable(VarKind kind, double lower, double upper) {
  LUIS_ASSERT(lower <= upper, "variable bounds crossed");
  if (kind == VarKind::Binary) {
    LUIS_ASSERT(lower >= 0.0 && upper <= 1.0, "binary bounds must be in [0,1]");
  }
  variables_.push_back(Variable{kind, lower, upper});
  return static_cast<VarId>(variables_.size()) - 1;
}

void Model::add_constraint(LinearExpr expr, Sense sense, double rhs) {
  expr.normalize();
  for (const auto& [var, coeff] : expr.terms()) {
    (void)coeff;
    LUIS_ASSERT(var >= 0 && static_cast<std::size_t>(var) < variables_.size(),
                "constraint references unknown variable");
  }
  // Fold the expression constant into the right-hand side.
  const double folded_rhs = rhs - expr.constant();
  constraints_.push_back(Constraint{std::move(expr), sense, folded_rhs});
}

SparseColumns Model::sparse_columns() const {
  SparseColumns out;
  out.rows = static_cast<int>(constraints_.size());
  out.cols = static_cast<int>(variables_.size());
  // Count entries per column, then fill with a running cursor.
  std::vector<int> count(variables_.size(), 0);
  std::size_t nnz = 0;
  for (const Constraint& c : constraints_) {
    for (const auto& [var, coeff] : c.expr.terms()) {
      (void)coeff;
      ++count[static_cast<std::size_t>(var)];
      ++nnz;
    }
  }
  out.start.assign(variables_.size() + 1, 0);
  for (std::size_t j = 0; j < variables_.size(); ++j)
    out.start[j + 1] = out.start[j] + count[j];
  out.row.resize(nnz);
  out.value.resize(nnz);
  std::vector<int> cursor(out.start.begin(), out.start.end() - 1);
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    for (const auto& [var, coeff] : constraints_[i].expr.terms()) {
      const int at = cursor[static_cast<std::size_t>(var)]++;
      out.row[static_cast<std::size_t>(at)] = static_cast<int>(i);
      out.value[static_cast<std::size_t>(at)] = coeff;
    }
  }
  return out;
}

} // namespace luis::ilp
