// Mixed integer linear programming model.
//
// This is the in-memory problem description consumed by the simplex LP
// solver and the branch & bound MILP driver. It plays the role that the
// Google OR-Tools modeling layer plays in the paper's implementation.
// A Model is the feasible region only (variables and rows, numbered, not
// named); every solve takes an Objective beside it, so one read-only model
// serves any number of objectives, concurrently too.
#pragma once

#include <limits>
#include <utility>
#include <vector>

namespace luis::ilp {

using VarId = int;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarKind { Continuous, Integer, Binary };

struct Variable {
  VarKind kind = VarKind::Continuous;
  double lower = 0.0;
  double upper = kInfinity;
};

/// A linear expression: sum of coeff * var terms plus a constant offset.
/// Duplicate variables are allowed while building; they are combined when
/// the expression becomes a model row or an Objective.
class LinearExpr {
public:
  LinearExpr() = default;

  LinearExpr& add(VarId var, double coeff) {
    if (coeff != 0.0) terms_.emplace_back(var, coeff);
    return *this;
  }
  LinearExpr& add_constant(double c) {
    constant_ += c;
    return *this;
  }

  const std::vector<std::pair<VarId, double>>& terms() const { return terms_; }
  double constant() const { return constant_; }

  /// Combines duplicate variables and drops zero coefficients.
  void normalize();

private:
  std::vector<std::pair<VarId, double>> terms_;
  double constant_ = 0.0;
};

enum class Sense { LE, GE, EQ };

struct Constraint {
  LinearExpr expr;
  Sense sense = Sense::LE;
  double rhs = 0.0;
};

enum class Direction { Minimize, Maximize };

/// What one solve optimizes: a direction and a normalized expression (one
/// nonzero term per variable, ascending) with its constant.
struct Objective {
  Direction direction = Direction::Minimize;
  LinearExpr expr;

  Objective() = default;
  /// Normalizes `expr`.
  Objective(Direction direction, LinearExpr expr);

  /// Evaluates the objective on an assignment.
  double value(const std::vector<double>& values) const;
};

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit, NodeLimit };

const char* to_string(SolveStatus status);

struct Solution {
  SolveStatus status = SolveStatus::Infeasible;
  double objective = 0.0;
  std::vector<double> values; ///< one entry per variable
  long iterations = 0;        ///< total simplex pivots
  long nodes = 0;             ///< branch & bound nodes explored (MILP only)
  double best_bound = 0.0;    ///< proven bound on the optimum (MILP only)

  double value(VarId var) const { return values[static_cast<std::size_t>(var)]; }
};

/// Column-wise (compressed sparse column) view of a model's constraint
/// matrix. The revised simplex prices and ftran's one column at a time, so
/// this is its native storage; it is built once per model and shared across
/// every branch & bound node and warm-started re-solve (bound overrides
/// never change the matrix, only the bound vectors).
struct SparseColumns {
  int rows = 0; ///< constraints
  int cols = 0; ///< structural variables
  std::vector<int> start;    ///< per column: first entry index; size cols+1
  std::vector<int> row;      ///< row index per entry
  std::vector<double> value; ///< coefficient per entry

  /// Calls fn(row, value) for every entry of column j.
  template <typename Fn> void for_entries(int j, Fn&& fn) const {
    for (int k = start[static_cast<std::size_t>(j)];
         k < start[static_cast<std::size_t>(j) + 1]; ++k)
      fn(row[static_cast<std::size_t>(k)], value[static_cast<std::size_t>(k)]);
  }
};

class Model {
public:
  VarId add_variable(VarKind kind, double lower, double upper);
  VarId add_continuous(double lower = 0.0, double upper = kInfinity) {
    return add_variable(VarKind::Continuous, lower, upper);
  }
  VarId add_integer(double lower, double upper) {
    return add_variable(VarKind::Integer, lower, upper);
  }
  VarId add_binary() { return add_variable(VarKind::Binary, 0.0, 1.0); }

  void add_constraint(LinearExpr expr, Sense sense, double rhs);
  void add_le(LinearExpr expr, double rhs) {
    add_constraint(std::move(expr), Sense::LE, rhs);
  }
  void add_ge(LinearExpr expr, double rhs) {
    add_constraint(std::move(expr), Sense::GE, rhs);
  }
  void add_eq(LinearExpr expr, double rhs) {
    add_constraint(std::move(expr), Sense::EQ, rhs);
  }

  std::size_t num_variables() const { return variables_.size(); }
  std::size_t num_constraints() const { return constraints_.size(); }

  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Builds the column-wise sparse form of the constraint matrix.
  /// Duplicate terms are already combined by add_constraint's normalize.
  SparseColumns sparse_columns() const;

private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

} // namespace luis::ilp
