#include "testing/ilp_fuzz.hpp"

#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "ilp/lp_reader.hpp"
#include "ilp/lp_writer.hpp"
#include "ilp/solver_cache.hpp"
#include "support/diag.hpp"
#include "support/string_utils.hpp"

namespace luis::testing {
namespace {

using ilp::BranchAndBoundOptions;
using ilp::Model;
using ilp::Sense;
using ilp::Solution;
using ilp::SolveStatus;

/// Nonzero coefficient: a small integer, occasionally a half-integer.
/// Halves are exact in binary64, so every generated instance has an exact
/// enumeration answer — disagreements are solver bugs, never float noise.
double random_coeff(Rng& rng, const IlpGenOptions& opt) {
  double c = static_cast<double>(rng.next_int(1, opt.coeff_range));
  if (rng.next_bool(opt.fractional_coeff_p)) c += 0.5;
  return rng.next_bool(0.5) ? c : -c;
}

} // namespace

IlpInstance random_ilp_instance(Rng& rng, const IlpGenOptions& opt) {
  IlpInstance out;
  Model& model = out.model;
  const int nvars = static_cast<int>(rng.next_int(1, opt.max_variables));
  for (int j = 0; j < nvars; ++j) {
    const double lo = static_cast<double>(rng.next_int(-2, 1));
    const double hi = lo + static_cast<double>(rng.next_int(0, opt.max_bound_span));
    if (lo == 0.0 && hi == 1.0 && rng.next_bool(0.5)) {
      model.add_binary();
    } else {
      model.add_integer(lo, hi);
    }
  }

  const int nrows = static_cast<int>(rng.next_int(0, opt.max_constraints));
  for (int i = 0; i < nrows; ++i) {
    ilp::LinearExpr expr;
    // Achievable range of the left-hand side over the variable box, used
    // to place the rhs so that roughly half the rows actually bind.
    double lhs_min = 0.0, lhs_max = 0.0;
    bool any = false;
    for (int j = 0; j < nvars; ++j) {
      if (!rng.next_bool(0.6) && !(j + 1 == nvars && !any)) continue;
      const double c = random_coeff(rng, opt);
      expr.add(j, c);
      const ilp::Variable& v = model.variables()[static_cast<std::size_t>(j)];
      lhs_min += c * (c > 0.0 ? v.lower : v.upper);
      lhs_max += c * (c > 0.0 ? v.upper : v.lower);
      any = true;
    }
    // rhs on the half-integer grid, spanning just past the achievable
    // range so infeasible and slack rows both occur.
    const double rhs =
        std::round(rng.next_double(lhs_min - 1.5, lhs_max + 1.5) * 2.0) / 2.0;
    const std::uint64_t pick = rng.next_below(5);
    const Sense sense =
        pick < 2 ? Sense::LE : (pick < 4 ? Sense::GE : Sense::EQ);
    model.add_constraint(std::move(expr), sense, rhs);
  }

  ilp::LinearExpr objective;
  for (int j = 0; j < nvars; ++j)
    if (rng.next_bool(0.7)) objective.add(j, random_coeff(rng, opt));
  if (rng.next_bool(0.3))
    objective.add_constant(static_cast<double>(rng.next_int(-3, 3)) +
                           (rng.next_bool(0.3) ? 0.5 : 0.0));
  out.objective = ilp::Objective(
      rng.next_bool(0.5) ? ilp::Direction::Minimize : ilp::Direction::Maximize,
      std::move(objective));
  return out;
}

EnumerationResult enumerate_optimum(const IlpInstance& instance) {
  const Model& model = instance.model;
  const std::size_t n = model.num_variables();
  std::vector<std::int64_t> lo(n), hi(n), cur(n);
  long points_total = 1;
  for (std::size_t j = 0; j < n; ++j) {
    const ilp::Variable& v = model.variables()[j];
    LUIS_ASSERT(v.kind != ilp::VarKind::Continuous,
                "enumeration oracle needs a pure-integer model");
    LUIS_ASSERT(std::isfinite(v.lower) && std::isfinite(v.upper),
                "enumeration oracle needs finite bounds");
    lo[j] = static_cast<std::int64_t>(std::ceil(v.lower - 1e-9));
    hi[j] = static_cast<std::int64_t>(std::floor(v.upper + 1e-9));
    const long span = static_cast<long>(hi[j] - lo[j] + 1);
    LUIS_ASSERT(span > 0, "empty integer box");
    points_total *= span;
    LUIS_ASSERT(points_total <= 10'000'000, "integer box too large to enumerate");
    cur[j] = lo[j];
  }

  EnumerationResult out;
  const double sign =
      instance.objective.direction == ilp::Direction::Minimize ? 1.0 : -1.0;
  std::vector<double> point(n);
  for (;;) {
    ++out.points;
    for (std::size_t j = 0; j < n; ++j) point[j] = static_cast<double>(cur[j]);
    bool feasible = true;
    for (const ilp::Constraint& c : model.constraints()) {
      double lhs = 0.0;
      for (const auto& [var, coeff] : c.expr.terms())
        lhs += coeff * point[static_cast<std::size_t>(var)];
      switch (c.sense) {
      case Sense::LE: feasible = lhs <= c.rhs + 1e-9; break;
      case Sense::GE: feasible = lhs >= c.rhs - 1e-9; break;
      case Sense::EQ: feasible = std::abs(lhs - c.rhs) <= 1e-9; break;
      }
      if (!feasible) break;
    }
    if (feasible) {
      const double obj = instance.objective.value(point);
      if (!out.feasible || sign * obj < sign * out.objective - 1e-12) {
        out.feasible = true;
        out.objective = obj;
        out.values = point;
      }
    }
    // Mixed-radix increment.
    std::size_t j = 0;
    while (j < n && ++cur[j] > hi[j]) cur[j] = lo[j], ++j;
    if (j == n) break;
  }
  return out;
}

namespace {

/// Editable mirror of an instance (the Model API is append-only by design).
struct ModelParts {
  struct Row {
    std::vector<std::pair<int, double>> terms;
    Sense sense = Sense::LE;
    double rhs = 0.0;
  };
  std::vector<ilp::Variable> variables;
  std::vector<Row> rows;
  std::vector<std::pair<int, double>> objective;
  double objective_constant = 0.0;
  ilp::Direction direction = ilp::Direction::Minimize;

  static ModelParts of(const IlpInstance& instance) {
    const Model& model = instance.model;
    ModelParts p;
    p.variables = model.variables();
    for (const ilp::Constraint& c : model.constraints()) {
      Row row;
      for (const auto& [var, coeff] : c.expr.terms())
        row.terms.emplace_back(static_cast<int>(var), coeff);
      row.sense = c.sense;
      row.rhs = c.rhs;
      p.rows.push_back(std::move(row));
    }
    for (const auto& [var, coeff] : instance.objective.expr.terms())
      p.objective.emplace_back(static_cast<int>(var), coeff);
    p.objective_constant = instance.objective.expr.constant();
    p.direction = instance.objective.direction;
    return p;
  }

  IlpInstance build() const {
    IlpInstance out;
    Model& model = out.model;
    for (const ilp::Variable& v : variables)
      model.add_variable(v.kind, v.lower, v.upper);
    for (const Row& row : rows) {
      ilp::LinearExpr expr;
      for (const auto& [var, coeff] : row.terms) expr.add(var, coeff);
      model.add_constraint(std::move(expr), row.sense, row.rhs);
    }
    ilp::LinearExpr obj;
    for (const auto& [var, coeff] : objective) obj.add(var, coeff);
    obj.add_constant(objective_constant);
    out.objective = ilp::Objective(direction, std::move(obj));
    return out;
  }

  /// Deletes variable `j`, dropping its terms and renumbering the rest.
  void drop_variable(int j) {
    variables.erase(variables.begin() + j);
    auto renumber = [j](std::vector<std::pair<int, double>>& terms) {
      std::vector<std::pair<int, double>> out;
      for (const auto& [var, coeff] : terms) {
        if (var == j) continue;
        out.emplace_back(var > j ? var - 1 : var, coeff);
      }
      terms = std::move(out);
    };
    for (Row& row : rows) renumber(row.terms);
    renumber(objective);
  }
};

/// A copy of `instance` with one number, picked by `rng`, moved one ulp:
/// a row or objective coefficient, an rhs, the objective constant or a
/// bound of a non-binary variable (moved outward, so the box stays valid).
/// Only finite numbers are candidates; nullopt when there is none.
std::optional<IlpInstance> one_ulp_neighbour(const IlpInstance& instance,
                                             Rng& rng) {
  ModelParts parts = ModelParts::of(instance);
  std::vector<std::pair<double*, double>> numbers; // number, direction
  for (ilp::Variable& v : parts.variables) {
    if (v.kind == ilp::VarKind::Binary) continue;
    numbers.emplace_back(&v.lower, -ilp::kInfinity);
    numbers.emplace_back(&v.upper, ilp::kInfinity);
  }
  for (ModelParts::Row& row : parts.rows) {
    numbers.emplace_back(&row.rhs, ilp::kInfinity);
    for (auto& term : row.terms)
      numbers.emplace_back(&term.second, ilp::kInfinity);
  }
  for (auto& term : parts.objective)
    numbers.emplace_back(&term.second, ilp::kInfinity);
  numbers.emplace_back(&parts.objective_constant, ilp::kInfinity);
  std::erase_if(numbers,
                [](const auto& n) { return !std::isfinite(*n.first); });
  if (numbers.empty()) return std::nullopt;
  auto& [number, direction] = numbers[rng.next_below(numbers.size())];
  *number = std::nextafter(*number, direction);
  return parts.build();
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Status + objective agreement between two solver configurations.
CheckResult compare_solves(const char* what, const Solution& a,
                           const Solution& b) {
  if (a.status != b.status)
    return CheckResult::fail(format_string("%s: status %s vs %s", what,
                                           ilp::to_string(a.status),
                                           ilp::to_string(b.status)));
  if (a.status == SolveStatus::Optimal &&
      std::abs(a.objective - b.objective) > 1e-6)
    return CheckResult::fail(format_string("%s: objective %.17g vs %.17g",
                                           what, a.objective, b.objective));
  if (a.status == SolveStatus::Optimal &&
      std::abs(a.best_bound - b.best_bound) > 1e-6)
    return CheckResult::fail(format_string("%s: best_bound %.17g vs %.17g",
                                           what, a.best_bound, b.best_bound));
  return CheckResult::pass();
}

} // namespace

CheckResult check_ilp_instance(const IlpInstance& instance, Rng& rng,
                               const IlpCheckOptions& options) {
  const MilpSolver solve = options.solve ? options.solve : ilp::solve_milp;
  const Model& model = instance.model;
  const ilp::Objective& objective = instance.objective;
  BranchAndBoundOptions base;
  base.max_nodes = options.max_nodes;

  // Oracle 1: exhaustive enumeration is ground truth.
  const EnumerationResult truth = enumerate_optimum(instance);
  ilp::Certificate certificate;
  const Solution solved = solve(model, objective, base, &certificate);
  if (solved.status == SolveStatus::NodeLimit ||
      solved.status == SolveStatus::IterationLimit)
    return CheckResult::fail(format_string(
        "solver hit its %s on a %zu-variable instance",
        ilp::to_string(solved.status), model.num_variables()));
  if (!truth.feasible) {
    if (solved.status != SolveStatus::Infeasible)
      return CheckResult::fail(format_string(
          "enumeration proves infeasibility but solver returned %s "
          "(objective %.17g)",
          ilp::to_string(solved.status), solved.objective));
  } else {
    if (solved.status != SolveStatus::Optimal)
      return CheckResult::fail(format_string(
          "enumeration found optimum %.17g but solver returned %s",
          truth.objective, ilp::to_string(solved.status)));
    if (std::abs(solved.objective - truth.objective) > 1e-6)
      return CheckResult::fail(format_string(
          "optimum mismatch: enumeration %.17g, solver %.17g",
          truth.objective, solved.objective));
  }

  // Oracle 2: the LP text round trip is the same optimization problem.
  // Variable order can change (the reader numbers by first use), so the
  // comparison is status + optimum, not values.
  const std::string lp_text = ilp::to_lp_format(model, objective);
  const ilp::LpParseResult reparsed = ilp::parse_lp(lp_text);
  if (!reparsed.ok())
    return CheckResult::fail("lp_writer output does not re-parse: " +
                             reparsed.error);
  const CheckResult roundtrip_check =
      compare_solves("LP round trip", solved,
                     solve(reparsed.model, reparsed.objective, base, nullptr));
  if (!roundtrip_check.ok) return roundtrip_check;

  // Oracle 3: a cache hit returns the fresh solution bit-identically.
  ilp::SolverCache cache;
  BranchAndBoundOptions cached = base;
  cached.cache = &cache;
  const Solution fresh = solve(model, objective, cached, nullptr);
  const Solution hit = solve(model, objective, cached, nullptr);
  if (fresh.status != hit.status || !bits_equal(fresh.objective, hit.objective) ||
      !bits_equal(fresh.best_bound, hit.best_bound) ||
      fresh.values.size() != hit.values.size())
    return CheckResult::fail("cache hit differs from the fresh solve");
  for (std::size_t j = 0; j < fresh.values.size(); ++j)
    if (!bits_equal(fresh.values[j], hit.values[j]))
      return CheckResult::fail(format_string(
          "cache hit value[%zu] differs from the fresh solve", j));
  if (!options.solve && cache.stats().hits < 1)
    return CheckResult::fail("second cached solve did not hit the cache");
  // A copy with one number moved one ulp is another problem: it must miss.
  const long hits = cache.stats().hits;
  if (const std::optional<IlpInstance> neighbour =
          one_ulp_neighbour(instance, rng)) {
    solve(neighbour->model, neighbour->objective, cached, nullptr);
    if (cache.stats().hits != hits)
      return CheckResult::fail(
          "a copy with one number moved one ulp hit the cache");
  }

  // Oracle 4: the first solve's certificate convinces the independent
  // checker: the incumbent is feasible, integral and has the claimed
  // objective, and every leaf's duals or Farkas ray close it within a
  // partition of the root box.
  const ilp::CertificateCheck certified =
      ilp::check_certificate(model, objective, solved, certificate, base);
  if (!certified.ok)
    return CheckResult::fail("certificate rejected: " + certified.error);

  return CheckResult::pass();
}

// --- Shrinker ---

IlpShrinkResult shrink_ilp_instance(
    const IlpInstance& instance,
    const std::function<bool(const IlpInstance&)>& still_fails) {
  IlpShrinkResult out;
  ModelParts best = ModelParts::of(instance);

  // Each accepted candidate strictly shrinks (rows + variables + terms +
  // total bound span + nonzero constant count), so the loop terminates.
  const auto try_candidate = [&](const ModelParts& candidate) {
    ++out.attempts;
    if (out.attempts > 20000) return false;
    if (!still_fails(candidate.build())) return false;
    best = candidate;
    return true;
  };

  bool changed = true;
  while (changed && out.attempts <= 20000) {
    changed = false;
    ++out.rounds;

    // Drop whole constraints, largest index first (cheap renumber-free).
    for (int i = static_cast<int>(best.rows.size()) - 1; i >= 0; --i) {
      ModelParts candidate = best;
      candidate.rows.erase(candidate.rows.begin() + i);
      changed |= try_candidate(candidate);
    }
    // Drop whole variables.
    for (int j = static_cast<int>(best.variables.size()) - 1; j >= 0; --j) {
      if (best.variables.size() <= 1) break; // a model needs a variable
      ModelParts candidate = best;
      candidate.drop_variable(j);
      changed |= try_candidate(candidate);
    }
    // Delete individual constraint coefficients.
    for (std::size_t i = 0; i < best.rows.size(); ++i) {
      for (std::size_t k = best.rows[i].terms.size(); k-- > 0;) {
        ModelParts candidate = best;
        candidate.rows[i].terms.erase(candidate.rows[i].terms.begin() +
                                      static_cast<long>(k));
        changed |= try_candidate(candidate);
      }
    }
    // Delete objective coefficients and the constant.
    for (std::size_t k = best.objective.size(); k-- > 0;) {
      ModelParts candidate = best;
      candidate.objective.erase(candidate.objective.begin() +
                                static_cast<long>(k));
      changed |= try_candidate(candidate);
    }
    if (best.objective_constant != 0.0) {
      ModelParts candidate = best;
      candidate.objective_constant = 0.0;
      changed |= try_candidate(candidate);
    }
    // Narrow variable boxes one unit at a time. The span is re-checked
    // before each mutation: accepting the first one can collapse the box
    // to a point, and the second must not cross the bounds then.
    for (std::size_t j = 0; j < best.variables.size(); ++j) {
      if (best.variables[j].lower < best.variables[j].upper) {
        ModelParts raise = best;
        raise.variables[j].lower += 1.0;
        if (raise.variables[j].kind == ilp::VarKind::Binary)
          raise.variables[j].kind = ilp::VarKind::Integer;
        changed |= try_candidate(raise);
      }
      if (best.variables[j].lower < best.variables[j].upper) {
        ModelParts lower = best;
        lower.variables[j].upper -= 1.0;
        if (lower.variables[j].kind == ilp::VarKind::Binary)
          lower.variables[j].kind = ilp::VarKind::Integer;
        changed |= try_candidate(lower);
      }
    }
  }

  out.instance = best.build();
  return out;
}

} // namespace luis::testing
