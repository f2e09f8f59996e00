#include "ilp/lp_writer.hpp"

#include <cmath>
#include <sstream>

namespace luis::ilp {
namespace {

std::string var_name(VarId id) {
  return std::string("x").append(std::to_string(id));
}

void write_expr(std::ostream& os, const LinearExpr& expr) {
  os.precision(17);
  bool first = true;
  for (const auto& [var, coeff] : expr.terms()) {
    if (coeff >= 0.0 && !first) os << " + ";
    if (coeff < 0.0) os << (first ? "- " : " - ");
    const double mag = std::abs(coeff);
    if (mag != 1.0) os << mag << " ";
    os << var_name(var);
    first = false;
  }
  if (first) os << "0";
}

} // namespace

std::string to_lp_format(const Model& model, const Objective& objective) {
  std::ostringstream os;
  os.precision(17); // round-trip exact through parse_lp
  os << (objective.direction == Direction::Minimize ? "Minimize\n"
                                                    : "Maximize\n");
  os << " obj: ";
  write_expr(os, objective.expr);
  // The objective's constant term is part of the reported optimum and
  // bound; dropping it would silently shift objectives on a write/read
  // round-trip.
  const double c0 = objective.expr.constant();
  if (c0 > 0.0) os << " + " << c0;
  if (c0 < 0.0) os << " - " << -c0;
  os << "\nSubject To\n";
  int idx = 0;
  for (const Constraint& c : model.constraints()) {
    os << " c" << idx << ": ";
    write_expr(os, c.expr);
    switch (c.sense) {
    case Sense::LE: os << " <= "; break;
    case Sense::GE: os << " >= "; break;
    case Sense::EQ: os << " = "; break;
    }
    os << c.rhs << "\n";
    ++idx;
  }
  os << "Bounds\n";
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    const Variable& v = model.variables()[j];
    os << " ";
    if (std::isinf(v.lower))
      os << "-inf";
    else
      os << v.lower;
    os << " <= " << var_name(static_cast<VarId>(j)) << " <= ";
    if (std::isinf(v.upper))
      os << "+inf";
    else
      os << v.upper;
    os << "\n";
  }
  bool have_int = false;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    if (model.variables()[j].kind == VarKind::Continuous) continue;
    if (!have_int) {
      os << "General\n";
      have_int = true;
    }
    os << " " << var_name(static_cast<VarId>(j)) << "\n";
  }
  os << "End\n";
  return os.str();
}

} // namespace luis::ilp
