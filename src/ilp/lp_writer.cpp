#include "ilp/lp_writer.hpp"

#include <cmath>
#include <sstream>

namespace luis::ilp {
namespace {

std::string var_name(const Model& model, VarId id) {
  const std::string& n = model.variables()[static_cast<std::size_t>(id)].name;
  if (!n.empty()) return n;
  return "x" + std::to_string(id);
}

void write_expr(std::ostream& os, const Model& model, const LinearExpr& expr) {
  os.precision(17);
  bool first = true;
  for (const auto& [var, coeff] : expr.terms()) {
    if (coeff >= 0.0 && !first) os << " + ";
    if (coeff < 0.0) os << (first ? "- " : " - ");
    const double mag = std::abs(coeff);
    if (mag != 1.0) os << mag << " ";
    os << var_name(model, var);
    first = false;
  }
  if (first) os << "0";
}

} // namespace

std::string to_lp_format(const Model& model) {
  std::ostringstream os;
  os.precision(17); // round-trip exact through parse_lp
  os << (model.objective_direction() == Direction::Minimize ? "Minimize\n"
                                                            : "Maximize\n");
  os << " obj: ";
  write_expr(os, model, model.objective());
  // The objective's constant term is part of the reported optimum and
  // bound; dropping it would silently shift objectives on a write/read
  // round-trip.
  const double c0 = model.objective().constant();
  if (c0 > 0.0) os << " + " << c0;
  if (c0 < 0.0) os << " - " << -c0;
  os << "\nSubject To\n";
  int idx = 0;
  for (const Constraint& c : model.constraints()) {
    os << " " << (c.name.empty() ? "c" + std::to_string(idx) : c.name) << ": ";
    write_expr(os, model, c.expr);
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
    os << " <= " << var_name(model, static_cast<VarId>(j)) << " <= ";
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
    os << " " << var_name(model, static_cast<VarId>(j)) << "\n";
  }
  os << "End\n";
  return os.str();
}

} // namespace luis::ilp
