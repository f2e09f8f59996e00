#include "core/assignment_io.hpp"

#include <map>
#include <sstream>

#include "ir/printer.hpp"
#include "support/string_utils.hpp"

namespace luis::core {
namespace {

/// Parses "fix32.27" / "binary32" / "posit16_1" into a ConcreteType.
bool parse_concrete(const std::string& token, numrep::ConcreteType& out) {
  const std::size_t dot = token.find('.');
  const std::string fmt_name =
      dot == std::string::npos ? token : token.substr(0, dot);
  const auto fmt = numrep::parse_format(fmt_name);
  if (!fmt) return false;
  out.format = *fmt;
  out.frac_bits = 0;
  if (dot != std::string::npos) {
    const auto frac = parse_number<int>(std::string_view(token).substr(dot + 1));
    if (!frac) return false;
    out.frac_bits = *frac;
  }
  if (out.format.is_fixed() &&
      (out.frac_bits < 0 || out.frac_bits >= out.format.width()))
    return false;
  return true;
}

} // namespace

std::string assignment_to_text(const ir::Function& f,
                               const interp::TypeAssignment& assignment) {
  std::ostringstream os;
  for (const auto& arr : f.arrays())
    os << "@" << arr->name() << " " << assignment.of(arr.get()).name() << "\n";
  const auto ids = ir::number_instructions(f);
  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      if (inst->type() == ir::ScalarType::Real)
        os << "%" << ids.at(inst.get()) << " "
           << assignment.of(inst.get()).name() << "\n";
  return os.str();
}

AssignmentParseResult assignment_from_text(const ir::Function& f,
                                           std::string_view text) {
  AssignmentParseResult out;

  // Index the function's addressable values.
  std::map<std::string, const ir::Value*> by_name;
  for (const auto& arr : f.arrays()) by_name["@" + arr->name()] = arr.get();
  const auto ids = ir::number_instructions(f);
  std::map<int, const ir::Instruction*> by_id;
  for (const auto& [inst, id] : ids) by_id[id] = inst;

  std::istringstream is{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string t{trim(line)};
    if (t.empty() || t[0] == '#') continue;
    std::istringstream ls(t);
    std::string target, type_token;
    ls >> target >> type_token;
    numrep::ConcreteType type;
    if (!parse_concrete(type_token, type)) {
      out.error = "line " + std::to_string(line_no) + ": bad type '" +
                  type_token + "'";
      return out;
    }
    if (target == "default") {
      // Rebase the fallback, keeping entries parsed so far.
      interp::TypeAssignment rebased(type);
      for (const auto& [value, entry] : out.assignment.entries())
        rebased.set(value, entry);
      out.assignment = std::move(rebased);
      continue;
    }
    if (target.size() > 1 && target[0] == '@') {
      const auto it = by_name.find(target);
      if (it == by_name.end()) {
        out.error = "line " + std::to_string(line_no) + ": unknown array " +
                    target;
        return out;
      }
      out.assignment.set(it->second, type);
      continue;
    }
    if (target.size() > 1 && target[0] == '%') {
      const auto id = parse_number<int>(std::string_view(target).substr(1));
      const auto it = id ? by_id.find(*id) : by_id.end();
      if (it == by_id.end() ||
          it->second->type() != ir::ScalarType::Real) {
        out.error = "line " + std::to_string(line_no) +
                    ": unknown or non-Real register " + target;
        return out;
      }
      out.assignment.set(it->second, type);
      continue;
    }
    out.error = "line " + std::to_string(line_no) + ": bad target '" +
                target + "'";
    return out;
  }
  return out;
}

} // namespace luis::core
