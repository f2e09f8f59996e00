#include "core/assignment_io.hpp"

#include <map>
#include <optional>
#include <sstream>

#include "ir/printer.hpp"
#include "support/string_utils.hpp"

namespace luis::core {
namespace {

/// A register id or fractional bit count as assignment_to_text writes it:
/// decimal digits with no sign and no leading zero. parse_number alone
/// would read "07" and "-0" too.
std::optional<int> parse_canonical_count(std::string_view text) {
  if (text.empty() || text[0] == '-' || (text.size() > 1 && text[0] == '0'))
    return std::nullopt;
  return parse_number<int>(text);
}

/// Parses "fix32.27" / "binary32" / "posit16_1" into a ConcreteType of a
/// format that executes. A format name that does not parse or cannot
/// execute leaves its diagnostic in `format_error`.
bool parse_concrete(const std::string& token, numrep::ConcreteType& out,
                    std::string* format_error) {
  const std::size_t dot = token.find('.');
  const std::string fmt_name =
      dot == std::string::npos ? token : token.substr(0, dot);
  const auto fmt = numrep::parse_executable_format(fmt_name, format_error);
  if (!fmt) return false;
  out.format = *fmt;
  out.frac_bits = 0;
  if (dot != std::string::npos) {
    const auto frac =
        parse_canonical_count(std::string_view(token).substr(dot + 1));
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

  // The line that assigned each value; `default` is the null value.
  std::map<const ir::Value*, int> assigned_on;
  std::istringstream is{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string t{trim(line)};
    if (t.empty() || t[0] == '#') continue;
    const std::string at = "line " + std::to_string(line_no) + ": ";
    std::istringstream ls(t);
    std::string target, type_token, extra;
    ls >> target >> type_token;
    numrep::ConcreteType type;
    std::string format_error;
    if (!parse_concrete(type_token, type, &format_error)) {
      out.error = at + (format_error.empty() ? "bad type '" + type_token + "'"
                                             : format_error);
      return out;
    }
    if (ls >> extra) {
      out.error = at + "unexpected '" + extra + "' after the type";
      return out;
    }
    const ir::Value* value = nullptr;
    if (target.size() > 1 && target[0] == '@') {
      const auto it = by_name.find(target);
      if (it == by_name.end()) {
        out.error = at + "unknown array " + target;
        return out;
      }
      value = it->second;
    } else if (target.size() > 1 && target[0] == '%') {
      const auto id = parse_canonical_count(std::string_view(target).substr(1));
      const auto it = id ? by_id.find(*id) : by_id.end();
      if (it == by_id.end() ||
          it->second->type() != ir::ScalarType::Real) {
        out.error = at + "unknown or non-Real register " + target;
        return out;
      }
      value = it->second;
    } else if (target != "default") {
      out.error = at + "bad target '" + target + "'";
      return out;
    }
    const auto [first, fresh] = assigned_on.emplace(value, line_no);
    if (!fresh) {
      out.error = at + target + " is already assigned on line " +
                  std::to_string(first->second);
      return out;
    }
    if (value) {
      out.assignment.set(value, type);
      continue;
    }
    // Rebase the fallback, keeping entries parsed so far.
    interp::TypeAssignment rebased(type);
    for (const auto& [assigned, entry] : out.assignment.entries())
      rebased.set(assigned, entry);
    out.assignment = std::move(rebased);
  }
  return out;
}

} // namespace luis::core
