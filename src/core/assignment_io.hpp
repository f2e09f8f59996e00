// Type assignment serialization.
//
// A tuned assignment is the valuable artifact of the (potentially slow)
// ILP step; serializing it lets a build system cache and re-apply
// decisions without re-solving, and lets humans inspect or hand-edit the
// chosen types. The text format is one `TARGET TYPE` line per value, a
// target being an array by name, an instruction by printer id, or the
// optional fallback:
//
//   @A fix32.27
//   %12 binary32
//   default binary64
//
// Blank lines and lines starting with '#' are skipped. A token after the
// type, or a target assigned twice, is refused with the line number.
//
// Instruction ids use ir::number_instructions, so a saved assignment is
// valid for the exact IR it was produced from (the printer/parser round
// trip preserves ids).
#pragma once

#include <string>
#include <string_view>

#include "interp/type_assignment.hpp"
#include "ir/function.hpp"

namespace luis::core {

/// Serializes `assignment` for `f` (arrays and Real instructions).
std::string assignment_to_text(const ir::Function& f,
                               const interp::TypeAssignment& assignment);

struct AssignmentParseResult {
  interp::TypeAssignment assignment;
  std::string error; ///< empty on success
  bool ok() const { return error.empty(); }
};

/// Parses the text form against `f`, resolving @names and %ids.
AssignmentParseResult assignment_from_text(const ir::Function& f,
                                           std::string_view text);

} // namespace luis::core
