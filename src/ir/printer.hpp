// Textual IR printer. The output round-trips through parse_function.
#pragma once

#include <map>
#include <string>

#include "ir/function.hpp"

namespace luis::ir {

std::string print_function(const Function& function);

/// Stable textual ids (%0, %1, ...) for every result-producing instruction,
/// in program order. Shared by the printer and diagnostics.
std::map<const Instruction*, int> number_instructions(const Function& function);

} // namespace luis::ir
