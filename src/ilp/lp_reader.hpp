// CPLEX-LP-format reader — the inverse of to_lp_format. Together they give
// the solver a file interchange format: models can be dumped, inspected,
// edited, and re-solved, and external instances can be imported for solver
// validation.
#pragma once

#include <string>
#include <string_view>

#include "ilp/model.hpp"

namespace luis::ilp {

struct LpParseResult {
  Model model;
  Objective objective;
  std::string error; ///< empty on success
  bool ok() const { return error.empty(); }
};

/// Parses the subset of the CPLEX LP format that to_lp_format emits:
/// Minimize/Maximize, Subject To, Bounds (with -inf/+inf), General
/// (integer) and Binary sections, End. Variables are created in first-use
/// order; unlisted bounds default to [0, +inf). The file's names only
/// resolve references while reading.
LpParseResult parse_lp(std::string_view text);

} // namespace luis::ilp
