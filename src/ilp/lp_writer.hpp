// CPLEX-LP-format dump of a model, for debugging and external validation.
#pragma once

#include <string>

#include "ilp/model.hpp"

namespace luis::ilp {

/// Renders `objective` over `model` in CPLEX LP text format, naming
/// variables x<j> and rows c<i> by position.
std::string to_lp_format(const Model& model, const Objective& objective);

} // namespace luis::ilp
