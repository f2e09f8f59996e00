// Deep copy of a Function into another Module.
//
// The clone goes through the textual IR (print -> parse): the printer and
// parser already round-trip every construct exactly — including
// full-precision real literals and array range annotations — and this
// keeps the copy independent of internal ownership details. The sweep
// driver relies on the same round trip: it tunes every kernel on a
// Function parsed from the kernel's printed IR, which must produce the
// same allocation as tuning the original.
#pragma once

#include "ir/function.hpp"

namespace luis::ir {

/// Clones `f` into `dest` and returns the new function (owned by `dest`).
/// Aborts (LUIS_FATAL) if the function does not round-trip through the
/// printer/parser pair — that is a printer bug, not a caller error.
Function* clone_function(const Function& f, Module& dest);

} // namespace luis::ir
