// Dynamic-profiling range source — the alternative to static VRA the
// paper names in Section II ("the same result could be achieved via
// dynamic code profiling").
//
// A binary64 profiling run with register tracking enabled observes the
// exact values every virtual register and array takes; those observations
// (plus a safety margin) become the RangeMap the allocator consumes.
// Profiled ranges are tighter than interval-arithmetic VRA (no
// over-approximation through long dependence chains), which buys fixed
// point more fractional bits — but they are only sound for inputs similar
// to the profiled ones.
#pragma once

#include "interp/interpreter.hpp"
#include "vra/range_analysis.hpp"

namespace luis::core {

/// Profiles `f` on `inputs` (binary64, range tracking on, on the reference
/// interpreter) and builds the RangeMap. Returns an empty map (and sets
/// *error if given) if the profiling run fails.
vra::RangeMap profile_ranges(const ir::Function& f,
                             const interp::ArrayStore& inputs,
                             double margin = 0.05,
                             std::string* error = nullptr);

/// Converts an already-collected profile into a RangeMap.
vra::RangeMap ranges_from_profile(const ir::Function& f,
                                  const interp::RunResult& profile,
                                  double margin = 0.05);

} // namespace luis::core
