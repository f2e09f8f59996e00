#include "core/profiled_ranges.hpp"

#include <tuple>

namespace luis::core {

vra::RangeMap ranges_from_profile(const ir::Function& f,
                                  const interp::RunResult& profile,
                                  double margin) {
  vra::RangeMap map;
  const auto set = [&](const ir::Value* value, std::pair<double, double> seen) {
    map.set(value, std::make_from_tuple<vra::Interval>(
                       interp::widen_observed_range(seen, margin)));
  };
  for (const auto& arr : f.arrays()) {
    const auto it = profile.array_ranges.find(arr->name());
    if (it != profile.array_ranges.end()) set(arr.get(), it->second);
  }
  for (const auto& [inst, range] : profile.register_ranges) set(inst, range);
  return map;
}

vra::RangeMap profile_ranges(const ir::Function& f,
                             const interp::ArrayStore& inputs, double margin,
                             std::string* error) {
  interp::ArrayStore store = inputs;
  interp::TypeAssignment binary64;
  interp::RunOptions opt;
  opt.track_array_ranges = true;
  opt.track_register_ranges = true;
  opt.count_costs = false;
  const interp::RunResult run = run_function(f, binary64, store, opt);
  if (!run.ok) {
    if (error) *error = run.error;
    return {};
  }
  return ranges_from_profile(f, run, margin);
}

} // namespace luis::core
