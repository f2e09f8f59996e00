#include "core/greedy_allocator.hpp"

#include <algorithm>

#include "core/type_classes.hpp"
#include "interp/interpreter.hpp"
#include "numrep/iebw.hpp"
#include "obs/trace.hpp"

namespace luis::core {

using numrep::ConcreteType;
using numrep::NumericFormat;

AllocationResult allocate_greedy(const ir::Function& f,
                                 const vra::RangeMap& ranges,
                                 const TuningConfig& config) {
  AllocationResult out;
  // No model/solve split to report: the whole greedy scan is the "solve".
  obs::TraceSpan span("greedy.scan", "greedy",
                      obs::TimeSink{&out.stats.solve_seconds});

  // The fixed point word the conversion targets: the first fixed type in
  // the candidate set (TAFFO's default is a 32-bit word).
  NumericFormat fixed = numrep::kFixed32;
  for (const NumericFormat& fmt : config.types)
    if (fmt.is_fixed()) {
      fixed = fmt;
      break;
    }

  const TypeClasses classes = compute_type_classes(f);
  out.stats.num_registers = static_cast<int>(classes.registers.size());
  out.stats.num_classes = classes.num_classes();
  out.stats.num_uses = static_cast<int>(classes.uses.size());

  // TAFFO propagates one fixed point format along each value chain (the
  // DAG rooted at the annotated inputs), realigning only where chains
  // meet. Modeled here: per type class, the widest fractional part every
  // member can hold; chains whose range does not fit the word at all stay
  // in the original binary64.
  for (int c = 0; c < classes.num_classes(); ++c) {
    int frac = fixed.width() - 1;
    for (const ir::Value* v : classes.members[static_cast<std::size_t>(c)]) {
      const vra::Interval range = ranges.of(v);
      frac = std::min(frac, numrep::fixed_point_max_frac(
                                fixed.width(), fixed.is_signed(), range.lo,
                                range.hi));
    }
    for (const ir::Value* v : classes.members[static_cast<std::size_t>(c)]) {
      if (frac >= 0) {
        out.assignment.set(v, ConcreteType{fixed, frac});
      } else {
        out.assignment.set(v, ConcreteType{numrep::kBinary64, 0});
      }
    }
  }

  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      if (inst->is_tunable_arithmetic())
        ++out.stats.instruction_mix[interp::cost_class(
            out.assignment.of(inst.get()))];
  span.end();
  return out;
}

} // namespace luis::core
