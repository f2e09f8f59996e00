#include "testing/ir_fuzz.hpp"

#include <cmath>
#include <cstring>
#include <functional>

#include "core/assignment_io.hpp"
#include "ir/kernel_builder.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "numrep/formats.hpp"
#include "support/string_utils.hpp"

namespace luis::testing {

using ir::Array;
using ir::IVal;
using ir::KernelBuilder;
using ir::RVal;

GeneratedIr generate_ir_kernel(ir::Module& module, Rng& rng,
                               const IrGenOptions& opt,
                               const std::string& name) {
  KernelBuilder kb(module, name);
  const std::int64_t n = rng.next_int(opt.min_extent, opt.max_extent);
  const int narrays =
      static_cast<int>(rng.next_int(opt.min_arrays, opt.max_arrays));
  std::vector<Array*> arrays;
  GeneratedIr out;
  for (int a = 0; a < narrays; ++a) {
    const bool two_d = opt.allow_2d && rng.next_bool(0.5);
    std::vector<std::int64_t> dims =
        two_d ? std::vector<std::int64_t>{n, n} : std::vector<std::int64_t>{n};
    Array* arr =
        kb.array(std::string("A").append(std::to_string(a)), dims, 0.25, 8.0);
    arrays.push_back(arr);
    auto& buf = out.inputs[arr->name()];
    for (std::int64_t i = 0; i < arr->element_count(); ++i)
      buf.push_back(rng.next_double(0.25, 8.0));
  }

  // A random real expression over loaded values (recursive, bounded).
  // Divisors are offset to [9.25, ...) so no generated program divides by
  // a value straddling zero.
  std::function<RVal(IVal, int)> expr = [&](IVal i, int depth) -> RVal {
    auto leaf = [&]() -> RVal {
      Array* arr = arrays[rng.next_below(arrays.size())];
      if (arr->rank() == 2) return kb.load(arr, {i, i});
      return kb.load(arr, {i});
    };
    if (depth <= 0 || rng.next_bool(0.3)) return leaf();
    const RVal lhs = expr(i, depth - 1);
    const RVal rhs = expr(i, depth - 1);
    switch (rng.next_below(6)) {
    case 0: return lhs + rhs;
    case 1: return lhs - rhs;
    case 2: return lhs * rhs;
    case 3: return lhs / (rhs + kb.real(9.0));
    case 4: return kb.sqrt(kb.abs(lhs)) + rhs;
    default: return kb.fmax(lhs, kb.fmin(rhs, kb.real(4.0)));
    }
  };

  Array* dst = arrays[0];
  const bool nested =
      opt.allow_nested && rng.next_bool(0.5) && dst->rank() == 2;
  if (nested) {
    kb.for_loop("i", 0, n, [&](IVal i) {
      kb.for_loop("j", 0, n, [&](IVal j) {
        RVal v = expr(j, opt.expr_depth > 1 ? opt.expr_depth - 1 : 0);
        kb.if_then(i < j, [&] { kb.store(v, dst, {i, j}); });
      });
    });
  } else {
    kb.for_loop("i", 0, n, [&](IVal i) {
      RVal v = expr(i, opt.expr_depth);
      if (dst->rank() == 2)
        kb.store(v, dst, {i, i});
      else
        kb.store(v, dst, {i});
    });
  }
  out.function = kb.finish();
  return out;
}

interp::ArrayStore synth_ir_inputs(const ir::Function& f, std::uint64_t seed) {
  interp::ArrayStore store;
  Rng rng(seed);
  for (const auto& arr : f.arrays()) {
    double lo = 0.0, hi = 1.0;
    if (arr->range_annotation()) {
      lo = arr->range_annotation()->first;
      hi = arr->range_annotation()->second;
    }
    auto& buf = store[arr->name()];
    for (std::int64_t i = 0; i < arr->element_count(); ++i)
      buf.push_back(rng.next_double(lo, hi));
  }
  return store;
}

namespace {

numrep::ConcreteType random_concrete_type(Rng& rng) {
  // Every executable catalog format is a candidate: differential runs
  // must agree between the VM and the reference interpreter for FP8 and
  // fixed-posit assignments exactly as they do for the classic trio.
  static const std::vector<numrep::NumericFormat> kPool =
      numrep::executable_formats();
  const numrep::NumericFormat fmt = kPool[rng.next_below(kPool.size())];
  if (fmt.is_fixed()) {
    const int frac = static_cast<int>(rng.next_int(2, fmt.width() - 4));
    return {fmt, frac};
  }
  return {fmt, 0};
}

bool stores_bit_equal(const interp::ArrayStore& a, const interp::ArrayStore& b,
                      std::string* where) {
  if (a.size() != b.size()) {
    *where = "array count";
    return false;
  }
  for (const auto& [name, buf] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second.size() != buf.size()) {
      *where = name;
      return false;
    }
    if (std::memcmp(buf.data(), it->second.data(),
                    buf.size() * sizeof(double)) != 0) {
      *where = name;
      return false;
    }
  }
  return true;
}

} // namespace

interp::TypeAssignment random_type_assignment(const ir::Function& f, Rng& rng) {
  interp::TypeAssignment assignment;
  for (const auto& arr : f.arrays())
    assignment.set(arr.get(), random_concrete_type(rng));
  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      if (inst->type() == ir::ScalarType::Real)
        assignment.set(inst.get(), random_concrete_type(rng));
  return assignment;
}

CheckResult check_ir_instance(const ir::Function& f,
                              const interp::ArrayStore& inputs, Rng& type_rng,
                              interp::EngineKind engine) {
  const interp::ReferenceEngine reference_engine;
  const interp::VmEngine vm_engine;
  const bool primary_is_vm = engine == interp::EngineKind::Vm;
  const interp::ExecutionEngine& primary =
      primary_is_vm ? static_cast<const interp::ExecutionEngine&>(vm_engine)
                    : reference_engine;
  const interp::ExecutionEngine& secondary =
      primary_is_vm ? static_cast<const interp::ExecutionEngine&>(
                          reference_engine)
                    : vm_engine;
  // 1. Structural invariants.
  const ir::VerifyResult vr = ir::verify(f);
  if (!vr.ok())
    return CheckResult::fail("generated IR fails the verifier: " + vr.message());

  // 2. Printer/parser round trip is print-exact: a copy made through the
  // text (what the sweep tunes) prints exactly as the original.
  const std::string text = ir::print_function(f);
  ir::Module reparse_module;
  const ir::ParseResult parsed = ir::parse_function(reparse_module, text);
  if (!parsed.ok())
    return CheckResult::fail("printed IR does not re-parse: " + parsed.error);
  if (ir::print_function(*parsed.function) != text)
    return CheckResult::fail("print -> parse -> print is not a fixpoint");

  // 3. The binary64 reference execution succeeds and stays finite.
  interp::ArrayStore reference = inputs;
  const interp::TypeAssignment binary64;
  const interp::RunResult ref_run = primary.run(f, binary64, reference);
  if (!ref_run.ok)
    return CheckResult::fail("binary64 execution failed: " + ref_run.error);
  for (const auto& [name, buf] : reference)
    for (double v : buf)
      if (!std::isfinite(v))
        return CheckResult::fail("binary64 execution produced a non-finite "
                                 "value in @" +
                                 name);

  // 4. Interpreter determinism under a random quantized assignment, across
  // the textual round trip of both the IR and the assignment.
  const interp::TypeAssignment assignment = random_type_assignment(f, type_rng);
  interp::ArrayStore run1 = inputs, run2 = inputs;
  const interp::RunResult r1 = primary.run(f, assignment, run1);
  const interp::RunResult r2 = primary.run(f, assignment, run2);
  if (!r1.ok || !r2.ok)
    return CheckResult::fail("quantized execution failed: " +
                             (r1.ok ? r2.error : r1.error));
  std::string where;
  if (!stores_bit_equal(run1, run2, &where))
    return CheckResult::fail("two identical quantized runs disagree at @" +
                             where);
  if (r1.counters.ops != r2.counters.ops ||
      r1.counters.non_real_ops != r2.counters.non_real_ops)
    return CheckResult::fail(
        "two identical quantized runs disagree in cost counters");

  const std::string assignment_text = core::assignment_to_text(f, assignment);
  const core::AssignmentParseResult reloaded =
      core::assignment_from_text(*parsed.function, assignment_text);
  if (!reloaded.ok())
    return CheckResult::fail(
        "assignment_io text does not reload onto the reparsed IR: " +
        reloaded.error);
  interp::ArrayStore run3 = inputs;
  const interp::RunResult r3 =
      primary.run(*parsed.function, reloaded.assignment, run3);
  if (!r3.ok)
    return CheckResult::fail("reparsed IR failed under reloaded assignment: " +
                             r3.error);
  if (!stores_bit_equal(run1, run3, &where))
    return CheckResult::fail(
        "reparsed IR under the reloaded assignment disagrees at @" + where);

  // 5. Differential: the other engine must reproduce the quantized run bit
  // for bit — outputs, verdict, step count, and cost counters.
  interp::ArrayStore run_other = inputs;
  const interp::RunResult ro = secondary.run(f, assignment, run_other);
  if (ro.ok != r1.ok || ro.error != r1.error)
    return CheckResult::fail("vm and reference engines disagree on the "
                             "verdict: \"" +
                             r1.error + "\" vs \"" + ro.error + "\"");
  if (!stores_bit_equal(run1, run_other, &where))
    return CheckResult::fail("vm and reference engines disagree at @" + where);
  if (ro.steps != r1.steps)
    return CheckResult::fail("vm and reference engines disagree on steps");
  if (ro.counters.ops != r1.counters.ops ||
      ro.counters.non_real_ops != r1.counters.non_real_ops)
    return CheckResult::fail(
        "vm and reference engines disagree in cost counters");

  return CheckResult::pass();
}

IrShrinkResult shrink_ir_options(
    const IrGenOptions& options,
    const std::function<bool(const IrGenOptions&)>& still_fails) {
  IrShrinkResult out;
  out.options = options;

  const auto try_candidate = [&](const IrGenOptions& candidate) {
    ++out.attempts;
    if (out.attempts > 500) return false;
    if (!still_fails(candidate)) return false;
    out.options = candidate;
    return true;
  };

  bool changed = true;
  while (changed && out.attempts <= 500) {
    changed = false;
    if (out.options.allow_nested) {
      IrGenOptions c = out.options;
      c.allow_nested = false;
      changed |= try_candidate(c);
    }
    if (out.options.allow_2d) {
      IrGenOptions c = out.options;
      c.allow_2d = false;
      changed |= try_candidate(c);
    }
    if (out.options.expr_depth > 0) {
      IrGenOptions c = out.options;
      --c.expr_depth;
      changed |= try_candidate(c);
    }
    if (out.options.max_arrays > out.options.min_arrays) {
      IrGenOptions c = out.options;
      --c.max_arrays;
      changed |= try_candidate(c);
    } else if (out.options.min_arrays > 1) {
      IrGenOptions c = out.options;
      --c.min_arrays;
      --c.max_arrays;
      changed |= try_candidate(c);
    }
    if (out.options.max_extent > out.options.min_extent) {
      IrGenOptions c = out.options;
      --c.max_extent;
      changed |= try_candidate(c);
    } else if (out.options.min_extent > 1) {
      IrGenOptions c = out.options;
      --c.min_extent;
      --c.max_extent;
      changed |= try_candidate(c);
    }
  }
  return out;
}

} // namespace luis::testing
