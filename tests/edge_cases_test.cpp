// Edge-case and failure-injection tests across module boundaries.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"
#include "interp/engine.hpp"
#include "interp/interpreter.hpp"
#include "ir/kernel_builder.hpp"
#include "ir/passes.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "numrep/quantize.hpp"
#include "polybench/polybench.hpp"

namespace luis {
namespace {

using interp::ArrayStore;
using interp::RunOptions;
using interp::RunResult;
using interp::TypeAssignment;
using ir::Array;
using ir::IVal;
using ir::KernelBuilder;
using ir::RVal;

TEST(InterpreterEdge, OutOfBoundsIndexTrapsOnBothEngines) {
  // A store past the end, then a load before the start, each behind a
  // loop that runs a few in-bounds iterations first: verified IR whose
  // run must trap (ok = false), never abort, with the same message, step
  // count and array contents on both engines.
  for (const bool load : {false, true}) {
    ir::Module m;
    KernelBuilder kb(m, "oob");
    Array* A = kb.array("A", {4}, 0.0, 1.0);
    Array* B = kb.array("B", {2, 3}, 0.0, 1.0);
    kb.for_loop("i", 0, 3, [&](IVal i) { kb.store(kb.real(2.0), A, {i}); });
    if (load)
      kb.store(kb.load(B, {kb.idx(1), kb.idx(-1)}), A, {kb.idx(0)});
    else
      kb.store(kb.real(1.0), A, {kb.idx(7)});
    ir::Function* f = kb.finish();
    ASSERT_TRUE(ir::verify(*f).ok()) << ir::verify(*f).message();

    const interp::ReferenceEngine ref;
    const interp::VmEngine vm;
    ArrayStore ref_store, vm_store;
    const RunResult a = ref.run(*f, TypeAssignment(), ref_store);
    const RunResult b = vm.run(*f, TypeAssignment(), vm_store);
    const std::string want =
        std::string("array index out of bounds on ") + (load ? "B" : "A");
    EXPECT_FALSE(a.ok);
    EXPECT_FALSE(b.ok);
    EXPECT_EQ(a.error, want);
    EXPECT_EQ(b.error, want);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_GT(a.steps, 3);
    EXPECT_EQ(ref_store, vm_store);
    EXPECT_EQ(ref_store["A"], (std::vector<double>{2.0, 2.0, 2.0, 0.0}));
  }
}

TEST(InterpreterEdge, DivisionByZeroProducesInfNotCrash) {
  ir::Module m;
  KernelBuilder kb(m, "div0");
  Array* A = kb.array("A", {1}, 0.0, 1.0);
  kb.store(kb.real(1.0) / kb.load(A, {kb.idx(0)}), A, {kb.idx(0)});
  ir::Function* f = kb.finish();
  ArrayStore store;
  store["A"] = {0.0};
  TypeAssignment binary64;
  const RunResult r = run_function(*f, binary64, store);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(std::isinf(store["A"][0]));
}

TEST(InterpreterEdge, FixedDivisionByZeroSaturates) {
  ir::Module m;
  KernelBuilder kb(m, "fixdiv0");
  Array* A = kb.array("A", {1}, 0.0, 1.0);
  kb.store(kb.real(1.0) / kb.load(A, {kb.idx(0)}), A, {kb.idx(0)});
  ir::Function* f = kb.finish();
  ArrayStore store;
  store["A"] = {0.0};
  const TypeAssignment fixed = TypeAssignment::uniform(
      *f, numrep::ConcreteType{numrep::kFixed32, 16});
  const RunResult r = run_function(*f, fixed, store);
  ASSERT_TRUE(r.ok) << r.error;
  // inf quantizes to the fixed format's saturation value.
  EXPECT_TRUE(std::isfinite(store["A"][0]));
  EXPECT_GT(store["A"][0], 30000.0);
}

TEST(InterpreterEdge, ZeroTripLoopExecutesNothing) {
  ir::Module m;
  KernelBuilder kb(m, "empty");
  Array* A = kb.array("A", {4}, 0.0, 1.0);
  kb.for_loop("i", 3, 3, [&](IVal i) { kb.store(kb.real(9.0), A, {i}); });
  kb.for_loop("i", 2, 0, [&](IVal i) { kb.store(kb.real(9.0), A, {i}); });
  ir::Function* f = kb.finish();
  ASSERT_TRUE(ir::verify(*f).ok());
  ArrayStore store;
  store["A"] = {1, 2, 3, 4};
  TypeAssignment binary64;
  const RunResult r = run_function(*f, binary64, store);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(store["A"], (std::vector<double>{1, 2, 3, 4}));
}

TEST(InterpreterEdge, CostCountingCanBeDisabled) {
  ir::Module m;
  polybench::BuiltKernel kernel = polybench::build_kernel("gemm", m);
  ArrayStore store = kernel.inputs;
  TypeAssignment binary64;
  RunOptions opt;
  opt.count_costs = false;
  const RunResult r = run_function(*kernel.function, binary64, store, opt);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.counters.ops.empty());
  EXPECT_EQ(r.counters.non_real_ops, 0);
}

TEST(QuantizeDispatch, CoversEveryFormatClass) {
  using numrep::ConcreteType;
  EXPECT_DOUBLE_EQ(numrep::quantize({numrep::kBinary64, 0}, 1.1), 1.1);
  EXPECT_EQ(numrep::quantize({numrep::kBinary32, 0}, 1.1),
            static_cast<double>(1.1f));
  EXPECT_DOUBLE_EQ(numrep::quantize({numrep::kFixed32, 2}, 1.1), 1.0);
  EXPECT_NEAR(numrep::quantize({numrep::kPosit16, 0}, 1.1), 1.1, 1e-3);
}

TEST(PipelineEdge, EmptyRealKernelStillTunes) {
  // A kernel with no Real arithmetic at all (only index work) must not
  // break any stage.
  ir::Module m;
  KernelBuilder kb(m, "intonly");
  Array* A = kb.array("A", {4}, 0.0, 1.0);
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.store(kb.real(1.0), A, {i});
  });
  ir::Function* f = kb.finish();
  const core::PipelineResult tuned = core::tune_kernel(
      *f, platform::intel_table(), core::TuningConfig::balanced());
  EXPECT_TRUE(tuned.allocation.stats.status == ilp::SolveStatus::Optimal);
  ArrayStore store;
  TypeAssignment binary64;
  EXPECT_TRUE(run_function(*f, tuned.allocation.assignment, store).ok);
}

TEST(PipelineEdge, OptimizeIrBeforeTuningPreservesResults) {
  ir::Module m1, m2;
  polybench::BuiltKernel k1 = polybench::build_kernel("trisolv", m1);
  polybench::BuiltKernel k2 = polybench::build_kernel("trisolv", m2);

  core::PipelineOptions plain;
  core::PipelineOptions optimized;
  optimized.optimize_ir = true;
  const core::PipelineResult r1 = core::tune_kernel(
      *k1.function, platform::stm32_table(), core::TuningConfig::fast(), plain);
  const core::PipelineResult r2 =
      core::tune_kernel(*k2.function, platform::stm32_table(),
                        core::TuningConfig::fast(), optimized);
  EXPECT_GT(r2.ir_changes, 0);

  ArrayStore s1 = k1.inputs, s2 = k2.inputs;
  const RunResult run1 = run_function(*k1.function, r1.allocation.assignment, s1);
  const RunResult run2 = run_function(*k2.function, r2.allocation.assignment, s2);
  ASSERT_TRUE(run1.ok && run2.ok);
  // Same numeric outcome; fewer executed steps after simplification.
  EXPECT_EQ(s1.at("x"), s2.at("x"));
  EXPECT_LT(run2.steps, run1.steps);
}

TEST(PrinterEdge, SpecialRealLiteralsSurviveRoundTrip) {
  ir::Module m;
  KernelBuilder kb(m, "lits");
  Array* A = kb.array("A", {4}, -1e30, 1e30);
  kb.store(kb.real(1e-300) + kb.real(-2.5e17) + kb.real(0.1), A, {kb.idx(0)});
  ir::Function* f = kb.finish();
  const std::string text = ir::print_function(*f);
  ir::Module m2;
  const ir::ParseResult parsed = ir::parse_function(m2, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(ir::print_function(*parsed.function), text);
}

TEST(VerifierEdge, CatchesWrongIndexArity) {
  ir::Module m;
  ir::Function* f = m.add_function("bad");
  ir::BasicBlock* entry = f->add_block("entry");
  ir::Array* a = f->add_array("A", {2, 2});
  // Hand-built load with one index on a rank-2 array.
  entry->append(std::make_unique<ir::Instruction>(
      ir::Opcode::Load, ir::ScalarType::Real,
      std::vector<ir::Value*>{a, f->const_int(0)}));
  entry->append(std::make_unique<ir::Instruction>(
      ir::Opcode::Ret, ir::ScalarType::Void, std::vector<ir::Value*>{}));
  const ir::VerifyResult vr = ir::verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("index arity"), std::string::npos);
}

} // namespace
} // namespace luis
