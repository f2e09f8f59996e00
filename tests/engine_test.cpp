// Differential tests of the two execution engines (interp/engine.hpp).
//
// The VM is only useful if it is bit-identical to the reference
// interpreter — same outputs, same step counts, same cost counters, same
// diagnostics on every trap. These tests replay the regression seed
// corpus and a set of purpose-built edge kernels (division by zero,
// negative rem operands, non-finite intermediates, zero-iteration loops,
// step-limit traps) through both engines and compare everything.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "interp/engine.hpp"
#include "ir/kernel_builder.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "support/rng.hpp"

namespace luis::interp {
namespace {

using ir::Array;
using ir::IVal;
using ir::KernelBuilder;
using ir::RVal;
using ir::ScalarCell;
using numrep::ConcreteType;

/// Deterministic inputs from the range annotations (same scheme as the
/// CLI's `run` verb), so every engine sees the same bits.
ArrayStore synth_inputs(const ir::Function& f, std::uint64_t seed) {
  ArrayStore store;
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

bool buffers_bit_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Runs `f` through both engines on copies of `inputs` and asserts that
/// every observable agrees bit for bit. Returns the reference result.
RunResult expect_engines_agree(const ir::Function& f,
                               const TypeAssignment& types,
                               const ArrayStore& inputs,
                               const RunOptions& options = {}) {
  const ReferenceEngine ref;
  const VmEngine vm;
  ArrayStore ref_store = inputs;
  ArrayStore vm_store = inputs;
  const RunResult a = ref.run(f, types, ref_store, options);
  const RunResult b = vm.run(f, types, vm_store, options);

  EXPECT_EQ(a.ok, b.ok) << "ref: " << a.error << " vm: " << b.error;
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.counters.ops, b.counters.ops);
  EXPECT_EQ(a.counters.non_real_ops, b.counters.non_real_ops);
  EXPECT_EQ(a.array_ranges, b.array_ranges);
  EXPECT_EQ(a.register_ranges, b.register_ranges);

  EXPECT_EQ(ref_store.size(), vm_store.size());
  for (const auto& [name, buf] : ref_store) {
    const auto it = vm_store.find(name);
    if (it == vm_store.end()) {
      ADD_FAILURE() << "array " << name << " missing from the vm store";
      continue;
    }
    EXPECT_TRUE(buffers_bit_equal(buf, it->second))
        << "array " << name << " differs between engines";
  }
  return a;
}

/// The assignments every differential case cycles through: the binary64
/// default plus one uniform type per format class (float, small float,
/// fixed, posit).
std::vector<TypeAssignment> assignment_grid(const ir::Function& f) {
  std::vector<TypeAssignment> grid;
  grid.emplace_back(); // empty = all binary64
  grid.push_back(TypeAssignment::uniform(f, {numrep::kBinary32, 0}));
  grid.push_back(TypeAssignment::uniform(f, {numrep::kBfloat16, 0}));
  grid.push_back(TypeAssignment::uniform(f, {numrep::kFixed32, 16}));
  grid.push_back(TypeAssignment::uniform(f, {numrep::kPosit16, 0}));
  return grid;
}

TEST(Engine, ParseNamesRoundTrip) {
  EXPECT_EQ(parse_engine("vm"), EngineKind::Vm);
  EXPECT_EQ(parse_engine("ref"), EngineKind::Reference);
  EXPECT_EQ(parse_engine("reference"), EngineKind::Reference);
  EXPECT_FALSE(parse_engine("jit").has_value());
  EXPECT_STREQ(to_string(EngineKind::Vm), "vm");
  EXPECT_STREQ(to_string(EngineKind::Reference), "ref");
  EXPECT_STREQ(make_engine(EngineKind::Vm)->name(), "vm");
  EXPECT_STREQ(make_engine(EngineKind::Reference)->name(), "ref");
}

TEST(Engine, CorpusSeedsBitIdenticalAcrossEngines) {
  int replayed = 0;
  for (int i = 1;; ++i) {
    const std::string path = std::string(LUIS_TEST_DATA_DIR) +
                             "/corpus/pipeline_seed_" + std::to_string(i) +
                             ".ir";
    std::ifstream is(path);
    if (!is.good()) break;
    std::ostringstream ss;
    ss << is.rdbuf();

    ir::Module m;
    const ir::ParseResult parsed = ir::parse_function(m, ss.str());
    ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.error;
    ASSERT_TRUE(ir::verify(*parsed.function).ok()) << path;
    const ArrayStore inputs =
        synth_inputs(*parsed.function, 0x5EED0000u + static_cast<unsigned>(i));
    for (const TypeAssignment& types : assignment_grid(*parsed.function))
      expect_engines_agree(*parsed.function, types, inputs);
    ++replayed;
  }
  EXPECT_GE(replayed, 5) << "seed corpus missing from tests/corpus";
}

TEST(Engine, RealDivisionByZeroAgrees) {
  ir::Module m;
  KernelBuilder kb(m, "divzero");
  Array* A = kb.array("A", {4}, -2.0, 2.0);
  Array* B = kb.array("B", {4}, -100.0, 100.0);
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.store(kb.div(kb.load(A, {i}), kb.real(0.0)), B, {i});
  });
  ir::Function* f = kb.finish();
  ASSERT_TRUE(ir::verify(*f).ok());
  ArrayStore inputs;
  inputs["A"] = {1.0, -1.0, 0.0, 2.5}; // inf, -inf, nan, inf
  for (const TypeAssignment& types : assignment_grid(*f)) {
    const RunResult r = expect_engines_agree(*f, types, inputs);
    EXPECT_TRUE(r.ok) << r.error;
  }
}

TEST(Engine, IntegerDivisionAndRemByZeroAgree) {
  // idiv/irem by zero are defined as 0 by the interpreter contract; both
  // engines must produce that, not a trap.
  const char* text = R"(func @intzero {
  array @A[2] range [0.0, 8.0]
entry:
  %0 = idiv 7, 0
  %1 = irem 7, 0
  %2 = inttoreal %0
  %3 = inttoreal %1
  store %2, @A[0]
  store %3, @A[1]
  ret
})";
  ir::Module m;
  const ir::ParseResult parsed = ir::parse_function(m, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const RunResult r =
      expect_engines_agree(*parsed.function, {}, synth_inputs(*parsed.function, 1));
  ASSERT_TRUE(r.ok) << r.error;
}

TEST(Engine, RemWithNegativeOperandsAgrees) {
  ir::Module m;
  KernelBuilder kb(m, "negrem");
  Array* B = kb.array("B", {4}, -10.0, 10.0);
  kb.store(kb.rem(kb.real(-7.5), kb.real(2.0)), B, {kb.idx(0)});
  kb.store(kb.rem(kb.real(7.5), kb.real(-2.0)), B, {kb.idx(1)});
  kb.store(kb.rem(kb.real(-7.5), kb.real(-2.0)), B, {kb.idx(2)});
  kb.store(kb.rem(kb.real(-1.0), kb.real(0.0)), B, {kb.idx(3)}); // nan
  ir::Function* f = kb.finish();
  ASSERT_TRUE(ir::verify(*f).ok());
  for (const TypeAssignment& types : assignment_grid(*f)) {
    const RunResult r = expect_engines_agree(*f, types, synth_inputs(*f, 2));
    EXPECT_TRUE(r.ok) << r.error;
  }
}

TEST(Engine, NonFiniteIntermediatesAgreeIncludingRanges) {
  ir::Module m;
  KernelBuilder kb(m, "nonfinite");
  Array* B = kb.array("B", {3}, -1e30, 1e30);
  kb.store(kb.exp(kb.real(800.0)), B, {kb.idx(0)});          // inf
  kb.store(kb.sqrt(kb.real(-4.0)), B, {kb.idx(1)});          // nan
  kb.store(kb.sub(kb.exp(kb.real(800.0)), kb.exp(kb.real(800.0))), B,
           {kb.idx(2)});                                     // inf - inf = nan
  ir::Function* f = kb.finish();
  ASSERT_TRUE(ir::verify(*f).ok());
  RunOptions opt;
  opt.track_array_ranges = true;
  opt.track_register_ranges = true;
  const RunResult r = expect_engines_agree(*f, {}, synth_inputs(*f, 3), opt);
  ASSERT_TRUE(r.ok) << r.error;
}

TEST(Engine, ZeroIterationLoopAgrees) {
  ir::Module m;
  KernelBuilder kb(m, "emptyloop");
  Array* A = kb.array("A", {4}, 0.0, 1.0);
  ScalarCell acc = kb.scalar("acc", 0.0, 8.0);
  kb.set(acc, kb.real(0.0));
  kb.for_loop("i", 0, 0, [&](IVal i) {
    kb.set(acc, kb.get(acc) + kb.load(A, {i}));
  });
  kb.store(kb.get(acc), A, {kb.idx(0)});
  ir::Function* f = kb.finish();
  ASSERT_TRUE(ir::verify(*f).ok());
  for (const TypeAssignment& types : assignment_grid(*f)) {
    const RunResult r = expect_engines_agree(*f, types, synth_inputs(*f, 4));
    EXPECT_TRUE(r.ok) << r.error;
  }
}

TEST(Engine, StepLimitTrapAgrees) {
  ir::Module m;
  KernelBuilder kb(m, "long");
  Array* A = kb.array("A", {1}, 0.0, 1.0);
  kb.for_loop("i", 0, 1000000,
              [&](IVal) { kb.store(kb.real(1.0), A, {kb.idx(0)}); });
  ir::Function* f = kb.finish();
  RunOptions opt;
  opt.max_steps = 1000;
  const RunResult r = expect_engines_agree(*f, {}, synth_inputs(*f, 5), opt);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("step limit"), std::string::npos);
  // Counters are only materialized on a successful ret.
  EXPECT_TRUE(r.counters.ops.empty());
}

TEST(Engine, ProgramCacheHitsOnSecondRun) {
  ir::Module m;
  KernelBuilder kb(m, "cached");
  Array* A = kb.array("A", {8}, 0.0, 1.0);
  kb.for_loop("i", 0, 8, [&](IVal i) {
    kb.store(kb.load(A, {i}) * kb.real(2.0), A, {i});
  });
  ir::Function* f = kb.finish();
  ASSERT_TRUE(ir::verify(*f).ok());

  ProgramCache cache;
  const VmEngine vm(&cache);
  const ReferenceEngine ref;
  const ArrayStore inputs = synth_inputs(*f, 7);

  ArrayStore s1 = inputs, s2 = inputs, s3 = inputs;
  ASSERT_TRUE(vm.run(*f, {}, s1).ok);
  ASSERT_TRUE(vm.run(*f, {}, s2).ok);
  EXPECT_EQ(cache.stats().lookups, 2);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().insertions, 1);
  EXPECT_TRUE(buffers_bit_equal(s1.at("A"), s2.at("A")));

  // A different assignment is a different program.
  const TypeAssignment b32 = TypeAssignment::uniform(*f, {numrep::kBinary32, 0});
  ASSERT_TRUE(vm.run(*f, b32, s3).ok);
  EXPECT_EQ(cache.stats().insertions, 2);

  // Cached replay still matches the reference interpreter bit for bit.
  ArrayStore sr = inputs, sv = inputs;
  ASSERT_TRUE(ref.run(*f, b32, sr).ok);
  ASSERT_TRUE(vm.run(*f, b32, sv).ok);
  EXPECT_TRUE(buffers_bit_equal(sr.at("A"), sv.at("A")));
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST(Engine, CacheKeySurvivesReparse) {
  // The same kernel text parsed into two modules shares one entry: the
  // cache key must not depend on object identity.
  const char* text = R"(func @twin {
  array @A[4] range [0.0, 1.0]
entry:
  %0 = load @A[0]
  %1 = mul %0, %0
  store %1, @A[1]
  ret
})";
  ir::Module m1, m2;
  const ir::ParseResult p1 = ir::parse_function(m1, text);
  const ir::ParseResult p2 = ir::parse_function(m2, text);
  ASSERT_TRUE(p1.ok() && p2.ok());
  ProgramCache cache;
  const VmEngine vm(&cache);
  ArrayStore s1 = synth_inputs(*p1.function, 8);
  ArrayStore s2 = s1;
  ASSERT_TRUE(vm.run(*p1.function, {}, s1).ok);
  ASSERT_TRUE(vm.run(*p2.function, {}, s2).ok);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().insertions, 1);
}

TEST(Engine, PhiEdgeReadsSourcesSimultaneously) {
  // A swap loop: both phis of an edge must read their sources before
  // either destination is written, under every assignment. An odd trip
  // count leaves the values exchanged; each assignment quantizes the pair
  // differently.
  const char* text = R"(func @swap {
  array @A[2] range [0.0, 4.0]
entry:
  %0 = load @A[0]
  %1 = load @A[1]
  br loop
loop:
  %2 = phi int [ 0, entry ], [ %5, loop ]
  %3 = phi real [ %0, entry ], [ %4, loop ]
  %4 = phi real [ %1, entry ], [ %3, loop ]
  %5 = iadd %2, 1
  %6 = icmp lt %5, 6
  condbr %6, loop, done
done:
  store %3, @A[0]
  store %4, @A[1]
  ret
})";
  ir::Module m;
  const ir::ParseResult parsed = ir::parse_function(m, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const ir::Function& f = *parsed.function;
  ArrayStore inputs;
  inputs["A"] = {0.625, 2.75};
  for (const TypeAssignment& types : assignment_grid(f))
    expect_engines_agree(f, types, inputs);

  // The swap actually happened (odd number of exchanges).
  const VmEngine vm;
  ArrayStore store = inputs;
  ASSERT_TRUE(vm.run(f, TypeAssignment(), store).ok);
  EXPECT_EQ(store.at("A")[0], 2.75);
  EXPECT_EQ(store.at("A")[1], 0.625);
}

// ---- ExecutionEngine::run_batch: one run() per lane -----------------------

/// Runs the lane set through run_batch on both engines (the VM with a
/// program cache) and asserts every lane is bit-identical to a scalar
/// ReferenceEngine run of that assignment: outputs, steps, counters,
/// ranges, and trap diagnostics, in lane order.
void expect_batch_matches_reference(const ir::Function& f,
                                    const std::vector<TypeAssignment>& lanes,
                                    const ArrayStore& inputs,
                                    const RunOptions& options = {}) {
  const ReferenceEngine ref;
  ProgramCache cache;
  const VmEngine vm(&cache);
  const ExecutionEngine* const engines[] = {&ref, &vm};
  for (const ExecutionEngine* engine : engines) {
    std::vector<ArrayStore> stores(lanes.size(), inputs);
    std::vector<BatchRequest> reqs(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i)
      reqs[i] = {&lanes[i], &stores[i], nullptr};
    const std::vector<RunResult> got = engine->run_batch(f, reqs, options);
    ASSERT_EQ(got.size(), lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      ArrayStore ref_store = inputs;
      const RunResult want = ref.run(f, lanes[i], ref_store, options);
      EXPECT_EQ(want.ok, got[i].ok)
          << engine->name() << " lane " << i << " ref: " << want.error
          << " batch: " << got[i].error;
      EXPECT_EQ(want.error, got[i].error) << engine->name() << " lane " << i;
      EXPECT_EQ(want.steps, got[i].steps) << engine->name() << " lane " << i;
      EXPECT_EQ(want.counters.ops, got[i].counters.ops)
          << engine->name() << " lane " << i;
      EXPECT_EQ(want.counters.non_real_ops, got[i].counters.non_real_ops)
          << engine->name() << " lane " << i;
      EXPECT_EQ(want.array_ranges, got[i].array_ranges)
          << engine->name() << " lane " << i;
      EXPECT_EQ(want.register_ranges, got[i].register_ranges)
          << engine->name() << " lane " << i;
      for (const auto& [name, buf] : ref_store)
        EXPECT_TRUE(buffers_bit_equal(buf, stores[i].at(name)))
            << engine->name() << " lane " << i << " array " << name;
    }
  }
}

TEST(EngineBatch, CorpusSeedsMatchReferencePerLane) {
  int replayed = 0;
  for (int i = 1;; ++i) {
    const std::string path = std::string(LUIS_TEST_DATA_DIR) +
                             "/corpus/pipeline_seed_" + std::to_string(i) +
                             ".ir";
    std::ifstream is(path);
    if (!is.good()) break;
    std::ostringstream ss;
    ss << is.rdbuf();

    ir::Module m;
    const ir::ParseResult parsed = ir::parse_function(m, ss.str());
    ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.error;
    const ArrayStore inputs =
        synth_inputs(*parsed.function, 0xBA7C0000u + static_cast<unsigned>(i));
    RunOptions opt;
    opt.track_array_ranges = true;
    opt.track_register_ranges = true;
    expect_batch_matches_reference(*parsed.function,
                                   assignment_grid(*parsed.function), inputs,
                                   opt);
    ++replayed;
  }
  EXPECT_GE(replayed, 5) << "seed corpus missing from tests/corpus";
}

TEST(EngineBatch, LaneCountOneBitIdenticalWithScalarVm) {
  ir::Module m;
  KernelBuilder kb(m, "one_lane");
  Array* A = kb.array("A", {8}, 0.0, 1.0);
  kb.for_loop("i", 0, 8, [&](IVal i) {
    kb.store(kb.load(A, {i}) * kb.real(3.0) + kb.real(0.125), A, {i});
  });
  ir::Function* f = kb.finish();
  const ArrayStore inputs = synth_inputs(*f, 11);
  const TypeAssignment fix = TypeAssignment::uniform(*f, {numrep::kFixed32, 12});

  const VmEngine vm;
  ArrayStore scalar_store = inputs;
  const RunResult want = vm.run(*f, fix, scalar_store, {});

  ArrayStore batch_store = inputs;
  const std::vector<BatchRequest> reqs = {{&fix, &batch_store, nullptr}};
  const std::vector<RunResult> got = vm.run_batch(*f, reqs, {});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].ok);
  EXPECT_EQ(want.steps, got[0].steps);
  EXPECT_EQ(want.counters.ops, got[0].counters.ops);
  EXPECT_EQ(want.counters.non_real_ops, got[0].counters.non_real_ops);
  EXPECT_TRUE(buffers_bit_equal(scalar_store.at("A"), batch_store.at("A")));
}

TEST(EngineBatch, TrapRetiresOneLaneWhileOthersFinish) {
  // acc += 0.001 until acc >= 1.0. In a coarse fixed format the increment
  // quantizes to zero, so that lane spins until the step limit while the
  // float lanes terminate normally — the trapped lane must fail with a
  // scalar run's exact diagnostics and step count without disturbing the
  // other lanes.
  const char* text = R"(func @stall {
  array @A[1] range [0.0, 4.0]
entry:
  br loop
loop:
  %0 = phi real [ 0.0, entry ], [ %1, loop ]
  %1 = add %0, 0.001
  %2 = fcmp lt %1, 1.0
  condbr %2, loop, done
done:
  store %1, @A[0]
  ret
})";
  ir::Module m;
  const ir::ParseResult parsed = ir::parse_function(m, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const ir::Function& f = *parsed.function;

  const std::vector<TypeAssignment> lanes = {
      {}, // binary64: terminates
      TypeAssignment::uniform(f, {numrep::kFixed32, 6}), // 0.001 -> 0: spins
      TypeAssignment::uniform(f, {numrep::kBinary32, 0}), // terminates
  };
  RunOptions opt;
  opt.max_steps = 50'000;
  const ArrayStore inputs = synth_inputs(f, 12);
  expect_batch_matches_reference(f, lanes, inputs, opt);

  // And the expected shape, explicitly: lane 1 trapped, lanes 0/2 ran on.
  const ReferenceEngine ref;
  const VmEngine vm;
  const ExecutionEngine* const engines[] = {&ref, &vm};
  for (const ExecutionEngine* engine : engines) {
    std::vector<ArrayStore> stores(lanes.size(), inputs);
    std::vector<BatchRequest> reqs(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i)
      reqs[i] = {&lanes[i], &stores[i], nullptr};
    const std::vector<RunResult> got = engine->run_batch(f, reqs, opt);
    EXPECT_TRUE(got[0].ok) << engine->name();
    EXPECT_FALSE(got[1].ok) << engine->name();
    EXPECT_NE(got[1].error.find("step limit"), std::string::npos);
    EXPECT_EQ(got[1].steps, opt.max_steps + 1) << engine->name();
    EXPECT_TRUE(got[2].ok) << engine->name();
    EXPECT_LT(got[0].steps, opt.max_steps) << engine->name();
  }
}

TEST(EngineBatch, MixedFormatLaneSetsMatchReference) {
  // Lane set mixing narrow and wide fixed formats with float and posit
  // lanes, with repeated assignments in and out of runs — the shape of a
  // sweep kernel's lanes before deduplication.
  ir::Module m;
  KernelBuilder kb(m, "mixed");
  Array* A = kb.array("A", {16}, 0.0, 1.0);
  Array* B = kb.array("B", {16}, -4.0, 4.0);
  ScalarCell acc = kb.scalar("acc", -8.0, 8.0);
  kb.set(acc, kb.real(0.0));
  kb.for_loop("i", 0, 16, [&](IVal i) {
    RVal x = kb.load(A, {i});
    RVal y = kb.load(B, {i});
    kb.store(kb.sub(kb.add(x, y), kb.real(0.25)), B, {i});
    kb.set(acc, kb.get(acc) + x);
  });
  kb.store(kb.get(acc), B, {kb.idx(0)});
  ir::Function* f = kb.finish();
  ASSERT_TRUE(ir::verify(*f).ok());

  const numrep::NumericFormat fix6 = numrep::NumericFormat::fixed(6);
  const numrep::NumericFormat fix12 = numrep::NumericFormat::fixed(12);
  const std::vector<TypeAssignment> lanes = {
      TypeAssignment::uniform(*f, {fix6, 3}),
      TypeAssignment::uniform(*f, {fix6, 3}),
      TypeAssignment::uniform(*f, {fix6, 3}),
      TypeAssignment::uniform(*f, {fix12, 7}),
      TypeAssignment::uniform(*f, {fix12, 7}),
      TypeAssignment::uniform(*f, {numrep::kBinary32, 0}),
      TypeAssignment::uniform(*f, {numrep::kFixed16, 8}),
      TypeAssignment::uniform(*f, {numrep::kFixed16, 8}),
      TypeAssignment::uniform(*f, {numrep::kPosit16, 0}),
      TypeAssignment::uniform(*f, {numrep::kFixed16, 9}),
      {},
      TypeAssignment::uniform(*f, {fix6, 3}), // repeats lane 0 out of its run
  };
  RunOptions opt;
  opt.track_array_ranges = true;
  opt.track_register_ranges = true;
  const ArrayStore inputs = synth_inputs(*f, 13);
  expect_batch_matches_reference(*f, lanes, inputs, opt);

  // Repeated assignments compile once: 7 distinct programs for 12 lanes.
  ProgramCache cache;
  const VmEngine vm(&cache);
  std::vector<ArrayStore> stores(lanes.size(), inputs);
  std::vector<BatchRequest> reqs(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i)
    reqs[i] = {&lanes[i], &stores[i], nullptr};
  for (const RunResult& r : vm.run_batch(*f, reqs, opt)) EXPECT_TRUE(r.ok);
  EXPECT_EQ(cache.stats().insertions, 7);
  EXPECT_EQ(cache.stats().hits, 5);
  // Equal assignments leave equal, independent stores.
  EXPECT_TRUE(buffers_bit_equal(stores[0].at("B"), stores[11].at("B")));
  EXPECT_FALSE(buffers_bit_equal(stores[0].at("B"), stores[5].at("B")));
}

TEST(EngineBatch, PerLaneProfilesMatchScalarVm) {
  ir::Module m;
  KernelBuilder kb(m, "profiled");
  Array* A = kb.array("A", {8}, 0.0, 1.0);
  kb.for_loop("i", 0, 8, [&](IVal i) {
    RVal x = kb.load(A, {i});
    kb.store(kb.select(kb.fcmp(ir::CmpPred::LT, x, kb.real(0.5)), x,
                       kb.mul(x, kb.real(0.5))),
             A, {i});
  });
  ir::Function* f = kb.finish();
  const ArrayStore inputs = synth_inputs(*f, 14);
  const std::vector<TypeAssignment> lanes = {
      {},
      TypeAssignment::uniform(*f, {numrep::kFixed32, 10}),
      TypeAssignment::uniform(*f, {numrep::kBfloat16, 0}),
  };

  const VmEngine vm;
  std::vector<ArrayStore> stores(lanes.size(), inputs);
  std::vector<VmProfile> profiles(lanes.size());
  std::vector<BatchRequest> reqs(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i)
    reqs[i] = {&lanes[i], &stores[i], &profiles[i]};
  const std::vector<RunResult> got = vm.run_batch(*f, reqs, {});
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    ASSERT_TRUE(got[i].ok) << got[i].error;
    ArrayStore scalar_store = inputs;
    VmProfile want;
    RunOptions opt;
    opt.vm_profile = &want;
    ASSERT_TRUE(vm.run(*f, lanes[i], scalar_store, opt).ok);
    EXPECT_EQ(want.instr_executions, profiles[i].instr_executions)
        << "lane " << i;
    EXPECT_EQ(want.edge_applications, profiles[i].edge_applications)
        << "lane " << i;
    EXPECT_EQ(want.select_real_first, profiles[i].select_real_first)
        << "lane " << i;
  }
}

void expect_error_cells_equal(const std::vector<ErrorCell>& want,
                              const std::vector<ErrorCell>& got,
                              const char* what, std::size_t lane) {
  ASSERT_EQ(want.size(), got.size()) << what << " lane " << lane;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const ErrorCell& w = want[i];
    const ErrorCell& g = got[i];
    EXPECT_EQ(w.count, g.count) << what << "[" << i << "] lane " << lane;
    EXPECT_EQ(w.sum_abs, g.sum_abs) << what << "[" << i << "] lane " << lane;
    EXPECT_EQ(w.max_abs, g.max_abs) << what << "[" << i << "] lane " << lane;
    EXPECT_EQ(w.sum_rel, g.sum_rel) << what << "[" << i << "] lane " << lane;
    EXPECT_EQ(w.max_rel, g.max_rel) << what << "[" << i << "] lane " << lane;
    for (int b = 0; b < ErrorCell::kBuckets; ++b) {
      EXPECT_EQ(w.hist_abs[b], g.hist_abs[b])
          << what << "[" << i << "] abs bucket " << b << " lane " << lane;
      EXPECT_EQ(w.hist_rel[b], g.hist_rel[b])
          << what << "[" << i << "] rel bucket " << b << " lane " << lane;
    }
  }
}

/// Field-by-field equality of a batch lane's shadow-error profile with
/// the scalar VM's — down to histogram buckets and spike step numbers.
void expect_error_profiles_equal(const ErrorProfile& want,
                                 const ErrorProfile& got, std::size_t lane) {
  expect_error_cells_equal(want.instr, got.instr, "instr", lane);
  expect_error_cells_equal(want.moves, got.moves, "moves", lane);
  EXPECT_EQ(want.first_spike_step, got.first_spike_step) << "lane " << lane;
  EXPECT_EQ(want.first_spike_pc, got.first_spike_pc) << "lane " << lane;
  EXPECT_EQ(want.first_spike_src, got.first_spike_src) << "lane " << lane;
  EXPECT_EQ(want.first_spike_rel, got.first_spike_rel) << "lane " << lane;
  EXPECT_EQ(want.control_divergences, got.control_divergences)
      << "lane " << lane;
  EXPECT_EQ(want.first_control_divergence_step,
            got.first_control_divergence_step)
      << "lane " << lane;
  EXPECT_EQ(want.finalized, got.finalized) << "lane " << lane;
  ASSERT_EQ(want.arrays.size(), got.arrays.size()) << "lane " << lane;
  for (std::size_t a = 0; a < want.arrays.size(); ++a) {
    EXPECT_EQ(want.arrays[a].name, got.arrays[a].name) << "lane " << lane;
    EXPECT_EQ(want.arrays[a].stored, got.arrays[a].stored) << "lane " << lane;
    EXPECT_EQ(want.arrays[a].elements, got.arrays[a].elements)
        << "lane " << lane;
    EXPECT_EQ(want.arrays[a].max_abs, got.arrays[a].max_abs)
        << "lane " << lane;
    EXPECT_EQ(want.arrays[a].max_rel, got.arrays[a].max_rel)
        << "lane " << lane;
    EXPECT_EQ(want.arrays[a].mpe, got.arrays[a].mpe) << "lane " << lane;
    EXPECT_EQ(want.arrays[a].finite, got.arrays[a].finite) << "lane " << lane;
  }
  EXPECT_EQ(want.program_mpe, got.program_mpe) << "lane " << lane;
  ASSERT_EQ(want.shadow_arrays.size(), got.shadow_arrays.size())
      << "lane " << lane;
  for (const auto& [name, buf] : want.shadow_arrays) {
    const auto it = got.shadow_arrays.find(name);
    ASSERT_NE(it, got.shadow_arrays.end()) << "lane " << lane << " " << name;
    EXPECT_TRUE(buffers_bit_equal(buf, it->second))
        << "lane " << lane << " shadow " << name;
  }
}

TEST(EngineBatch, PerLaneErrorProfilesMatchScalarVm) {
  // A loop-carried real phi keeps the phi-move cells busy; the fcmp/
  // select pair gives coarse lanes room for control divergences. Every
  // accumulator of every lane must agree with the scalar VM bit for bit.
  ir::Module m;
  KernelBuilder kb(m, "err_profiled");
  Array* A = kb.array("A", {8}, 0.0, 1.0);
  ScalarCell acc = kb.scalar("acc", -16.0, 16.0);
  kb.set(acc, kb.real(0.0));
  kb.for_loop("i", 0, 8, [&](IVal i) {
    RVal x = kb.load(A, {i});
    RVal y = kb.select(kb.fcmp(ir::CmpPred::LT, x, kb.real(0.5)),
                       kb.add(x, kb.real(0.125)), kb.mul(x, kb.real(0.75)));
    kb.store(y, A, {i});
    kb.set(acc, kb.get(acc) + y);
  });
  kb.store(kb.get(acc), A, {kb.idx(0)});
  ir::Function* f = kb.finish();
  const ArrayStore inputs = synth_inputs(*f, 17);
  const std::vector<TypeAssignment> lanes = {
      {},
      TypeAssignment::uniform(*f, {numrep::kFixed32, 10}),
      TypeAssignment::uniform(*f, {numrep::kBfloat16, 0}),
      TypeAssignment::uniform(*f, {numrep::NumericFormat::fixed(8), 4}),
  };

  const VmEngine vm;
  std::vector<ArrayStore> stores(lanes.size(), inputs);
  std::vector<ErrorProfile> errors(lanes.size());
  std::vector<BatchRequest> reqs(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i)
    reqs[i] = {&lanes[i], &stores[i], nullptr, &errors[i]};
  const std::vector<RunResult> got = vm.run_batch(*f, reqs, {});
  bool any_error_observed = false;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    ASSERT_TRUE(got[i].ok) << got[i].error;
    ArrayStore scalar_store = inputs;
    ErrorProfile want;
    RunOptions opt;
    opt.error_profile = &want;
    ASSERT_TRUE(vm.run(*f, lanes[i], scalar_store, opt).ok);
    EXPECT_TRUE(buffers_bit_equal(scalar_store.at("A"), stores[i].at("A")))
        << "lane " << i;
    expect_error_profiles_equal(want, errors[i], i);
    for (const ErrorCell& c : errors[i].instr)
      any_error_observed = any_error_observed || c.max_abs > 0.0;
  }
  // The coarse lanes really did deviate — the equality above is not
  // comparing all-zero accumulators.
  EXPECT_TRUE(any_error_observed);
  EXPECT_GT(errors[3].program_mpe, 0.0);
}

TEST(EngineBatch, TrapRetiredLaneErrorProfileMatchesScalarVm) {
  // The stall kernel again: the coarse fixed lane spins to the step
  // limit and traps mid-batch. Its profile must freeze exactly
  // where the scalar VM's does — same cell counts, not finalized, no
  // per-array stats — while the surviving lanes finalize normally.
  const char* text = R"(func @stall_err {
  array @A[1] range [0.0, 4.0]
entry:
  br loop
loop:
  %0 = phi real [ 0.0, entry ], [ %1, loop ]
  %1 = add %0, 0.001
  %2 = fcmp lt %1, 1.0
  condbr %2, loop, done
done:
  store %1, @A[0]
  ret
})";
  ir::Module m;
  const ir::ParseResult parsed = ir::parse_function(m, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const ir::Function& f = *parsed.function;
  const std::vector<TypeAssignment> lanes = {
      {},
      TypeAssignment::uniform(f, {numrep::kFixed32, 6}), // 0.001 -> 0: spins
      TypeAssignment::uniform(f, {numrep::kBinary32, 0}),
  };
  RunOptions opt;
  opt.max_steps = 50'000;
  const ArrayStore inputs = synth_inputs(f, 18);

  const VmEngine vm;
  std::vector<ArrayStore> stores(lanes.size(), inputs);
  std::vector<ErrorProfile> errors(lanes.size());
  std::vector<BatchRequest> reqs(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i)
    reqs[i] = {&lanes[i], &stores[i], nullptr, &errors[i]};
  const std::vector<RunResult> got = vm.run_batch(f, reqs, opt);
  ASSERT_FALSE(got[1].ok);
  EXPECT_FALSE(errors[1].finalized);
  EXPECT_TRUE(errors[0].finalized && errors[2].finalized);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    ArrayStore scalar_store = inputs;
    ErrorProfile want;
    RunOptions sopt = opt;
    sopt.error_profile = &want;
    const RunResult sres = vm.run(f, lanes[i], scalar_store, sopt);
    EXPECT_EQ(sres.ok, got[i].ok) << "lane " << i;
    EXPECT_EQ(sres.steps, got[i].steps) << "lane " << i;
    expect_error_profiles_equal(want, errors[i], i);
  }
  // The spinning lane's phi-move cell saw every iteration: one move per
  // loop-back edge, each with zero deviation (the shadow spins too).
  ASSERT_FALSE(errors[1].moves.empty());
  long move_count = 0;
  for (const ErrorCell& c : errors[1].moves) move_count += c.count;
  EXPECT_GT(move_count, 10'000);
}

TEST(EngineBatch, ReferenceEngineBatchFallsBackToScalarLoop) {
  ir::Module m;
  KernelBuilder kb(m, "fallback");
  Array* A = kb.array("A", {4}, 0.0, 1.0);
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.store(kb.load(A, {i}) + kb.real(1.0), A, {i});
  });
  ir::Function* f = kb.finish();
  const ArrayStore inputs = synth_inputs(*f, 15);
  const std::vector<TypeAssignment> lanes = {
      {}, TypeAssignment::uniform(*f, {numrep::kBinary32, 0})};

  const ReferenceEngine ref;
  std::vector<ArrayStore> stores(lanes.size(), inputs);
  std::vector<BatchRequest> reqs(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i)
    reqs[i] = {&lanes[i], &stores[i], nullptr};
  const std::vector<RunResult> got = ref.run_batch(*f, reqs, {});
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    ArrayStore want_store = inputs;
    const RunResult want = ref.run(*f, lanes[i], want_store, {});
    EXPECT_EQ(want.steps, got[i].steps);
    EXPECT_TRUE(buffers_bit_equal(want_store.at("A"), stores[i].at("A")));
  }
}

TEST(EngineBatch, SharesProgramCacheWithScalarRuns) {
  ir::Module m;
  KernelBuilder kb(m, "batch_cached");
  Array* A = kb.array("A", {4}, 0.0, 1.0);
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.store(kb.load(A, {i}) * kb.real(2.0), A, {i});
  });
  ir::Function* f = kb.finish();
  const ArrayStore inputs = synth_inputs(*f, 16);
  const std::vector<TypeAssignment> lanes = {
      {}, TypeAssignment::uniform(*f, {numrep::kBinary32, 0})};

  ProgramCache cache;
  const VmEngine vm(&cache);
  ArrayStore s0 = inputs;
  ASSERT_TRUE(vm.run(*f, lanes[0], s0, {}).ok); // pre-warms lane 0
  std::vector<ArrayStore> stores(lanes.size(), inputs);
  std::vector<BatchRequest> reqs(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i)
    reqs[i] = {&lanes[i], &stores[i], nullptr};
  ASSERT_TRUE(vm.run_batch(*f, reqs, {}).at(1).ok);
  EXPECT_EQ(cache.stats().hits, 1);       // lane 0 served from the cache
  EXPECT_EQ(cache.stats().insertions, 2); // scalar run + missing lane 1
  // A second batch is all hits.
  std::vector<ArrayStore> stores2(lanes.size(), inputs);
  for (std::size_t i = 0; i < lanes.size(); ++i) reqs[i].store = &stores2[i];
  ASSERT_TRUE(vm.run_batch(*f, reqs, {}).at(0).ok);
  EXPECT_EQ(cache.stats().insertions, 2);
  EXPECT_EQ(cache.stats().hits, 3);
}

TEST(Engine, DisassembleSmoke) {
  ir::Module m;
  KernelBuilder kb(m, "disasm");
  Array* A = kb.array("A", {4}, 0.0, 1.0);
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.store(kb.load(A, {i}) + kb.real(1.0), A, {i});
  });
  ir::Function* f = kb.finish();
  const CompiledProgram program = compile_program(*f, {});
  const std::string text = disassemble(program);
  EXPECT_NE(text.find("disasm"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
  EXPECT_GT(program.code.size(), 0u);
  EXPECT_GT(program.num_regs, 0);
}

} // namespace
} // namespace luis::interp
