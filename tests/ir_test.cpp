#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ir/kernel_builder.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace luis::ir {
namespace {

/// A small loop-nest kernel used across the structural tests:
/// for i in [0,4): for j in [0,4): C[i][j] = A[i][j] * s + C[i][j]
Function* build_axpy_kernel(Module& m) {
  KernelBuilder kb(m, "axpy2d");
  Array* A = kb.array("A", {4, 4}, -1.0, 1.0);
  Array* C = kb.array("C", {4, 4}, -10.0, 10.0);
  RVal s = kb.real(0.5);
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.for_loop("j", 0, 4, [&](IVal j) {
      RVal v = kb.load(A, {i, j}) * s + kb.load(C, {i, j});
      kb.store(v, C, {i, j});
    });
  });
  return kb.finish();
}

TEST(KernelBuilder, ProducesVerifiableLoopNest) {
  Module m;
  Function* f = build_axpy_kernel(m);
  const VerifyResult vr = verify(*f);
  EXPECT_TRUE(vr.ok()) << vr.message();
  // entry + 2 loops x 4 blocks each.
  EXPECT_EQ(f->blocks().size(), 9u);
  EXPECT_EQ(f->arrays().size(), 2u);
}

TEST(KernelBuilder, LoopPhiHasTwoIncomingEdges) {
  Module m;
  Function* f = build_axpy_kernel(m);
  int phi_count = 0;
  for (const auto& bb : f->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (!inst->is_phi()) continue;
      ++phi_count;
      EXPECT_EQ(inst->num_operands(), 2u);
      EXPECT_EQ(inst->type(), ScalarType::Int);
    }
  }
  EXPECT_EQ(phi_count, 2);
}

TEST(KernelBuilder, IfThenElseStructure) {
  Module m;
  KernelBuilder kb(m, "guarded");
  Array* A = kb.array("A", {8}, 0.0, 1.0);
  kb.for_loop("i", 0, 8, [&](IVal i) {
    kb.if_then_else(
        i < kb.idx(4), [&] { kb.store(kb.real(1.0), A, {i}); },
        [&] { kb.store(kb.real(2.0), A, {i}); });
  });
  Function* f = kb.finish();
  const VerifyResult vr = verify(*f);
  EXPECT_TRUE(vr.ok()) << vr.message();
}

TEST(KernelBuilder, ScalarCellsAreOneElementArrays) {
  Module m;
  KernelBuilder kb(m, "cells");
  ScalarCell sum = kb.scalar("sum", -100.0, 100.0);
  kb.set(sum, kb.real(0.0));
  kb.set(sum, kb.get(sum) + kb.real(1.0));
  Function* f = kb.finish();
  EXPECT_TRUE(verify(*f).ok());
  Array* cell = f->array_by_name("sum");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->element_count(), 1);
  ASSERT_TRUE(cell->range_annotation().has_value());
  EXPECT_DOUBLE_EQ(cell->range_annotation()->first, -100.0);
}

TEST(Verifier, CatchesUnterminatedBlock) {
  Module m;
  Function* f = m.add_function("bad");
  f->add_block("entry");
  const VerifyResult vr = verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("not terminated"), std::string::npos);
}

TEST(Verifier, CatchesPhiPredecessorMismatch) {
  Module m;
  Function* f = m.add_function("bad");
  BasicBlock* entry = f->add_block("entry");
  BasicBlock* next = f->add_block("next");
  IRBuilder b(f);
  b.set_insertion_block(entry);
  b.br(next);
  b.set_insertion_block(next);
  Instruction* phi = b.phi(ScalarType::Int);
  phi->add_incoming(f->const_int(0), next); // wrong: should be entry
  b.ret();
  const VerifyResult vr = verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("incoming blocks"), std::string::npos);
}

TEST(Verifier, CatchesUseBeforeDefInBlock) {
  Module m;
  Function* f = m.add_function("bad");
  BasicBlock* entry = f->add_block("entry");
  // Hand-build: %1 = add %0, 1.0 placed before %0 = add 1.0, 1.0
  auto later = std::make_unique<Instruction>(
      Opcode::Add, ScalarType::Real,
      std::vector<Value*>{f->const_real(1.0), f->const_real(1.0)});
  Instruction* later_ptr = later.get();
  auto first = std::make_unique<Instruction>(
      Opcode::Add, ScalarType::Real,
      std::vector<Value*>{later_ptr, f->const_real(1.0)});
  entry->append(std::move(first));
  entry->append(std::move(later));
  auto ret = std::make_unique<Instruction>(Opcode::Ret, ScalarType::Void,
                                           std::vector<Value*>{});
  entry->append(std::move(ret));
  const VerifyResult vr = verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("use before def"), std::string::npos);
}

TEST(Verifier, CatchesOperandTypeErrors) {
  Module m;
  Function* f = m.add_function("bad");
  BasicBlock* entry = f->add_block("entry");
  // add with an int operand.
  entry->append(std::make_unique<Instruction>(
      Opcode::Add, ScalarType::Real,
      std::vector<Value*>{f->const_int(1), f->const_real(1.0)}));
  entry->append(std::make_unique<Instruction>(Opcode::Ret, ScalarType::Void,
                                              std::vector<Value*>{}));
  const VerifyResult vr = verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("must be real"), std::string::npos);
}

TEST(Verifier, CatchesUnreachableBlock) {
  Module m;
  Function* f = m.add_function("bad");
  BasicBlock* entry = f->add_block("entry");
  BasicBlock* island = f->add_block("island");
  IRBuilder b(f);
  b.set_insertion_block(entry);
  b.ret();
  b.set_insertion_block(island);
  b.ret();
  const VerifyResult vr = verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("unreachable"), std::string::npos);
}

TEST(Verifier, CatchesBadArrayHeaders) {
  struct Case {
    std::vector<std::int64_t> dims;
    double lo, hi;
    const char* want; ///< nullptr: the header is valid
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::int64_t big = std::int64_t{1} << 32;
  const Case cases[] = {
      {{4}, 1.0, 1.0, nullptr},
      {{kMaxArrayElements}, 0.0, 1.0, nullptr},
      {{2, kMaxArrayElements / 2}, 0.0, 1.0, nullptr},
      {{0}, 0.0, 1.0, "has dimension 0"},
      {{4, -3}, 0.0, 1.0, "has dimension -3"},
      {{kMaxArrayElements + 1}, 0.0, 1.0, "elements"},
      {{4, kMaxArrayElements / 2}, 0.0, 1.0, "elements"},
      {{big, big}, 0.0, 1.0, "elements"}, // the product overflows int64
      {{4}, 1.0, 0.0, "needs lo <= hi"},
      {{4}, nan, 1.0, "needs lo <= hi"},
      {{4}, 0.0, nan, "needs lo <= hi"},
  };
  for (const Case& c : cases) {
    Module m;
    Function* f = m.add_function("f");
    IRBuilder b(f);
    b.set_insertion_block(f->add_block("entry"));
    b.ret();
    f->add_array("a", c.dims)->annotate_range(c.lo, c.hi);
    const VerifyResult vr = verify(*f);
    if (!c.want) {
      EXPECT_TRUE(vr.ok()) << vr.message();
      continue;
    }
    ASSERT_FALSE(vr.ok()) << c.want;
    EXPECT_NE(vr.message().find("array @a"), std::string::npos)
        << vr.message();
    EXPECT_NE(vr.message().find(c.want), std::string::npos) << vr.message();
  }
}

TEST(Dominators, LoopNestStructure) {
  Module m;
  Function* f = build_axpy_kernel(m);
  const auto idom = compute_dominators(*f);
  // Every reachable block is in the dominator map.
  EXPECT_EQ(idom.size(), f->blocks().size());
  // The entry dominates everything.
  for (const auto& bb : f->blocks())
    EXPECT_TRUE(dominates(idom, f->entry(), bb.get())) << bb->name();
  // An inner body never dominates the outer exit.
  const BasicBlock* inner_body = nullptr;
  const BasicBlock* outer_exit = nullptr;
  for (const auto& bb : f->blocks()) {
    if (bb->name().find("j.body") == 0) inner_body = bb.get();
    if (bb->name().find("i.exit") == 0) outer_exit = bb.get();
  }
  ASSERT_NE(inner_body, nullptr);
  ASSERT_NE(outer_exit, nullptr);
  EXPECT_FALSE(dominates(idom, inner_body, outer_exit));
}

TEST(Printer, RoundTripsThroughParser) {
  Module m1;
  Function* f1 = build_axpy_kernel(m1);
  const std::string text1 = print_function(*f1);

  Module m2;
  const ParseResult parsed = parse_function(m2, text1);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const VerifyResult vr = verify(*parsed.function);
  EXPECT_TRUE(vr.ok()) << vr.message();

  // The round trip is a fixed point of printing.
  const std::string text2 = print_function(*parsed.function);
  EXPECT_EQ(text1, text2);
}

TEST(Printer, RoundTripsControlFlowAndMathOps) {
  Module m1;
  KernelBuilder kb(m1, "mixed");
  Array* A = kb.array("A", {4}, 0.1, 4.0);
  ScalarCell acc = kb.scalar("acc", 0.0, 100.0);
  kb.set(acc, kb.real(0.0));
  kb.for_loop("i", 0, 4, [&](IVal i) {
    RVal x = kb.load(A, {i});
    RVal y = kb.sqrt(x) + kb.exp(kb.neg(x));
    kb.if_then(kb.fcmp(CmpPred::GT, y, kb.real(1.0)),
               [&] { kb.set(acc, kb.get(acc) + y); });
    RVal clamped = kb.select(y > kb.real(2.0), kb.real(2.0), y);
    kb.store(clamped, A, {i});
  });
  Function* f1 = kb.finish();
  ASSERT_TRUE(verify(*f1).ok()) << verify(*f1).message();

  const std::string text1 = print_function(*f1);
  Module m2;
  const ParseResult parsed = parse_function(m2, text1);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(verify(*parsed.function).ok()) << verify(*parsed.function).message();
  EXPECT_EQ(print_function(*parsed.function), text1);
}

TEST(Parser, ReadsArrayAnnotations) {
  Module m;
  const ParseResult parsed = parse_function(m, R"(func @tiny {
  array @A[2][3] range [-2.5, 7]
entry:
  %0 = load @A[0][1]
  store %0, @A[1][2]
  ret
})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  Array* a = parsed.function->array_by_name("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->rank(), 2u);
  EXPECT_EQ(a->dims()[1], 3);
  ASSERT_TRUE(a->range_annotation().has_value());
  EXPECT_DOUBLE_EQ(a->range_annotation()->first, -2.5);
  EXPECT_DOUBLE_EQ(a->range_annotation()->second, 7.0);
}

TEST(Parser, RejectsMalformedInput) {
  Module m;
  EXPECT_FALSE(parse_function(m, "not a function").ok());
  EXPECT_FALSE(parse_function(m, "func @f {\nentry:\n  %0 = bogus 1, 2\n}").ok());
  EXPECT_FALSE(parse_function(m, "func @f {\nentry:\n  br nowhere\n}").ok());
}

TEST(Parser, RejectsNumbersWithTrailingJunk) {
  const std::string base = R"(func @k {
  array @a[4] range [0, 1]
  array @b[2][3]
entry:
  %0 = load @b[1][2]
  %1 = mul 2.5, %0
  %2 = iadd 1, 2
  store %1, @a[%2]
  ret
})";
  {
    Module m;
    const ParseResult parsed = parse_function(m, base);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(verify(*parsed.function).ok())
        << verify(*parsed.function).message();
  }
  // Each mutation appends junk to one numeric token; the parse must fail
  // with `want` in its message instead of reading the leading digits.
  const struct {
    const char* from;
    const char* to;
    const char* want;
  } mutations[] = {
      {"@a[4]", "@a[4x]", "bad array declaration"},
      {"@b[2][3]", "@b[2][abc]", "bad array declaration"},
      {"@b[2][3]", "@b[2][]", "bad array declaration"},
      {"range [0, 1]", "range [0, 1x]", "bad array declaration"},
      {"range [0, 1]", "range [0junk, 1]", "bad array declaration"},
      {"range [0, 1]", "range [0, 1] extra", "bad array declaration"},
      {"load @b[1][2]", "load @b[1][2junk]", "bad operand '2junk'"},
      {"mul 2.5, %0", "mul 2.5x, %0", "bad operand '2.5x'"},
      {"mul 2.5, %0", "mul 2.5, %0junk", "bad operand '%0junk'"},
      {"iadd 1, 2", "iadd 1, 24abc", "bad operand '24abc'"},
      {"%1 = mul", "%1x = mul", "bad result id"},
  };
  for (const auto& mu : mutations) {
    std::string text = base;
    const std::size_t at = text.find(mu.from);
    ASSERT_NE(at, std::string::npos) << mu.from;
    text.replace(at, std::string(mu.from).size(), mu.to);
    Module m;
    const ParseResult parsed = parse_function(m, text);
    ASSERT_FALSE(parsed.ok()) << mu.to;
    EXPECT_NE(parsed.error.find(mu.want), std::string::npos)
        << mu.to << ": " << parsed.error;
  }
}

TEST(Function, ConstantInterning) {
  Module m;
  Function* f = m.add_function("f");
  EXPECT_EQ(f->const_real(1.5), f->const_real(1.5));
  EXPECT_NE(f->const_real(1.5), f->const_real(2.5));
  EXPECT_EQ(f->const_int(3), f->const_int(3));
}

TEST(Function, InstructionCountAndLookup) {
  Module m;
  Function* f = build_axpy_kernel(m);
  EXPECT_GE(f->instruction_count(), 20u);
  EXPECT_NE(f->array_by_name("A"), nullptr);
  EXPECT_EQ(f->array_by_name("nope"), nullptr);
  EXPECT_NE(f->block_by_name("entry"), nullptr);
  EXPECT_NE(m.function_by_name("axpy2d"), nullptr);
}

TEST(BasicBlock, InsertBeforePlacesInstruction) {
  Module m;
  Function* f = m.add_function("f");
  BasicBlock* entry = f->add_block("entry");
  IRBuilder b(f);
  b.set_insertion_block(entry);
  Instruction* a = b.add(f->const_real(1.0), f->const_real(2.0));
  b.ret();
  auto cast = std::make_unique<Instruction>(Opcode::Cast, ScalarType::Real,
                                            std::vector<Value*>{a});
  Instruction* inserted = entry->insert_before(entry->instructions()[1].get(),
                                               std::move(cast));
  EXPECT_EQ(entry->instructions()[1].get(), inserted);
  EXPECT_EQ(entry->instructions().size(), 3u);
  EXPECT_TRUE(verify(*f).ok());
}

} // namespace
} // namespace luis::ir
