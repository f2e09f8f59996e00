#include <gtest/gtest.h>

#include "core/assignment_io.hpp"
#include "core/pipeline.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "polybench/polybench.hpp"

namespace luis::core {
namespace {

TEST(AssignmentIo, RoundTripsAnIlpAllocation) {
  ir::Module m;
  polybench::BuiltKernel kernel = polybench::build_kernel("gemm", m);
  const vra::RangeMap ranges = vra::analyze_ranges(*kernel.function);
  const AllocationResult alloc = allocate_ilp(
      *kernel.function, ranges, platform::stm32_table(), TuningConfig::fast());

  const std::string text =
      assignment_to_text(*kernel.function, alloc.assignment);
  const AssignmentParseResult parsed =
      assignment_from_text(*kernel.function, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  // Every array and Real instruction resolves to the same type.
  for (const auto& arr : kernel.function->arrays())
    EXPECT_EQ(parsed.assignment.of(arr.get()), alloc.assignment.of(arr.get()))
        << arr->name();
  for (const auto& bb : kernel.function->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->type() == ir::ScalarType::Real) {
        EXPECT_EQ(parsed.assignment.of(inst.get()),
                  alloc.assignment.of(inst.get()));
      }

  // Executing under the reloaded assignment is bit-identical.
  interp::ArrayStore s1 = kernel.inputs, s2 = kernel.inputs;
  const interp::RunResult r1 =
      run_function(*kernel.function, alloc.assignment, s1);
  const interp::RunResult r2 =
      run_function(*kernel.function, parsed.assignment, s2);
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_EQ(s1.at("C"), s2.at("C"));
  EXPECT_EQ(r1.counters.ops, r2.counters.ops);
}

TEST(AssignmentIo, TextRoundTripIsAFixpoint) {
  ir::Module m;
  polybench::BuiltKernel kernel = polybench::build_kernel("atax", m);
  const vra::RangeMap ranges = vra::analyze_ranges(*kernel.function);
  const AllocationResult alloc =
      allocate_ilp(*kernel.function, ranges, platform::raspberry_table(),
                   TuningConfig::balanced());

  // save -> load -> save reproduces the file byte for byte: the text form
  // is canonical, so cached assignment artifacts diff cleanly.
  const std::string text =
      assignment_to_text(*kernel.function, alloc.assignment);
  const AssignmentParseResult parsed =
      assignment_from_text(*kernel.function, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(assignment_to_text(*kernel.function, parsed.assignment), text);

  // And the round trip survives the IR's own print/parse cycle: ids come
  // from ir::number_instructions, which the printer preserves.
  ir::Module m2;
  const ir::ParseResult reparsed =
      ir::parse_function(m2, ir::print_function(*kernel.function));
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  const AssignmentParseResult onto_reparsed =
      assignment_from_text(*reparsed.function, text);
  ASSERT_TRUE(onto_reparsed.ok()) << onto_reparsed.error;
  EXPECT_EQ(assignment_to_text(*reparsed.function, onto_reparsed.assignment),
            text);
}

TEST(AssignmentIo, ParsesDefaultAndComments) {
  ir::Module m;
  polybench::BuiltKernel kernel = polybench::build_kernel("trisolv", m);
  const AssignmentParseResult parsed = assignment_from_text(*kernel.function,
                                                            R"(# hand-written
@L fix32.20
default binary32
@x fix32.18
)");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.assignment.of(kernel.function->array_by_name("L")).name(),
            "fix32.20");
  EXPECT_EQ(parsed.assignment.of(kernel.function->array_by_name("x")).name(),
            "fix32.18");
  // Unlisted values fall back to the default.
  EXPECT_EQ(parsed.assignment.of(kernel.function->array_by_name("b")).format,
            numrep::kBinary32);
}

TEST(AssignmentIo, RejectsBadInput) {
  ir::Module m;
  polybench::BuiltKernel kernel = polybench::build_kernel("trisolv", m);
  EXPECT_FALSE(assignment_from_text(*kernel.function, "@nope fix32.4").ok());
  EXPECT_FALSE(assignment_from_text(*kernel.function, "@L sometype").ok());
  EXPECT_FALSE(assignment_from_text(*kernel.function, "@L fix32.99").ok());
  EXPECT_FALSE(assignment_from_text(*kernel.function, "%9999 binary32").ok());
  EXPECT_FALSE(assignment_from_text(*kernel.function, "L binary32").ok());
  EXPECT_FALSE(assignment_from_text(*kernel.function, "@L binary128").ok());
}

TEST(AssignmentIo, ReadsRegisterIdsAndFracBitsWhole) {
  ir::Module m;
  polybench::BuiltKernel kernel = polybench::build_kernel("trisolv", m);
  const ir::Instruction* real = nullptr;
  int real_id = 0;
  for (const auto& [inst, id] : ir::number_instructions(*kernel.function))
    if (inst->type() == ir::ScalarType::Real && (!real || id < real_id)) {
      real = inst;
      real_id = id;
    }
  ASSERT_NE(real, nullptr);
  const std::string reg = "%" + std::to_string(real_id);

  const AssignmentParseResult good =
      assignment_from_text(*kernel.function, reg + " fix32.7");
  ASSERT_TRUE(good.ok()) << good.error;
  EXPECT_EQ(good.assignment.of(real).name(), "fix32.7");

  // Trailing junk on the register id or the fractional bits is refused
  // with the line and the token, instead of reading the leading digits.
  const AssignmentParseResult junk_reg =
      assignment_from_text(*kernel.function, reg + "xyz binary32");
  EXPECT_FALSE(junk_reg.ok());
  EXPECT_EQ(junk_reg.error,
            "line 1: unknown or non-Real register " + reg + "xyz");
  // Only the canonical spelling assignment_to_text writes names a
  // register: a leading zero or a sign is refused, not read as the id.
  for (const std::string& id : {"%0" + reg.substr(1), "%00" + reg.substr(1),
                               "%-" + reg.substr(1), "%+" + reg.substr(1)}) {
    const AssignmentParseResult spelled =
        assignment_from_text(*kernel.function, id + " binary64");
    EXPECT_FALSE(spelled.ok()) << id;
    EXPECT_EQ(spelled.error, "line 1: unknown or non-Real register " + id);
  }
  // "0" itself is canonical.
  EXPECT_TRUE(assignment_from_text(*kernel.function, reg + " fix32.0").ok());
  for (const std::string frac :
       {"fix32.7x", "fix32.", "fix32.+7", "fix32.7.0", "fix32.07",
        "fix32.-0", "fix32.00"}) {
    const AssignmentParseResult junk_frac = assignment_from_text(
        *kernel.function, "# comment\n" + reg + " " + frac);
    EXPECT_FALSE(junk_frac.ok()) << frac;
    EXPECT_EQ(junk_frac.error, "line 2: bad type '" + frac + "'");
  }
}

TEST(AssignmentIo, RefusesTrailingTokensAndRepeatedTargets) {
  ir::Module m;
  polybench::BuiltKernel kernel = polybench::build_kernel("trisolv", m);
  const ir::Function& f = *kernel.function;
  int real_id = -1;
  for (const auto& [inst, id] : ir::number_instructions(f))
    if (inst->type() == ir::ScalarType::Real && (real_id < 0 || id < real_id))
      real_id = id;
  ASSERT_GE(real_id, 0);
  const std::string reg = "%" + std::to_string(real_id);

  // A line is exactly `TARGET TYPE`: a token after the type is refused, a
  // trailing comment included.
  EXPECT_EQ(assignment_from_text(f, "@L fix32.20 junk").error,
            "line 1: unexpected 'junk' after the type");
  EXPECT_EQ(assignment_from_text(f, "# note\n" + reg + " binary32 # f32").error,
            "line 2: unexpected '#' after the type");

  // A target assigned twice is refused, naming the line that assigned it
  // first: an array, a register, and the fallback alike.
  EXPECT_EQ(assignment_from_text(f, "@L fix32.20\n@L binary32").error,
            "line 2: @L is already assigned on line 1");
  EXPECT_EQ(
      assignment_from_text(f, reg + " fix32.7\n\n" + reg + " binary32").error,
      "line 3: " + reg + " is already assigned on line 1");
  EXPECT_EQ(
      assignment_from_text(f, "default binary32\n@L fix32.20\ndefault binary64")
          .error,
      "line 3: default is already assigned on line 1");

  // Distinct targets on their own lines still load.
  EXPECT_TRUE(
      assignment_from_text(f, "@L fix32.20\n@x fix32.18\n" + reg + " binary32")
          .ok());
}

} // namespace
} // namespace luis::core
