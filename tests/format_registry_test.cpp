// The format catalog's contracts: name <-> parse_format fixpoint over
// every format the catalog and the parsers reach, diagnostics for
// malformed spellings, and the end-to-end claim that a catalog format is
// an ILP candidate whose tuned assignment certifies finite error bounds.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "ir/kernel_builder.hpp"
#include "numrep/registry.hpp"
#include "platform/optime.hpp"

namespace luis::numrep {
namespace {

TEST(FormatRegistry, CatalogNamesRoundTripThroughParse) {
  for (const NumericFormat& f : standard_formats()) {
    const std::string name = f.name();
    std::string error;
    const auto parsed = parse_format(name, &error);
    ASSERT_TRUE(parsed.has_value()) << name << ": " << error;
    EXPECT_EQ(*parsed, f) << name << " parsed to " << parsed->name();
  }
}

TEST(FormatRegistry, ParametricSpellingsRoundTripThroughName) {
  // Formats reachable only through the parametric parsers (not cataloged):
  // name() must produce a spelling parse_format maps back to the same
  // descriptor.
  for (const char* spelling :
       {"fix24", "ufix12", "fix2", "posit12_2", "posit3_0", "fposit12_1_4",
        "fposit3_0_1", "float5_6", "float_p7_E30", "float4_8_finite",
        "float4_7_fnuz", "float3_15_fnuz"}) {
    std::string error;
    const auto fmt = parse_format(spelling, &error);
    ASSERT_TRUE(fmt.has_value()) << spelling << ": " << error;
    const auto reparsed = parse_format(fmt->name(), &error);
    ASSERT_TRUE(reparsed.has_value()) << fmt->name() << ": " << error;
    EXPECT_EQ(*reparsed, *fmt) << spelling << " -> " << fmt->name();
  }
  // The canonical FP8 spellings are aliases of catalog formats.
  EXPECT_EQ(*parse_format("float4_8_finite"), kFp8E4M3);
  EXPECT_EQ(*parse_format("float4_7_fnuz"), kFp8E4M3Fnuz);
  EXPECT_EQ(*parse_format("float3_15"), kFp8E5M2);
}

TEST(FormatRegistry, AliasesResolve) {
  EXPECT_EQ(*parse_format("float"), kBinary32);
  EXPECT_EQ(*parse_format("double"), kBinary64);
  EXPECT_EQ(*parse_format("half"), kBinary16);
  EXPECT_EQ(*parse_format("fix"), kFixed32);
}

TEST(FormatRegistry, MalformedSpellingsAreRejectedWithDiagnostics) {
  // Recognized-but-malformed spellings must produce a parser-specific
  // diagnostic, not the generic unknown-format one.
  const struct {
    const char* spelling;
    const char* expect_substring;
  } kCases[] = {
      {"fix1", "width must be in [2, 64]"},
      {"fix65", "width must be in [2, 64]"},
      {"posit99_1", "posit width must be in [3, 32]"},
      {"posit8_9", "es in [0, 4]"},
      {"fposit8_0_9", "fixed-posit"},
      {"fposit4_2_3", "nonnegative fraction"},
      {"float1_1", "minifloat spelling"},
      {"float999_1", "minifloat spelling"},
  };
  for (const auto& c : kCases) {
    std::string error;
    const auto fmt = parse_format(c.spelling, &error);
    EXPECT_FALSE(fmt.has_value()) << c.spelling;
    EXPECT_NE(error.find(c.expect_substring), std::string::npos)
        << c.spelling << " diagnosed as: " << error;
  }
  // Unrecognized junk gets the catalog pointer.
  std::string error;
  EXPECT_FALSE(parse_format("no_such_format", &error).has_value());
  EXPECT_NE(error.find("luis formats"), std::string::npos) << error;
}

TEST(FormatRegistry, ExecutableFormatsAreTheRunnableCatalogInOrder) {
  std::vector<NumericFormat> runnable;
  for (const NumericFormat& f : standard_formats())
    if (format_ops(f).executable(f)) runnable.push_back(f);
  EXPECT_EQ(executable_formats(), runnable);
  EXPECT_EQ(runnable.size() + 2, standard_formats().size())
      << "only binary128 and binary256 are descriptors";
  EXPECT_EQ(core::TuningConfig::multi().types, runnable);
}

TEST(FormatRegistry, InputRefusesFormatsThatCannotExecute) {
  // Table I's wide floats parse, for the IEBW metric, but no engine runs
  // them, so input that will execute refuses them by the name given.
  for (const char* name : {"binary128", "binary256", "float60_1023",
                           "float_p24_E2000"}) {
    ASSERT_TRUE(parse_format(name).has_value()) << name;
    std::string error;
    EXPECT_FALSE(parse_executable_format(name, &error).has_value()) << name;
    EXPECT_NE(error.find(std::string("format '") + name + "' cannot execute"),
              std::string::npos)
        << error;
  }
  for (const char* name : {"binary64", "e4m3", "fix12", "posit12_2",
                           "fposit16_1_4", "float53_1023"}) {
    std::string error;
    EXPECT_EQ(parse_executable_format(name, &error), parse_format(name))
        << name << ": " << error;
  }
  // A name that does not parse keeps the parser's diagnostic.
  std::string error;
  EXPECT_FALSE(parse_executable_format("posit99_1", &error).has_value());
  EXPECT_NE(error.find("posit width must be in"), std::string::npos) << error;
}

// --- End-to-end: catalog formats become ILP candidates and certify. ---

ir::Function* build_dot_kernel(ir::Module& m) {
  ir::KernelBuilder kb(m, "dot");
  const std::int64_t n = 8;
  ir::Array* A = kb.array("A", {n}, 0.25, 4.0);
  ir::Array* B = kb.array("B", {n}, 0.25, 4.0);
  ir::Array* C = kb.array("C", {n}, 0.0, 16.0);
  kb.for_loop("i", 0, n, [&](ir::IVal i) {
    kb.store(kb.load(A, {i}) * kb.load(B, {i}), C, {i});
  });
  return kb.finish();
}

core::PipelineResult tune_with(ir::Function& f,
                               std::vector<NumericFormat> types, double w1,
                               double w2) {
  core::TuningConfig config;
  config.name = "test";
  config.types = std::move(types);
  config.w1 = w1;
  config.w2 = w2;
  core::PipelineOptions options;
  options.analyze_errors = true;
  return core::tune_kernel(f, platform::stm32_table(), config, options);
}

TEST(FormatRegistry, Fp8IsAnIlpCandidateWithFiniteCertificate) {
  ir::Module m;
  ir::Function* f = build_dot_kernel(m);
  // As the lone candidate, e4m3 must carry the full assignment, and the
  // certificate must stay finite (e4m3 saturates instead of overflowing).
  const auto result = tune_with(*f, {kFp8E4M3}, 1000.0, 1.0);
  EXPECT_EQ(result.allocation.stats.status, ilp::SolveStatus::Optimal);
  const auto& mix = result.allocation.stats.instruction_mix;
  ASSERT_TRUE(mix.count("fp8")) << "e4m3 was never assigned";
  EXPECT_GT(mix.at("fp8"), 0);
  for (const auto& [value, bound] : result.errors.errors.entries())
    EXPECT_TRUE(std::isfinite(bound)) << value->name();
}

TEST(FormatRegistry, MeasuredEmulationCostKeepsFp8FromWinningOnSpeed) {
  ir::Module m;
  ir::Function* f = build_dot_kernel(m);
  // With the measured software-emulation rows (optime.cpp kSoftEmulated)
  // an fp8 op costs ~32x a hardware float op, so a time-heavy objective
  // must keep everything in binary64. The old scaled model priced fp8
  // like hardware float and picked it here — a cost-model artifact, not
  // a property of the hardware.
  const auto result = tune_with(*f, {kFp8E4M3, kBinary64}, 1000.0, 1.0);
  EXPECT_EQ(result.allocation.stats.status, ilp::SolveStatus::Optimal);
  const auto& mix = result.allocation.stats.instruction_mix;
  EXPECT_FALSE(mix.count("fp8")) << "fp8 chosen despite 32x emulation cost";
  ASSERT_TRUE(mix.count("double"));
  EXPECT_GT(mix.at("double"), 0);
}

TEST(FormatRegistry, FixedPositTunesEndToEndWithFiniteBounds) {
  ir::Module m;
  ir::Function* f = build_dot_kernel(m);
  // fposit16_1_4 is feasible for the whole kernel (|values| <= 16 <<
  // maxpos) and, as the lone candidate, must carry the full assignment.
  const auto result = tune_with(*f, {kFixedPosit16}, 50.0, 50.0);
  EXPECT_EQ(result.allocation.stats.status, ilp::SolveStatus::Optimal);
  const auto& mix = result.allocation.stats.instruction_mix;
  ASSERT_TRUE(mix.count("fposit")) << "fixed-posit was never assigned";
  EXPECT_GT(mix.at("fposit"), 0);
  for (const auto& [value, bound] : result.errors.errors.entries())
    EXPECT_TRUE(std::isfinite(bound)) << value->name();
}

TEST(FormatRegistry, MultiPresetDrawsFromTheRegistry) {
  const core::TuningConfig multi = core::TuningConfig::multi();
  auto contains = [&](const NumericFormat& f) {
    for (const NumericFormat& t : multi.types)
      if (t == f) return true;
    return false;
  };
  EXPECT_TRUE(contains(kFp8E4M3));
  EXPECT_TRUE(contains(kFp8E5M2Fnuz));
  EXPECT_TRUE(contains(kFixedPosit8));
  EXPECT_TRUE(contains(kFixedPosit16));
  EXPECT_TRUE(contains(kBinary64));
  // Non-executable descriptors must not leak into the candidate set.
  EXPECT_FALSE(contains(kBinary128));
  EXPECT_FALSE(contains(kBinary256));
}

} // namespace
} // namespace luis::numrep
