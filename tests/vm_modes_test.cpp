// The VM's run modes on every PolyBench kernel.
//
// run_program executes a plain loop unless a run asks for a shadow, a VM
// profile or register ranges, and an instrumented loop otherwise. These
// tests hold the two loops to each other and the prepare run to the
// reference interpreter:
//
//   * the sweep's prepare run (binary64, array ranges tracked) yields the
//     reference interpreter's array_ranges, bit for bit;
//   * under a tuned Multi assignment, a plain run, a shadow run, a
//     VM-profile run, a register-tracking run and a run with all three
//     give identical outputs (memcmp), steps and cost counters.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "interp/engine.hpp"
#include "platform/optime.hpp"
#include "polybench/polybench.hpp"

namespace luis::interp {
namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool stores_equal(const ArrayStore& a, const ArrayStore& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, buf] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second.size() != buf.size()) return false;
    if (!buf.empty() &&
        std::memcmp(buf.data(), it->second.data(), buf.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

class VmModes : public ::testing::TestWithParam<std::string> {};

TEST_P(VmModes, PrepareRunRangesMatchReference) {
  ir::Module m;
  const polybench::BuiltKernel kernel = polybench::build_kernel(GetParam(), m);
  ASSERT_NE(kernel.function, nullptr);
  RunOptions opt;
  opt.track_array_ranges = true;
  ArrayStore ref_store = kernel.inputs, vm_store = kernel.inputs;
  const RunResult want =
      ReferenceEngine().run(*kernel.function, TypeAssignment{}, ref_store, opt);
  const RunResult got =
      VmEngine().run(*kernel.function, TypeAssignment{}, vm_store, opt);
  ASSERT_TRUE(want.ok) << want.error;
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(want.steps, got.steps);
  EXPECT_TRUE(stores_equal(ref_store, vm_store));
  ASSERT_EQ(want.array_ranges.size(), got.array_ranges.size());
  EXPECT_EQ(want.array_ranges.size(), kernel.function->arrays().size());
  for (const auto& [name, range] : want.array_ranges) {
    const auto it = got.array_ranges.find(name);
    ASSERT_NE(it, got.array_ranges.end()) << name;
    EXPECT_TRUE(bits_equal(range.first, it->second.first)) << name;
    EXPECT_TRUE(bits_equal(range.second, it->second.second)) << name;
  }
}

TEST_P(VmModes, InstrumentedRunsMatchPlainRun) {
  ir::Module m;
  polybench::BuiltKernel kernel = polybench::build_kernel(GetParam(), m);
  ASSERT_NE(kernel.function, nullptr);
  const core::PipelineResult tuned =
      core::tune_kernel(*kernel.function, platform::stm32_table(),
                        *core::preset_by_name("Multi"));
  const TypeAssignment& types = tuned.allocation.assignment;
  const VmEngine vm;

  ArrayStore plain_store = kernel.inputs;
  const RunResult plain = vm.run(*kernel.function, types, plain_store);
  ASSERT_TRUE(plain.ok) << plain.error;

  ErrorProfile errors;
  VmProfile profile;
  RunOptions shadow, profiled, registers, all;
  shadow.error_profile = &errors;
  profiled.vm_profile = &profile;
  registers.track_register_ranges = true;
  all.error_profile = &errors;
  all.vm_profile = &profile;
  all.track_register_ranges = true;
  const std::pair<const char*, RunOptions> modes[] = {
      {"shadow", shadow},
      {"vm profile", profiled},
      {"register ranges", registers},
      {"all three", all}};
  for (const auto& [mode, options] : modes) {
    ArrayStore store = kernel.inputs;
    const RunResult r = vm.run(*kernel.function, types, store, options);
    ASSERT_TRUE(r.ok) << mode << ": " << r.error;
    EXPECT_EQ(r.steps, plain.steps) << mode;
    EXPECT_EQ(r.counters.ops, plain.counters.ops) << mode;
    EXPECT_EQ(r.counters.non_real_ops, plain.counters.non_real_ops) << mode;
    EXPECT_TRUE(stores_equal(store, plain_store)) << mode;
  }
  // The instrumented runs did their extra work.
  EXPECT_TRUE(errors.finalized);
  long executed = 0;
  for (long n : profile.instr_executions) executed += n;
  EXPECT_GT(executed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    PolyBench, VmModes,
    ::testing::ValuesIn(std::vector<std::string>(
        polybench::kernel_names().begin(), polybench::kernel_names().end())),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

} // namespace
} // namespace luis::interp
