// Google-benchmark microbenchmarks of the library's hot paths: software
// arithmetic (soft-float, fixed point, posit), the simplex/B&B solver, the
// IR interpreter, and the end-to-end tuning pipeline.
#include <benchmark/benchmark.h>

#include "core/pipeline.hpp"
#include "ilp/branch_and_bound.hpp"
#include <cmath>

#include "numrep/fixed_point.hpp"
#include "numrep/fixed_posit.hpp"
#include "numrep/posit.hpp"
#include "numrep/soft_float.hpp"
#include "platform/optime.hpp"
#include "polybench/polybench.hpp"
#include "support/rng.hpp"

using namespace luis;
using namespace luis::numrep;

namespace {

void BM_SoftFloatRound(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> xs(1024);
  for (double& x : xs) x = rng.next_double(-1e6, 1e6);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(round_to_format(kBinary32, xs[i++ & 1023]));
  }
}
BENCHMARK(BM_SoftFloatRound);

void BM_FixedQuantize(benchmark::State& state) {
  Rng rng(2);
  const FixedSpec spec{32, 16, true};
  std::vector<double> xs(1024);
  for (double& x : xs) x = rng.next_double(-1e3, 1e3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantize_fixed(spec, xs[i++ & 1023]));
  }
}
BENCHMARK(BM_FixedQuantize);

void BM_PositRoundTrip(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> xs(1024);
  for (double& x : xs) x = rng.next_double(-100, 100);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantize_posit(kPosit32, xs[i++ & 1023]));
  }
}
BENCHMARK(BM_PositRoundTrip);

// --- Software-emulation op-time pass ------------------------------------
//
// Measures what one arithmetic op costs in a software-emulated format the
// way the VM actually executes it — a double op followed by a quantize
// into the format — against the native float op it displaces. Operands
// are pre-quantized into the format, as they are in the register file.
// The time ratios (emulated / native float) from this pass are recorded
// as the explicit fp8/fposit rows in src/platform/optime.cpp; re-run with
//
//   bench_micro --benchmark_filter=SoftEmu
//
// when re-characterizing a host, and update the provenance comment there.

/// 1024 operand pairs drawn from (lo, hi), quantized by `quant`.
template <typename Quant>
std::vector<std::pair<double, double>> emu_operands(unsigned seed, double lo,
                                                    double hi, Quant quant) {
  Rng rng(seed);
  std::vector<std::pair<double, double>> xs(1024);
  for (auto& [a, b] : xs) {
    a = quant(rng.next_double(lo, hi));
    b = quant(rng.next_double(lo, hi));
    if (b == 0.0) b = quant(1.0);
  }
  return xs;
}

template <typename Op>
void BM_SoftEmuFloat(benchmark::State& state, Op op) {
  const auto xs = emu_operands(11, -100, 100, [](double x) {
    return static_cast<double>(static_cast<float>(x));
  });
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = xs[i++ & 1023];
    benchmark::DoNotOptimize(static_cast<float>(
        op(static_cast<float>(a), static_cast<float>(b))));
  }
}

template <typename Op>
void BM_SoftEmuFp8(benchmark::State& state, Op op) {
  const auto xs = emu_operands(12, -100, 100, [](double x) {
    return round_to_format(kFp8E4M3, x);
  });
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = xs[i++ & 1023];
    benchmark::DoNotOptimize(round_to_format(kFp8E4M3, op(a, b)));
  }
}

template <typename Op>
void BM_SoftEmuFposit(benchmark::State& state, Op op) {
  const auto xs = emu_operands(13, -100, 100, [](double x) {
    return quantize_fixed_posit(kFixedPosit16, x);
  });
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = xs[i++ & 1023];
    benchmark::DoNotOptimize(quantize_fixed_posit(kFixedPosit16, op(a, b)));
  }
}

const auto kEmuAdd = [](auto a, auto b) { return a + b; };
const auto kEmuMul = [](auto a, auto b) { return a * b; };
const auto kEmuDiv = [](auto a, auto b) { return a / b; };
const auto kEmuRem = [](auto a, auto b) {
  return std::fmod(static_cast<double>(a), static_cast<double>(b));
};

BENCHMARK_CAPTURE(BM_SoftEmuFloat, add, kEmuAdd);
BENCHMARK_CAPTURE(BM_SoftEmuFloat, mul, kEmuMul);
BENCHMARK_CAPTURE(BM_SoftEmuFloat, div, kEmuDiv);
BENCHMARK_CAPTURE(BM_SoftEmuFloat, rem, kEmuRem);
BENCHMARK_CAPTURE(BM_SoftEmuFp8, add, kEmuAdd);
BENCHMARK_CAPTURE(BM_SoftEmuFp8, mul, kEmuMul);
BENCHMARK_CAPTURE(BM_SoftEmuFp8, div, kEmuDiv);
BENCHMARK_CAPTURE(BM_SoftEmuFp8, rem, kEmuRem);
BENCHMARK_CAPTURE(BM_SoftEmuFposit, add, kEmuAdd);
BENCHMARK_CAPTURE(BM_SoftEmuFposit, mul, kEmuMul);
BENCHMARK_CAPTURE(BM_SoftEmuFposit, div, kEmuDiv);
BENCHMARK_CAPTURE(BM_SoftEmuFposit, rem, kEmuRem);

void BM_SimplexKnapsackLp(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Rng rng(4);
  ilp::Model m;
  ilp::LinearExpr wsum, vsum;
  for (int i = 0; i < n; ++i) {
    const ilp::VarId x = m.add_continuous(0.0, 1.0);
    wsum.add(x, static_cast<double>(rng.next_int(1, 20)));
    vsum.add(x, static_cast<double>(rng.next_int(1, 30)));
  }
  m.add_le(std::move(wsum), 5.0 * n);
  const ilp::Objective objective(ilp::Direction::Maximize, std::move(vsum));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::solve_lp(m, objective));
  }
}
BENCHMARK(BM_SimplexKnapsackLp)->Arg(16)->Arg(64)->Arg(256);

void BM_BranchAndBoundKnapsack(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Rng rng(5);
  ilp::Model m;
  ilp::LinearExpr wsum, vsum;
  for (int i = 0; i < n; ++i) {
    const ilp::VarId x = m.add_binary();
    wsum.add(x, static_cast<double>(rng.next_int(1, 20)));
    vsum.add(x, static_cast<double>(rng.next_int(1, 30)));
  }
  m.add_le(std::move(wsum), 5.0 * n);
  const ilp::Objective objective(ilp::Direction::Maximize, std::move(vsum));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::solve_milp(m, objective));
  }
}
BENCHMARK(BM_BranchAndBoundKnapsack)->Arg(12)->Arg(24);

void BM_InterpreterGemm(benchmark::State& state) {
  ir::Module module;
  polybench::BuiltKernel kernel = polybench::build_kernel("gemm", module);
  const interp::TypeAssignment binary64;
  for (auto _ : state) {
    interp::ArrayStore store = kernel.inputs;
    benchmark::DoNotOptimize(
        run_function(*kernel.function, binary64, store));
  }
}
BENCHMARK(BM_InterpreterGemm);

void BM_IlpAllocatorGemm(benchmark::State& state) {
  ir::Module module;
  polybench::BuiltKernel kernel = polybench::build_kernel("gemm", module);
  const vra::RangeMap ranges = vra::analyze_ranges(*kernel.function);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::allocate_ilp(*kernel.function, ranges,
                                                platform::stm32_table(),
                                                core::TuningConfig::balanced()));
  }
}
BENCHMARK(BM_IlpAllocatorGemm);

void BM_FullPipeline(benchmark::State& state) {
  ir::Module module;
  polybench::BuiltKernel kernel = polybench::build_kernel("atax", module);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::tune_kernel(*kernel.function,
                                               platform::intel_table(),
                                               core::TuningConfig::fast()));
  }
}
BENCHMARK(BM_FullPipeline);

} // namespace

BENCHMARK_MAIN();
