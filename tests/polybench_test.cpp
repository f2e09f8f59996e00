#include <gtest/gtest.h>

#include <cmath>

#include "core/cast_materializer.hpp"
#include "core/pipeline.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "platform/cost_model.hpp"
#include "polybench/polybench.hpp"
#include "support/statistics.hpp"

namespace luis::polybench {
namespace {

using interp::ArrayStore;
using interp::RunResult;
using interp::TypeAssignment;

TEST(PolyBench, ThirtyKernelsRegistered) {
  EXPECT_EQ(kernel_names().size(), 30u);
}

TEST(PolyBench, UnknownKernelNameDies) {
  ir::Module m;
  EXPECT_DEATH(build_kernel("not-a-kernel", m), "unknown PolyBench kernel");
}

// Every kernel must build, verify, execute in binary64, produce finite
// outputs, and carry profiled annotations that cover its inputs.
class KernelSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelSweep, BuildsVerifiesAndRuns) {
  ir::Module m;
  BuiltKernel kernel = build_kernel(GetParam(), m);
  ASSERT_NE(kernel.function, nullptr);
  const ir::VerifyResult vr = ir::verify(*kernel.function);
  ASSERT_TRUE(vr.ok()) << vr.message();

  ArrayStore store = kernel.inputs;
  TypeAssignment binary64;
  const RunResult run = run_function(*kernel.function, binary64, store);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_GT(run.counters.total_real_ops(), 0);

  ASSERT_FALSE(kernel.outputs.empty());
  for (const std::string& out : kernel.outputs) {
    ASSERT_TRUE(store.count(out)) << out;
    for (double v : store.at(out)) EXPECT_TRUE(std::isfinite(v)) << out;
  }
}

TEST_P(KernelSweep, ProfiledAnnotationsCoverExecution) {
  ir::Module m;
  BuiltKernel kernel = build_kernel(GetParam(), m);
  // Re-profile on the tree-walker and check the stored annotations, which
  // build_kernel derived from a VM run, contain the observation: a
  // cross-engine check of the observed ranges.
  ArrayStore store = kernel.inputs;
  TypeAssignment binary64;
  interp::RunOptions opt;
  opt.track_array_ranges = true;
  const RunResult run = run_function(*kernel.function, binary64, store, opt);
  ASSERT_TRUE(run.ok) << run.error;
  for (const auto& arr : kernel.function->arrays()) {
    ASSERT_TRUE(arr->range_annotation().has_value()) << arr->name();
    const auto [lo, hi] = *arr->range_annotation();
    const auto it = run.array_ranges.find(arr->name());
    if (it == run.array_ranges.end()) continue;
    EXPECT_LE(lo, it->second.first) << arr->name();
    EXPECT_GE(hi, it->second.second) << arr->name();
  }
}

TEST_P(KernelSweep, BinaryThirtyTwoErrorIsModerate) {
  // Sanity of the numerics substrate: uniform binary32 execution stays
  // within a few percent of binary64 for most kernels (and finite always).
  ir::Module m;
  BuiltKernel kernel = build_kernel(GetParam(), m);

  ArrayStore ref = kernel.inputs;
  TypeAssignment binary64;
  ASSERT_TRUE(run_function(*kernel.function, binary64, ref).ok);

  ArrayStore tuned = kernel.inputs;
  const TypeAssignment all32 = TypeAssignment::uniform(
      *kernel.function, numrep::ConcreteType{numrep::kBinary32, 0});
  ASSERT_TRUE(run_function(*kernel.function, all32, tuned).ok);

  // Kernels the paper itself reports as MPE outliers: the relative-error
  // metric explodes when reference outputs pass near zero (gramschmidt,
  // fdtd-2d) or when the recursion amplifies rounding (durbin).
  const bool outlier = GetParam() == "gramschmidt" ||
                       GetParam() == "fdtd-2d" || GetParam() == "durbin";
  for (const std::string& out : kernel.outputs) {
    const double mpe = mean_percentage_error(ref.at(out), tuned.at(out));
    EXPECT_TRUE(std::isfinite(mpe)) << out;
    if (!outlier) {
      EXPECT_LT(mpe, 5.0) << out;
    }
  }
}


// The textual IR of every kernel round-trips through the parser and stays
// a fixed point of printing.
TEST_P(KernelSweep, PrintParseRoundTrip) {
  ir::Module m1;
  BuiltKernel kernel = build_kernel(GetParam(), m1, /*annotate=*/false);
  const std::string text1 = ir::print_function(*kernel.function);

  ir::Module m2;
  const ir::ParseResult parsed = ir::parse_function(m2, text1);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const ir::VerifyResult vr = ir::verify(*parsed.function);
  ASSERT_TRUE(vr.ok()) << vr.message();
  EXPECT_EQ(ir::print_function(*parsed.function), text1);
}

// A parsed kernel executes identically to the built one.
TEST_P(KernelSweep, ParsedKernelExecutesIdentically) {
  ir::Module m1;
  BuiltKernel kernel = build_kernel(GetParam(), m1, /*annotate=*/false);

  ir::Module m2;
  const ir::ParseResult parsed =
      ir::parse_function(m2, ir::print_function(*kernel.function));
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  ArrayStore s1 = kernel.inputs, s2 = kernel.inputs;
  TypeAssignment binary64;
  const RunResult r1 = run_function(*kernel.function, binary64, s1);
  const RunResult r2 = run_function(*parsed.function, binary64, s2);
  ASSERT_TRUE(r1.ok && r2.ok) << r1.error << r2.error;
  for (const std::string& out : kernel.outputs)
    EXPECT_EQ(s1.at(out), s2.at(out)) << out;
  EXPECT_EQ(r1.counters.non_real_ops, r2.counters.non_real_ops);
}

// Materializing the casts of an ILP allocation keeps the IR verifiable and
// the tuned outputs bit-identical.
TEST_P(KernelSweep, CastMaterializationPreservesTunedSemantics) {
  ir::Module m1, m2;
  BuiltKernel k1 = build_kernel(GetParam(), m1);
  BuiltKernel k2 = build_kernel(GetParam(), m2);

  const vra::RangeMap ranges = vra::analyze_ranges(*k1.function);
  const core::AllocationResult alloc = core::allocate_ilp(
      *k1.function, ranges, platform::stm32_table(), core::TuningConfig::fast());

  // Mirror the assignment onto the twin function by array/instruction order.
  interp::TypeAssignment mirrored;
  {
    auto it1 = k1.function->arrays().begin();
    auto it2 = k2.function->arrays().begin();
    for (; it1 != k1.function->arrays().end(); ++it1, ++it2)
      mirrored.set(it2->get(), alloc.assignment.of(it1->get()));
    auto b1 = k1.function->blocks().begin();
    auto b2 = k2.function->blocks().begin();
    for (; b1 != k1.function->blocks().end(); ++b1, ++b2) {
      auto i1 = (*b1)->instructions().begin();
      auto i2 = (*b2)->instructions().begin();
      for (; i1 != (*b1)->instructions().end(); ++i1, ++i2)
        if ((*i1)->type() == ir::ScalarType::Real)
          mirrored.set(i2->get(), alloc.assignment.of(i1->get()));
    }
  }

  ArrayStore direct = k1.inputs;
  const RunResult r1 = run_function(*k1.function, alloc.assignment, direct);
  ASSERT_TRUE(r1.ok) << r1.error;

  const int inserted = core::materialize_casts(*k2.function, mirrored);
  EXPECT_GE(inserted, 0);
  const ir::VerifyResult vr = ir::verify(*k2.function);
  ASSERT_TRUE(vr.ok()) << vr.message();

  ArrayStore materialized = k2.inputs;
  const RunResult r2 = run_function(*k2.function, mirrored, materialized);
  ASSERT_TRUE(r2.ok) << r2.error;
  for (const std::string& out : k1.outputs)
    EXPECT_EQ(direct.at(out), materialized.at(out)) << out;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::ValuesIn(std::vector<std::string>(
                             kernel_names().begin(), kernel_names().end())),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(PolyBench, GemmMatchesDirectReference) {
  ir::Module m;
  BuiltKernel kernel = build_kernel("gemm", m);
  ArrayStore store = kernel.inputs;
  TypeAssignment binary64;
  ASSERT_TRUE(run_function(*kernel.function, binary64, store).ok);

  // Direct C++ evaluation of C = alpha*A*B + beta*C.
  const std::int64_t ni = 16, nj = 18, nk = 20;
  const auto& A = kernel.inputs.at("A");
  const auto& B = kernel.inputs.at("B");
  const auto& C0 = kernel.inputs.at("C");
  for (std::int64_t i = 0; i < ni; ++i) {
    for (std::int64_t j = 0; j < nj; ++j) {
      double acc = 1.2 * C0[static_cast<std::size_t>(i * nj + j)];
      for (std::int64_t kk = 0; kk < nk; ++kk)
        acc += 1.5 * A[static_cast<std::size_t>(i * nk + kk)] *
               B[static_cast<std::size_t>(kk * nj + j)];
      EXPECT_NEAR(store.at("C")[static_cast<std::size_t>(i * nj + j)], acc, 1e-9);
    }
  }
}

TEST(PolyBench, CholeskyReconstructsInput) {
  // L * L^T must reproduce the SPD input (lower triangle semantics).
  ir::Module m;
  BuiltKernel kernel = build_kernel("cholesky", m);
  ArrayStore store = kernel.inputs;
  TypeAssignment binary64;
  ASSERT_TRUE(run_function(*kernel.function, binary64, store).ok);
  const std::int64_t N = 18;
  const auto& L = store.at("A");
  const auto& orig = kernel.inputs.at("A");
  for (std::int64_t i = 0; i < N; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk <= j; ++kk)
        acc += L[static_cast<std::size_t>(i * N + kk)] *
               L[static_cast<std::size_t>(j * N + kk)];
      EXPECT_NEAR(acc, orig[static_cast<std::size_t>(i * N + j)], 1e-6);
    }
  }
}

TEST(PolyBench, FloydWarshallComputesShortestPaths) {
  ir::Module m;
  BuiltKernel kernel = build_kernel("floyd-warshall", m);
  ArrayStore store = kernel.inputs;
  TypeAssignment binary64;
  ASSERT_TRUE(run_function(*kernel.function, binary64, store).ok);
  // Reference Floyd-Warshall on the same input.
  const std::int64_t N = 16;
  std::vector<double> ref = kernel.inputs.at("paths");
  for (std::int64_t kk = 0; kk < N; ++kk)
    for (std::int64_t i = 0; i < N; ++i)
      for (std::int64_t j = 0; j < N; ++j)
        ref[static_cast<std::size_t>(i * N + j)] =
            std::min(ref[static_cast<std::size_t>(i * N + j)],
                     ref[static_cast<std::size_t>(i * N + kk)] +
                         ref[static_cast<std::size_t>(kk * N + j)]);
  EXPECT_EQ(store.at("paths"), ref);
}

TEST(PolyBench, TrisolvSolvesTheSystem) {
  ir::Module m;
  BuiltKernel kernel = build_kernel("trisolv", m);
  ArrayStore store = kernel.inputs;
  TypeAssignment binary64;
  ASSERT_TRUE(run_function(*kernel.function, binary64, store).ok);
  const std::int64_t N = 24;
  const auto& L = kernel.inputs.at("L");
  const auto& b = kernel.inputs.at("b");
  const auto& x = store.at("x");
  for (std::int64_t i = 0; i < N; ++i) {
    double acc = 0.0;
    for (std::int64_t j = 0; j <= i; ++j)
      acc += L[static_cast<std::size_t>(i * N + j)] * x[static_cast<std::size_t>(j)];
    EXPECT_NEAR(acc, b[static_cast<std::size_t>(i)], 1e-7) << i;
  }
}

TEST(PolyBench, DatasetSizePresetsScaleExtents) {
  ir::Module m1, m2, m3;
  BuiltKernel mini = build_kernel("gemm", m1, true, DatasetSize::Mini);
  BuiltKernel small = build_kernel("gemm", m2, true, DatasetSize::Small);
  BuiltKernel medium = build_kernel("gemm", m3, false, DatasetSize::Medium);
  const auto dims = [](const BuiltKernel& k) {
    return k.function->array_by_name("C")->dims();
  };
  EXPECT_EQ(dims(small)[0], 2 * dims(mini)[0]);
  EXPECT_EQ(dims(medium)[1], 4 * dims(mini)[1]);

  // Scaled kernels still verify and run.
  EXPECT_TRUE(ir::verify(*small.function).ok());
  ArrayStore store = small.inputs;
  TypeAssignment binary64;
  const RunResult run = run_function(*small.function, binary64, store);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_GT(run.counters.total_real_ops(),
            4 * 16 * 18 * 20); // more work than Mini's whole gemm
}

TEST(PolyBench, CovarianceMatchesDirectReference) {
  ir::Module m;
  BuiltKernel kernel = build_kernel("covariance", m);
  ArrayStore store = kernel.inputs;
  TypeAssignment binary64;
  ASSERT_TRUE(run_function(*kernel.function, binary64, store).ok);

  const std::int64_t M = 14, N = 18;
  std::vector<double> data = kernel.inputs.at("data");
  std::vector<double> mean(static_cast<std::size_t>(M), 0.0);
  for (std::int64_t j = 0; j < M; ++j) {
    for (std::int64_t i = 0; i < N; ++i)
      mean[static_cast<std::size_t>(j)] += data[static_cast<std::size_t>(i * M + j)];
    mean[static_cast<std::size_t>(j)] /= static_cast<double>(N);
  }
  for (std::int64_t i = 0; i < N; ++i)
    for (std::int64_t j = 0; j < M; ++j)
      data[static_cast<std::size_t>(i * M + j)] -= mean[static_cast<std::size_t>(j)];
  for (std::int64_t i = 0; i < M; ++i) {
    for (std::int64_t j = i; j < M; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < N; ++kk)
        acc += data[static_cast<std::size_t>(kk * M + i)] *
               data[static_cast<std::size_t>(kk * M + j)];
      acc /= static_cast<double>(N - 1);
      EXPECT_NEAR(store.at("cov")[static_cast<std::size_t>(i * M + j)], acc, 1e-9);
      EXPECT_NEAR(store.at("cov")[static_cast<std::size_t>(j * M + i)], acc, 1e-9);
    }
  }
}

TEST(PolyBench, Jacobi1dMatchesDirectReference) {
  ir::Module m;
  BuiltKernel kernel = build_kernel("jacobi-1d", m);
  ArrayStore store = kernel.inputs;
  TypeAssignment binary64;
  ASSERT_TRUE(run_function(*kernel.function, binary64, store).ok);

  const std::int64_t N = 30, T = 8;
  std::vector<double> A = kernel.inputs.at("A");
  std::vector<double> B = kernel.inputs.at("B");
  for (std::int64_t t = 0; t < T; ++t) {
    for (std::int64_t i = 1; i < N - 1; ++i)
      B[static_cast<std::size_t>(i)] =
          0.33333 * (A[static_cast<std::size_t>(i - 1)] +
                     A[static_cast<std::size_t>(i)] +
                     A[static_cast<std::size_t>(i + 1)]);
    for (std::int64_t i = 1; i < N - 1; ++i)
      A[static_cast<std::size_t>(i)] =
          0.33333 * (B[static_cast<std::size_t>(i - 1)] +
                     B[static_cast<std::size_t>(i)] +
                     B[static_cast<std::size_t>(i + 1)]);
  }
  for (std::int64_t i = 0; i < N; ++i)
    EXPECT_DOUBLE_EQ(store.at("A")[static_cast<std::size_t>(i)],
                     A[static_cast<std::size_t>(i)]);
}

TEST(PolyBench, DurbinMatchesDirectReference) {
  ir::Module m;
  BuiltKernel kernel = build_kernel("durbin", m);
  ArrayStore store = kernel.inputs;
  TypeAssignment binary64;
  ASSERT_TRUE(run_function(*kernel.function, binary64, store).ok);

  const std::int64_t N = 22;
  const std::vector<double>& r = kernel.inputs.at("r");
  std::vector<double> y(static_cast<std::size_t>(N), 0.0);
  std::vector<double> z(static_cast<std::size_t>(N), 0.0);
  double alpha = -r[0], beta = 1.0;
  y[0] = -r[0];
  for (std::int64_t k = 1; k < N; ++k) {
    beta = (1.0 - alpha * alpha) * beta;
    double sum = 0.0;
    for (std::int64_t i = 0; i < k; ++i)
      sum += r[static_cast<std::size_t>(k - i - 1)] * y[static_cast<std::size_t>(i)];
    alpha = -(r[static_cast<std::size_t>(k)] + sum) / beta;
    for (std::int64_t i = 0; i < k; ++i)
      z[static_cast<std::size_t>(i)] =
          y[static_cast<std::size_t>(i)] +
          alpha * y[static_cast<std::size_t>(k - i - 1)];
    for (std::int64_t i = 0; i < k; ++i)
      y[static_cast<std::size_t>(i)] = z[static_cast<std::size_t>(i)];
    y[static_cast<std::size_t>(k)] = alpha;
  }
  for (std::int64_t i = 0; i < N; ++i)
    EXPECT_DOUBLE_EQ(store.at("y")[static_cast<std::size_t>(i)],
                     y[static_cast<std::size_t>(i)]);
}

TEST(PolyBench, EndToEndTuningOfGemmOnStm32) {
  ir::Module m;
  BuiltKernel kernel = build_kernel("gemm", m);

  ArrayStore ref = kernel.inputs;
  TypeAssignment binary64;
  const RunResult base = run_function(*kernel.function, binary64, ref);
  ASSERT_TRUE(base.ok);
  const double t_base =
      platform::simulated_time(base.counters, platform::stm32_table());

  core::PipelineOptions opt;
  const core::PipelineResult tuned = core::tune_kernel(
      *kernel.function, platform::stm32_table(), core::TuningConfig::fast(), opt);

  ArrayStore out = kernel.inputs;
  const RunResult run =
      run_function(*kernel.function, tuned.allocation.assignment, out);
  ASSERT_TRUE(run.ok) << run.error;
  const double t_tuned =
      platform::simulated_time(run.counters, platform::stm32_table());
  EXPECT_LT(t_tuned, t_base);
  EXPECT_LT(mean_percentage_error(ref.at("C"), out.at("C")), 1.0);
}

} // namespace
} // namespace luis::polybench
