#include "polybench/polybench.hpp"

#include <array>

#include "interp/engine.hpp"
#include "obs/trace.hpp"
#include "polybench/kernels.hpp"
#include "support/diag.hpp"

namespace luis::polybench {
namespace {

using Builder = BuiltKernel (*)(ir::Module&, DatasetSize);

struct Entry {
  const char* name;
  Builder build;
};

// Figure 2 row order.
constexpr std::array<Entry, 30> kKernels = {{
    {"2mm", detail::build_2mm},
    {"3mm", detail::build_3mm},
    {"adi", detail::build_adi},
    {"atax", detail::build_atax},
    {"bicg", detail::build_bicg},
    {"cholesky", detail::build_cholesky},
    {"correlation", detail::build_correlation},
    {"covariance", detail::build_covariance},
    {"deriche", detail::build_deriche},
    {"doitgen", detail::build_doitgen},
    {"durbin", detail::build_durbin},
    {"fdtd-2d", detail::build_fdtd_2d},
    {"floyd-warshall", detail::build_floyd_warshall},
    {"gemm", detail::build_gemm},
    {"gemver", detail::build_gemver},
    {"gesummv", detail::build_gesummv},
    {"gramschmidt", detail::build_gramschmidt},
    {"heat-3d", detail::build_heat_3d},
    {"jacobi-1d", detail::build_jacobi_1d},
    {"jacobi-2d", detail::build_jacobi_2d},
    {"lu", detail::build_lu},
    {"ludcmp", detail::build_ludcmp},
    {"mvt", detail::build_mvt},
    {"nussinov", detail::build_nussinov},
    {"seidel-2d", detail::build_seidel_2d},
    {"symm", detail::build_symm},
    {"syr2k", detail::build_syr2k},
    {"syrk", detail::build_syrk},
    {"trisolv", detail::build_trisolv},
    {"trmm", detail::build_trmm},
}};

/// Relative safety margin on every profiled array range.
constexpr double kAnnotationMargin = 0.05;

/// Profiles the kernel in binary64 on the VM and annotates it from that run.
void annotate_from_profile(BuiltKernel& kernel) {
  LUIS_ASSERT(kernel.function != nullptr, "kernel has no function");
  obs::TraceSpan span("polybench.profile", "polybench", [&] {
    return obs::Args().str("kernel", kernel.name).done();
  });
  interp::ArrayStore store = kernel.inputs; // copy: the profile run mutates
  interp::RunOptions opt;
  opt.track_array_ranges = true;
  opt.count_costs = false;
  const interp::RunResult run = interp::VmEngine().run(
      *kernel.function, interp::TypeAssignment(), store, opt);
  LUIS_ASSERT(run.ok, "profiling run failed for " + kernel.name + ": " + run.error);
  annotate_from_run(kernel, run);
}

} // namespace

std::span<const std::string> kernel_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Entry& e : kKernels) out.emplace_back(e.name);
    return out;
  }();
  return names;
}

BuiltKernel build_kernel(const std::string& name, ir::Module& module,
                         bool annotate, DatasetSize size) {
  for (const Entry& e : kKernels) {
    if (name == e.name) {
      BuiltKernel kernel = e.build(module, size);
      if (annotate) annotate_from_profile(kernel);
      return kernel;
    }
  }
  LUIS_FATAL("unknown PolyBench kernel: " + name);
}

void annotate_from_run(BuiltKernel& kernel, const interp::RunResult& run) {
  for (const auto& arr : kernel.function->arrays()) {
    const auto it = run.array_ranges.find(arr->name());
    if (it == run.array_ranges.end()) continue;
    const auto [lo, hi] =
        interp::widen_observed_range(it->second, kAnnotationMargin);
    arr->annotate_range(lo, hi);
  }
}

} // namespace luis::polybench
