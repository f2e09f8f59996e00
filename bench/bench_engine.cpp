// Sweep interpretation throughput: the per-job scalar VM loop vs. the
// sweep's deduplicated execution, on the exact workload the sweep driver
// hands the engine.
//
// Setup (untimed): every kernel's (config x platform) grid — the Multi
// preset plus the three Table III presets over all four platforms — is
// tuned via core::run_sweep, and each job's tuned assignment is reloaded
// through assignment_io. That reproduces the sweep's interpretation
// workload faithfully, duplicates included: distinct (config, platform)
// jobs frequently tune to the same assignment, and core/sweep.cpp runs
// each distinct assignment only once.
//
// Timed, per kernel:
//   scalar  one engine.run() per grid job, duplicates included;
//   dedup   dedup the job assignments into unique lanes, then one
//           engine.run() per unique lane (through run_batch, as the sweep
//           does).
//
// Before timing, every unique lane is checked bit-for-bit against the
// tree-walking ReferenceEngine — verdict, error text, step count, cost
// counters, and every output buffer. A mismatch aborts with exit 1: a
// wrong engine must not report a throughput number. Both timed modes run
// against the same warm ProgramCache (the verify pass fills it), so the
// numbers isolate interpretation from compilation.
//
//   bench_engine [--kernels a,b,c] [--configs c1,c2] [--reps N]
//                [--json PATH]
//
// Prints one line per kernel and an aggregate; the aggregate speedup is
// recorded in BENCH_engine.json by the bench-engine-smoke CI job via
// --json (docs/INTERP.md, "Deduplicated execution").
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/assignment_io.hpp"
#include "core/sweep.hpp"
#include "interp/engine.hpp"
#include "polybench/polybench.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"

using namespace luis;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Lane {
  std::string label; ///< "config/platform" of the job that tuned it
  std::string text;  ///< canonical serialization, the dedup key
  interp::TypeAssignment types;
};

/// Tunes the kernel's whole grid and reloads every job's assignment
/// against `f`. Aborts the bench if any tuning job failed — a partial
/// grid would silently shrink the workload.
std::vector<Lane> tuned_grid_lanes(const std::string& kernel,
                                   const ir::Function& f,
                                   const std::vector<std::string>& configs) {
  core::SweepOptions opt;
  opt.kernels = {kernel};
  opt.configs = configs;
  opt.include_taffo = false;
  opt.check_determinism = false;
  opt.threads = 1;
  const core::SweepResult sweep = core::run_sweep(opt);

  std::vector<Lane> lanes;
  for (const core::SweepJobResult& job : sweep.jobs) {
    if (!job.ok) {
      std::fprintf(stderr, "bench_engine: tuning %s/%s/%s failed: %s\n",
                   job.kernel.c_str(), job.config.c_str(),
                   job.platform.c_str(), job.error.c_str());
      std::exit(1);
    }
    const core::AssignmentParseResult parsed =
        core::assignment_from_text(f, job.assignment_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bench_engine: reloading %s/%s/%s: %s\n",
                   job.kernel.c_str(), job.config.c_str(),
                   job.platform.c_str(), parsed.error.c_str());
      std::exit(1);
    }
    lanes.push_back({job.config + "/" + job.platform, job.assignment_text,
                     parsed.assignment});
  }
  return lanes;
}

/// Indices of the first occurrence of each distinct assignment text — the
/// same dedup the sweep performs before run_batch().
std::vector<std::size_t> unique_lane_indices(const std::vector<Lane>& lanes) {
  std::vector<std::size_t> unique;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    bool seen = false;
    for (const std::size_t u : unique)
      if (lanes[u].text == lanes[i].text) {
        seen = true;
        break;
      }
    if (!seen) unique.push_back(i);
  }
  return unique;
}

bool buffers_bit_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// One run_batch over the unique lanes, checked bit-for-bit against a
/// reference run per lane. Returns false (after printing the mismatch) on
/// any divergence. Also the warm-up that fills the program cache.
bool verify_lanes(const interp::VmEngine& vm, const ir::Function& f,
                  const std::vector<Lane>& lanes,
                  const std::vector<std::size_t>& unique,
                  const interp::ArrayStore& inputs) {
  const interp::ReferenceEngine ref;
  std::vector<interp::ArrayStore> stores(unique.size(), inputs);
  std::vector<interp::BatchRequest> reqs(unique.size());
  for (std::size_t i = 0; i < unique.size(); ++i)
    reqs[i] = {&lanes[unique[i]].types, &stores[i], nullptr};
  const std::vector<interp::RunResult> got = vm.run_batch(f, reqs);

  for (std::size_t i = 0; i < unique.size(); ++i) {
    const Lane& lane = lanes[unique[i]];
    interp::ArrayStore ref_store = inputs;
    const interp::RunResult want = ref.run(f, lane.types, ref_store);
    const char* field = nullptr;
    if (want.ok != got[i].ok || want.error != got[i].error)
      field = "verdict";
    else if (want.steps != got[i].steps)
      field = "steps";
    else if (want.counters.ops != got[i].counters.ops ||
             want.counters.non_real_ops != got[i].counters.non_real_ops)
      field = "cost counters";
    else
      for (const auto& [name, buf] : ref_store)
        if (!buffers_bit_equal(buf, stores[i].at(name))) {
          field = "output buffers";
          break;
        }
    if (field != nullptr) {
      std::fprintf(stderr,
                   "bench_engine: %s lane %s: vm disagrees with the "
                   "reference engine on %s\n",
                   f.name().c_str(), lane.label.c_str(), field);
      return false;
    }
  }
  return true;
}

/// `reps` scalar executions of every grid job: each job interpreted
/// separately, duplicate assignments included.
double time_scalar(const interp::VmEngine& vm, const ir::Function& f,
                   const std::vector<Lane>& lanes,
                   const interp::ArrayStore& inputs, int reps) {
  const double t0 = now_seconds();
  for (int r = 0; r < reps; ++r)
    for (const Lane& lane : lanes) {
      interp::ArrayStore store = inputs;
      (void)vm.run(f, lane.types, store);
    }
  return now_seconds() - t0;
}

/// `reps` deduplicated executions of the same workload: dedup (timed —
/// the sweep pays for it too) plus one run_batch over the unique lanes.
double time_dedup(const interp::VmEngine& vm, const ir::Function& f,
                  const std::vector<Lane>& lanes,
                  const interp::ArrayStore& inputs, int reps) {
  const double t0 = now_seconds();
  for (int r = 0; r < reps; ++r) {
    const std::vector<std::size_t> unique = unique_lane_indices(lanes);
    std::vector<interp::ArrayStore> stores(unique.size(), inputs);
    std::vector<interp::BatchRequest> reqs(unique.size());
    for (std::size_t i = 0; i < unique.size(); ++i)
      reqs[i] = {&lanes[unique[i]].types, &stores[i], nullptr};
    (void)vm.run_batch(f, reqs);
  }
  return now_seconds() - t0;
}

struct KernelRow {
  std::string kernel;
  std::size_t jobs = 0;
  std::size_t unique = 0;
  double scalar_seconds = 0.0;
  double dedup_seconds = 0.0;
};

} // namespace

int main(int argc, char** argv) {
  std::vector<std::string> kernels = {"gemm", "atax", "bicg",
                                      "mvt",  "syrk", "jacobi-2d"};
  std::vector<std::string> configs = {"Fast", "Balanced", "Precise", "Multi"};
  int reps = 5;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--kernels" && i + 1 < argc) {
      kernels = split_fields(argv[++i], ',');
    } else if (a == "--configs" && i + 1 < argc) {
      configs = split_fields(argv[++i], ',');
    } else if (a == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_engine [--kernels a,b,c] "
                           "[--configs c1,c2] [--reps N] [--json PATH]\n");
      return 2;
    }
  }

  interp::ProgramCache cache;
  const interp::VmEngine vm(&cache);

  std::printf("%-14s %6s %8s %12s %12s %9s\n", "kernel", "jobs", "unique",
              "scalar[ms]", "dedup[ms]", "speedup");
  std::vector<KernelRow> rows;
  double scalar_total = 0.0, dedup_total = 0.0;
  for (const std::string& name : kernels) {
    ir::Module module;
    const polybench::BuiltKernel kernel = polybench::build_kernel(name, module);
    const std::vector<Lane> lanes =
        tuned_grid_lanes(name, *kernel.function, configs);
    const std::vector<std::size_t> unique = unique_lane_indices(lanes);
    if (!verify_lanes(vm, *kernel.function, lanes, unique, kernel.inputs))
      return 1;
    const double t_scalar =
        time_scalar(vm, *kernel.function, lanes, kernel.inputs, reps);
    const double t_dedup =
        time_dedup(vm, *kernel.function, lanes, kernel.inputs, reps);
    scalar_total += t_scalar;
    dedup_total += t_dedup;
    rows.push_back({name, lanes.size(), unique.size(), t_scalar, t_dedup});
    std::printf("%-14s %6zu %8zu %12.2f %12.2f %8.2fx\n", name.c_str(),
                lanes.size(), unique.size(), t_scalar * 1e3, t_dedup * 1e3,
                t_scalar / t_dedup);
  }
  const interp::ProgramCache::Stats stats = cache.stats();
  std::printf("\nprogram cache: %ld lookups, %ld hits, %ld insertions\n",
              stats.lookups, stats.hits, stats.insertions);
  std::printf("aggregate: scalar %.2f s, dedup %.2f s, speedup %.2fx "
              "(all lanes verified against the reference engine)\n",
              scalar_total, dedup_total, scalar_total / dedup_total);

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("benchmark"), w.value("engine_dedup");
    w.key("configs");
    w.begin_array();
    for (const std::string& c : configs) w.value(c);
    w.end_array();
    w.key("reps"), w.value(reps);
    w.newline();
    w.key("kernels");
    w.begin_array();
    for (const KernelRow& row : rows) {
      w.newline();
      w.begin_object();
      w.key("kernel"), w.value(row.kernel);
      w.key("jobs"), w.value(row.jobs);
      w.key("unique_lanes"), w.value(row.unique);
      w.key("scalar_seconds"), w.value(row.scalar_seconds, "%.6g");
      w.key("dedup_seconds"), w.value(row.dedup_seconds, "%.6g");
      w.key("speedup"), w.value(row.scalar_seconds / row.dedup_seconds,
                                "%.4g");
      w.end_object();
    }
    w.newline();
    w.end_array();
    w.newline();
    w.key("aggregate");
    w.begin_object();
    w.key("scalar_seconds"), w.value(scalar_total, "%.6g");
    w.key("dedup_seconds"), w.value(dedup_total, "%.6g");
    w.key("speedup"), w.value(scalar_total / dedup_total, "%.4g");
    w.key("verified"), w.value(true);
    w.end_object();
    w.end_object();
    w.newline();
    std::ofstream os(json_path);
    os << w.str();
    if (!os.good()) {
      std::fprintf(stderr, "bench_engine: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
  }
  return 0;
}
