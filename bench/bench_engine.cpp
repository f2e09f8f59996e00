// Interpretation speed on the sweep's own workload: the tree-walking
// reference interpreter against the bytecode VM, each running the
// distinct assignments a sweep executes.
//
// Setup (untimed): every kernel's (config x platform) grid — the Multi
// preset plus the three Table III presets over all four platforms — is
// tuned via core::run_sweep, each job's tuned assignment is reloaded
// through assignment_io, and the jobs are deduplicated to their distinct
// assignments, as core/sweep.cpp does before it executes them.
//
// Before timing, every distinct assignment runs on both engines and the
// two runs are compared bit for bit: verdict, error text, step count, cost
// counters, and every output buffer. A mismatch exits 1: a wrong engine
// must not report a speed.
//
// Timed, per kernel: `reps` rounds, each running every distinct
// assignment once on each engine, as the sweep runs it: one
// ExecutionEngine::run() per assignment, so the VM's time includes
// compiling the program (there is no program cache). The engines
// alternate within every round, so a drifting host slows both alike.
//
//   bench_engine [--kernels a,b,c] [--configs c1,c2] [--reps N]
//                [--json PATH]
//
// The default kernel set is all 30 PolyBench kernels. Prints one line per
// kernel and an aggregate; the bench-engine-smoke CI job runs the default
// set with --reps 1 and records the aggregate in BENCH_engine.json via
// --json (docs/INTERP.md, "Deduplicated execution").
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/assignment_io.hpp"
#include "core/sweep.hpp"
#include "interp/engine.hpp"
#include "obs/trace.hpp"
#include "polybench/polybench.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"

using namespace luis;

namespace {

struct Lane {
  std::string label; ///< "config/platform" of the first job that tuned it
  std::string text;  ///< canonical serialization, the dedup key
  interp::TypeAssignment types;
};

/// Tunes the kernel's whole grid, reloads every job's assignment against
/// `f` and keeps the first job of each distinct assignment. `jobs` gets
/// the grid's job count. Aborts the bench if any tuning job failed: a
/// partial grid would silently shrink the workload.
std::vector<Lane> distinct_tuned_lanes(const std::string& kernel,
                                       const ir::Function& f,
                                       const std::vector<std::string>& configs,
                                       std::size_t& jobs) {
  core::SweepOptions opt;
  opt.kernels = {kernel};
  opt.configs = configs;
  opt.include_taffo = false;
  opt.check_determinism = false;
  opt.threads = 1;
  const core::SweepResult sweep = core::run_sweep(opt);
  jobs = sweep.jobs.size();

  std::vector<Lane> lanes;
  for (const core::SweepJobResult& job : sweep.jobs) {
    if (!job.ok) {
      std::fprintf(stderr, "bench_engine: tuning %s/%s/%s failed: %s\n",
                   job.kernel.c_str(), job.config.c_str(),
                   job.platform.c_str(), job.error.c_str());
      std::exit(1);
    }
    if (std::any_of(lanes.begin(), lanes.end(), [&](const Lane& lane) {
          return lane.text == job.assignment_text;
        }))
      continue;
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

bool buffers_bit_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// Runs every lane on both engines and compares the runs bit for bit.
/// Returns false (after printing the first mismatch) on any divergence.
bool verify_lanes(const interp::ExecutionEngine& ref,
                  const interp::ExecutionEngine& vm, const ir::Function& f,
                  const std::vector<Lane>& lanes,
                  const interp::ArrayStore& inputs) {
  for (const Lane& lane : lanes) {
    interp::ArrayStore want_store = inputs, got_store = inputs;
    const interp::RunResult want = ref.run(f, lane.types, want_store);
    const interp::RunResult got = vm.run(f, lane.types, got_store);
    const char* field = nullptr;
    if (want.ok != got.ok || want.error != got.error)
      field = "verdict";
    else if (want.steps != got.steps)
      field = "steps";
    else if (want.counters.ops != got.counters.ops ||
             want.counters.non_real_ops != got.counters.non_real_ops)
      field = "cost counters";
    else
      for (const auto& [name, buf] : want_store)
        if (!buffers_bit_equal(buf, got_store.at(name))) {
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

/// Seconds `engine` spends in run() on one pass over the lanes.
double time_runs(const interp::ExecutionEngine& engine, const ir::Function& f,
                 const std::vector<Lane>& lanes,
                 const interp::ArrayStore& inputs) {
  double total = 0.0;
  for (const Lane& lane : lanes) {
    interp::ArrayStore store = inputs;
    double seconds = 0.0;
    {
      obs::TraceSpan span("bench_engine.run", "bench", obs::TimeSink{&seconds});
      (void)engine.run(f, lane.types, store);
    }
    total += seconds;
  }
  return total;
}

struct KernelRow {
  std::string kernel;
  std::size_t jobs = 0;
  std::size_t distinct = 0;
  double ref_seconds = 0.0;
  double vm_seconds = 0.0;
};

} // namespace

int main(int argc, char** argv) {
  const auto all = polybench::kernel_names();
  std::vector<std::string> kernels(all.begin(), all.end());
  std::vector<std::string> configs = {"Fast", "Balanced", "Precise", "Multi"};
  int reps = 5;
  std::string json_path;
  const auto usage = [] {
    std::fprintf(stderr, "usage: bench_engine [--kernels a,b,c] "
                         "[--configs c1,c2] [--reps N] [--json PATH]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--kernels" && i + 1 < argc) {
      kernels = split_fields(argv[++i], ',');
    } else if (a == "--configs" && i + 1 < argc) {
      configs = split_fields(argv[++i], ',');
    } else if (a == "--reps" && i + 1 < argc) {
      const std::optional<int> v = parse_number<int>(argv[++i]);
      if (!v || *v < 1) {
        std::fprintf(stderr, "bench_engine: --reps wants an integer >= 1, "
                             "got '%s'\n", argv[i]);
        return 2;
      }
      reps = *v;
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (kernels.empty() || configs.empty()) return usage();
  core::SweepOptions names;
  names.kernels = kernels;
  names.configs = configs;
  if (const std::string invalid = core::sweep_options_error(names);
      !invalid.empty()) {
    std::fprintf(stderr, "bench_engine: %s\n", invalid.c_str());
    return 2;
  }

  const interp::ReferenceEngine ref;
  const interp::VmEngine vm;

  std::printf("%-14s %6s %8s %12s %12s %9s\n", "kernel", "jobs", "distinct",
              "ref[ms]", "vm[ms]", "speedup");
  std::vector<KernelRow> rows;
  double ref_total = 0.0, vm_total = 0.0;
  for (const std::string& name : kernels) {
    ir::Module module;
    const polybench::BuiltKernel kernel = polybench::build_kernel(name, module);
    KernelRow row;
    row.kernel = name;
    const std::vector<Lane> lanes =
        distinct_tuned_lanes(name, *kernel.function, configs, row.jobs);
    row.distinct = lanes.size();
    if (!verify_lanes(ref, vm, *kernel.function, lanes, kernel.inputs))
      return 1;
    for (int r = 0; r < reps; ++r) {
      row.ref_seconds += time_runs(ref, *kernel.function, lanes, kernel.inputs);
      row.vm_seconds += time_runs(vm, *kernel.function, lanes, kernel.inputs);
    }
    ref_total += row.ref_seconds;
    vm_total += row.vm_seconds;
    std::printf("%-14s %6zu %8zu %12.2f %12.2f %8.2fx\n", name.c_str(),
                row.jobs, row.distinct, row.ref_seconds * 1e3,
                row.vm_seconds * 1e3, row.ref_seconds / row.vm_seconds);
    rows.push_back(row);
  }
  std::printf("\naggregate: ref %.3f s, vm %.3f s, speedup %.2fx "
              "(every distinct assignment verified bit for bit)\n",
              ref_total, vm_total, ref_total / vm_total);

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("benchmark"), w.value("engine_vm_vs_ref");
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
      w.key("distinct_assignments"), w.value(row.distinct);
      w.key("ref_seconds"), w.value(row.ref_seconds, "%.6g");
      w.key("vm_seconds"), w.value(row.vm_seconds, "%.6g");
      w.key("speedup"), w.value(row.ref_seconds / row.vm_seconds, "%.4g");
      w.end_object();
    }
    w.newline();
    w.end_array();
    w.newline();
    w.key("aggregate");
    w.begin_object();
    w.key("ref_seconds"), w.value(ref_total, "%.6g");
    w.key("vm_seconds"), w.value(vm_total, "%.6g");
    w.key("speedup"), w.value(ref_total / vm_total, "%.4g");
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
