// luis_perfbench: the LUIS end-to-end benchmark program (see README.md).
//
//   luis_perfbench --workload grid_serial|grid_parallel|certify
//                  --seed N --seconds S --trace 0|1
//                  [--speedup-csv F] [--mpe-csv F] [--certify-expected F]
//                  [--trace-out F] [--write-expected F] [--setup-only 1]
//
// Sets the workload up, then repeats passes for S seconds. With --trace 0
// it prints the end-to-end metrics; with --trace 1 it alternates untraced
// passes with traced replay passes and prints the per-layer metrics. The
// last stdout line is one JSON object; the exit status is non-zero if any
// output check failed.
//
// Every pass repeats the same deterministic work and the machine only ever
// slows a pass down, so the fastest pass is the run's estimate of a pass
// (see README.md, "Noise"). setup_s is likewise the fastest of kSetups
// cold set-ups: the run's own, plus the rest taken in fresh processes (this
// binary with --setup-only) spread evenly over the run, so that one slow
// phase of the machine cannot skew them all.
//
// certify runs each pass pinned to the next allowed CPU in turn. Slow
// phases are often confined to one vCPU for tens of seconds, and a thread
// the scheduler leaves there would carry the whole run.
#include <sched.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace perfbench {
namespace {

/// Cold set-ups per untraced run; setup_s is the fastest.
constexpr int kSetups = 8;

struct Metric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics besides the "<layer>_ms" self times.
const Metric kCounters[] = {
    {"ilp.models", "count"},
    {"ilp.model_vars", "count"},
    {"ilp.nodes", "count"},
    {"ilp.iterations", "count"},
    {"ilp.non_optimal", "count"},
    {"ilp.cache_lookups", "count"},
    {"ilp.cache_hit_ratio", "ratio"},
    {"vra.fixpoint_passes", "count"},
    {"interp.lanes", "count"},
    {"interp.unique_lanes", "count"},
    {"interp.steps", "count"},
    {"interp.program_cache_hit_ratio", "ratio"},
    {"interp.control_divergences", "count"},
    {"interp.failed_runs", "count"},
    {"analysis.arrays_checked", "count"},
    {"analysis.violations", "count"},
    {"analysis.tightness_gmean", "ratio"},
    {"support.idle_ms", "ms"},
    {"trace.pass_ms", "ms"},
    {"unattributed_pct", "%"},
    {"trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "luis_perfbench: %s\nusage: luis_perfbench --workload "
               "grid_serial|grid_parallel|certify --seed N --seconds S "
               "--trace 0|1 [--speedup-csv F] [--mpe-csv F] "
               "[--certify-expected F] [--trace-out F] [--write-expected F] "
               "[--setup-only 1]\n",
               why.c_str());
  std::exit(2);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User+system CPU time of every thread of the process.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this program. getrusage's ru_maxrss is not used:
/// it keeps the high-water mark of the process that forked and exec'd us,
/// so under a Python launcher it reads the launcher's size.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0; // the value is in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Timed {
  std::vector<double> wall, cpu;
  void add(double w, double c) {
    wall.push_back(w);
    cpu.push_back(c);
  }
};

PassResult timed_pass(Workload& w, Timed& t) {
  const double c0 = cpu_s(), w0 = now_s();
  const PassResult r = w.run_pass();
  const double w1 = now_s(), c1 = cpu_s();
  t.add(w1 - w0, c1 - c0);
  return r;
}

/// Cycles the calling thread over the CPUs the process may run on.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  /// Pins to the next CPU (a failed pin leaves the thread unpinned).
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  /// Restores the original mask, e.g. before starting a child process.
  void release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Runs this binary with `args` plus --setup-only and returns the set-up
/// seconds it prints. The child is waited for before returning.
double child_setup_seconds(std::vector<std::string> args) {
  args.insert(args.begin(), "luis_perfbench");
  args.push_back("--setup-only");
  args.push_back("1");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty())
    throw std::runtime_error("set-up child failed");
  return std::atof(out.c_str());
}

} // namespace

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  luis::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

int run(int argc, char** argv) {
  const double process_start = now_s();
  BenchOptions options;
  double seconds = -1.0;
  int trace = -1;
  bool setup_only = false;
  std::string trace_out;
  std::vector<std::string> child_args; // what a set-up child needs
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload" || a == "--seed" || a == "--speedup-csv" ||
        a == "--mpe-csv" || a == "--certify-expected") {
      child_args.push_back(a);
      child_args.push_back(v);
    }
    if (a == "--workload") {
      options.workload = v;
    } else if (a == "--seed") {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      trace = v == "1" ? 1 : v == "0" ? 0 : -1;
    } else if (a == "--speedup-csv") {
      options.speedup_csv = v;
    } else if (a == "--mpe-csv") {
      options.mpe_csv = v;
    } else if (a == "--certify-expected") {
      options.certify_expected = v;
    } else if (a == "--write-expected") {
      options.certify_expected = v;
      options.write_expected = true;
      child_args.insert(child_args.end(), {"--certify-expected", v});
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--setup-only") {
      setup_only = v == "1";
    } else {
      usage("unknown option " + a);
    }
  }
  const int threads = options.workload == "grid_parallel" ? 4 : 1;
  const auto make = [&]() -> std::unique_ptr<Workload> {
    if (options.workload == "grid_serial" || options.workload == "grid_parallel")
      return make_grid(options, threads);
    if (options.workload == "certify") return make_certify(options);
    usage("unknown workload '" + options.workload + "'");
  };
  if (setup_only) {
    make();
    std::printf("%.9f\n", now_s() - process_start);
    return 0;
  }
  if (!have_seed || seconds <= 0.0 || trace < 0)
    usage("--seed, --seconds > 0 and --trace 0|1 are required");

  std::unique_ptr<Workload> workload = make();
  std::vector<double> setup_times = {now_s() - process_start};
  const int setups = trace ? 1 : kSetups; // the traced run reports no setup_s

  Timed untraced;
  std::vector<double> traced_wall;
  long attempted = 0, failed = 0;
  std::vector<Counters> layer_rows; // one per traced pass
  const bool rotate = options.workload == "certify";
  CpuRotation rotation;
  const double start = now_s();
  for (double elapsed = 0.0;
       elapsed < seconds || static_cast<int>(setup_times.size()) < setups;
       elapsed = now_s() - start) {
    const int taken = static_cast<int>(setup_times.size());
    if (taken < setups && elapsed >= seconds * taken / setups) {
      rotation.release();
      setup_times.push_back(child_setup_seconds(child_args));
      continue;
    }
    if (rotate) rotation.next();
    const PassResult r = timed_pass(*workload, untraced);
    attempted += r.jobs;
    failed += r.failed;
    if (!trace) continue;
    Counters row;
    luis::obs::trace().start();
    const double t0 = now_s();
    const PassResult t = workload->run_traced_pass(row);
    const double traced_s = now_s() - t0;
    luis::obs::trace().stop();
    const PassBreakdown b = breakdown(luis::obs::trace().snapshot(), 1e3 * traced_s);
    traced_wall.push_back(traced_s);
    attempted += t.jobs;
    failed += t.failed;
    for (std::size_t l = 0; l < kLayerCount; ++l)
      row[std::string(kLayerNames[l]) + "_ms"] = b.self_ms[l];
    row["support.idle_ms"] = b.idle_ms;
    row["trace.pass_ms"] = b.wall_ms;
    row["unattributed_pct"] = 100.0 * b.unattributed_ms / b.wall_ms;
    layer_rows.push_back(std::move(row));
  }

  const long jobs = workload->jobs_per_pass();
  const double fastest_wall = luis::percentile_of(untraced.wall, 0.0);
  std::printf("perfbench: workload=%s seed=%llu passes=%zu jobs_per_pass=%ld "
              "pass_s: fastest=%.4f p10=%.4f median=%.4f; setups_s=",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              untraced.wall.size(), jobs, fastest_wall,
              luis::percentile_of(untraced.wall, 10.0),
              luis::percentile_of(untraced.wall, 50.0));
  for (std::size_t k = 0; k < setup_times.size(); ++k)
    std::printf("%s%.4f", k ? "," : "", setup_times[k]);
  std::printf("\n");

  std::string metrics;
  const auto add = [&metrics](const std::string& name, double value,
                              const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + json_number(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (!trace) {
    add("jobs_per_s", static_cast<double>(jobs) / fastest_wall, "1/s");
    add("cpu_ms_per_job",
        1e3 * luis::percentile_of(untraced.cpu, 0.0) / static_cast<double>(jobs), "ms");
    add("peak_rss_mb", peak_rss_mb(), "MB");
    add("setup_s", luis::percentile_of(setup_times, 0.0), "s");
    add("ok_ratio",
        static_cast<double>(attempted - failed) / static_cast<double>(attempted),
        "ratio");
  } else {
    const auto median_of = [&layer_rows](const std::string& name) {
      std::vector<double> xs;
      for (const Counters& row : layer_rows) {
        const auto it = row.find(name);
        xs.push_back(it == row.end() ? 0.0 : it->second);
      }
      return luis::percentile_of(xs, 50.0);
    };
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const std::string name = std::string(kLayerNames[l]) + "_ms";
      add(name, median_of(name), "ms");
    }
    for (const Metric& m : kCounters) {
      const double v =
          std::string(m.name) == "trace_overhead_pct"
              ? 100.0 * (luis::percentile_of(traced_wall, 0.0) / fastest_wall - 1.0)
              : median_of(m.name);
      add(m.name, v, m.unit);
    }
    std::printf("perfbench: traced passes=%zu pass_s: fastest=%.4f "
                "median=%.4f\n",
                traced_wall.size(), luis::percentile_of(traced_wall, 0.0),
                luis::percentile_of(traced_wall, 50.0));
    if (!trace_out.empty()) {
      // The sink still holds the last traced pass.
      if (!luis::obs::trace().write_file(trace_out)) {
        std::fprintf(stderr, "luis_perfbench: cannot write %s\n",
                     trace_out.c_str());
        ++failed;
      } else {
        std::printf("perfbench: trace written to %s\n", trace_out.c_str());
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.c_str());
  return failed == 0 ? 0 : 1;
}

} // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "luis_perfbench: %s\n", e.what());
    return 2;
  }
}
