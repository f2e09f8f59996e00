// The benchmark's workloads behind one interface (see README.md).
//
// Constructing a workload is its set-up: it reads the expected outputs and
// does every piece of one-off work, including one untimed pass. After that
// each pass repeats identical, deterministic work, and every pass checks
// its outputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

struct BenchOptions {
  std::string workload;
  std::uint64_t seed = 1;
  std::string speedup_csv = "fig2_speedup.csv";
  std::string mpe_csv = "fig2_mpe.csv";
  std::string certify_expected = "perfbench/certify_expected.txt";
  /// Write certify's expected outputs to certify_expected instead of
  /// reading them.
  bool write_expected = false;
};

/// Jobs a pass attempted and how many of them failed a check.
struct PassResult {
  long jobs = 0;
  long failed = 0;
};

/// Per-layer counts and ratios of one traced pass, by metric name.
using Counters = std::map<std::string, double>;

class Workload {
public:
  virtual ~Workload() = default;

  virtual long jobs_per_pass() const = 0;

  /// One pass through the product's entry points, tracing off.
  virtual PassResult run_pass() = 0;

  /// One pass replayed through the layers' public functions with a
  /// LayerSpan around every call, for a caller that records the trace;
  /// fills the pass's per-layer counters.
  virtual PassResult run_traced_pass(Counters& counters) = 0;
};

/// `threads` = 1 for grid_serial, 4 for grid_parallel.
std::unique_ptr<Workload> make_grid(const BenchOptions& options, int threads);
std::unique_ptr<Workload> make_certify(const BenchOptions& options);

/// The seeded Fisher-Yates permutation of [0, n) used to reorder inputs.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

} // namespace perfbench
