// Shared driver for the paper's evaluation grid (Section V):
// 30 PolyBench kernels x 4 platforms x {Precise, Balanced, Fast, TAFFO}.
//
// For every cell it reports the paper's two metrics — Speedup% against the
// unmodified (all-binary64) kernel and MPE against its outputs — plus the
// allocator statistics used by the secondary tables.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/allocation.hpp"

namespace luis::bench {

struct Cell {
  double speedup_percent = 0.0;
  double mpe = 0.0;
  core::AllocationStats stats;
};

struct KernelResult {
  std::string kernel;
  /// cells[platform][config]; configs: "Precise", "Balanced", "Fast",
  /// "TAFFO" (the greedy baseline).
  std::map<std::string, std::map<std::string, Cell>> cells;
};

struct GridOptions {
  std::vector<std::string> kernels;   ///< empty = all 30
  std::vector<std::string> platforms; ///< empty = Stm32/Raspberry/Intel/AMD
  bool include_taffo = true;
  long solver_max_nodes = 3000;
  bool verbose = true; ///< progress lines on stderr
  /// Worker threads for the underlying sweep driver (0 = hardware
  /// concurrency, 1 = serial). Results are identical at any setting.
  int threads = 0;
};

/// Runs the grid on the parallel sweep driver (core::run_sweep) and
/// reshapes the job list into the per-kernel cell matrix the benches
/// print. The cell values are identical to the historical serial loop.
std::vector<KernelResult> run_grid(const GridOptions& options = {});

/// The config column order of Figure 2.
const std::vector<std::string>& config_order();
/// The platform column order of Figure 2.
const std::vector<std::string>& platform_order();

/// Formats a value like the paper's Figure 2 MPE annotations (0.00, 2.0e-6,
/// 126., ...).
std::string format_mpe(double mpe);

} // namespace luis::bench
