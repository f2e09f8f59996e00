// IR interpreter with representation-faithful numerics and dynamic cost
// accounting.
//
// This is the execution substrate standing in for the paper's four hardware
// platforms: functional results are produced by software arithmetic in the
// assigned representation of every value (so the MPE metric is faithful),
// and the dynamic operation/cast counts are priced by a platform's
// op-time table to obtain the simulated execution time used for the
// speedup metric.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "interp/type_assignment.hpp"

namespace luis::interp {

/// Dynamic execution profile: how many times each (operation, type-class)
/// and each (from-class, to-class) cast executed. Keys use the platform
/// characterization vocabulary ("add"/"fix", "cast_float"/"double", ...).
struct CostCounters {
  std::map<std::pair<std::string, std::string>, long> ops;
  long non_real_ops = 0; ///< index arithmetic, loads/stores, branches

  void count_op(const std::string& op, const std::string& type) {
    ++ops[{op, type}];
  }
  long total_real_ops() const;
};

/// Classifies a concrete type into the characterization vocabulary of
/// Table II: "fix", "float", "double" (plus "half", "bfloat16", "posit"
/// for the extension formats).
std::string cost_class(const numrep::ConcreteType& type);

struct RunResult {
  bool ok = false;
  std::string error;
  long steps = 0;
  CostCounters counters;
  /// Per-array observed value range (initial contents joined with every
  /// stored value). Filled when RunOptions::track_array_ranges is set;
  /// used to derive range annotations by profiling, the alternative the
  /// paper mentions to hand-written annotations.
  std::map<std::string, std::pair<double, double>> array_ranges;
  /// Per-instruction observed value range of every Real register. Filled
  /// when RunOptions::track_register_ranges is set; the basis of the
  /// dynamic-profiling range source (see vra::ranges_from_profile).
  std::map<const ir::Instruction*, std::pair<double, double>> register_ranges;
  /// Wall-clock split of the run, filled by the ExecutionEngine wrappers
  /// (see interp/engine.hpp): bytecode compilation (or program cache
  /// lookup) vs. execution. The reference engine reports zero compile
  /// time.
  double compile_seconds = 0.0;
  double execute_seconds = 0.0;
};

/// An observed value range widened on each side by `margin` times its
/// magnitude (at least 1e-6): the safety margin of every range a binary64
/// profiling run yields, whether a RangeMap entry or an array annotation.
std::pair<double, double> widen_observed_range(std::pair<double, double> observed,
                                               double margin);

/// Array contents, indexed by array name. Input and output of a run.
using ArrayStore = std::map<std::string, std::vector<double>>;

/// Execution-count profile of one VM run, indexed by compiled-program
/// position (see interp/bytecode.hpp). The VM fills it when
/// RunOptions::vm_profile is set; the reference interpreter ignores it.
/// obs::build_hotspot_report prices these counts with a platform op-time
/// table and maps them back to source instructions — the attribution is
/// exact: the per-instruction costs sum to the run's simulated_time.
struct VmProfile {
  /// Times each program counter executed (index: pc into code).
  std::vector<long> instr_executions;
  /// Times each phi edge was applied (index: edge id), including the
  /// function-entry edge.
  std::vector<long> edge_applications;
  /// For SelectReal pcs: executions that chose the true-side operand
  /// (whose fetch may bill a different cast than the false side).
  std::vector<long> select_real_first;
};

/// Per-slot deviation accumulator of the shadow-execution error profiler.
/// Histogram buckets are decades: bucket i (0 < i < kBuckets-1) counts
/// errors in (10^(i-31), 10^(i-30)]; bucket 0 absorbs everything <= 1e-30
/// (including exact zeros), the last bucket everything above 1e+2 plus
/// non-finite deviations. Decade buckets from 1e-30 cover the full span
/// from binary64 rounding noise to FP8/fixed saturation error — the
/// obs::Histogram layout (4x from 1e-7) cannot resolve the small end.
struct ErrorCell {
  static constexpr int kBuckets = 34;
  long count = 0;
  double sum_abs = 0.0, max_abs = 0.0;
  double sum_rel = 0.0, max_rel = 0.0;
  long hist_abs[kBuckets] = {};
  long hist_rel[kBuckets] = {};

  /// Bucket index of one error magnitude (NaN maps to the top bucket).
  static int bucket(double v);
  /// Inclusive upper bound of bucket `i` (+inf for the last).
  static double bucket_upper_bound(int i);
  void observe(double abs_err, double rel_err);
  void merge(const ErrorCell& other);
};

/// Final-contents deviation summary of one array after a shadow-mode run.
struct ArrayErrorStats {
  std::string name;
  bool stored = false; ///< array was the target of at least one Store
  long elements = 0;
  double max_abs = 0.0; ///< max |quantized - shadow| over all elements
  double max_rel = 0.0; ///< max relative deviation (vs the shadow value)
  double mpe = 0.0;     ///< mean_percentage_error(shadow, quantized)
  bool finite = true;   ///< no non-finite element in either buffer
};

/// Output of a shadow-mode run (RunOptions::error_profile): the VM carries
/// a lockstep binary64 shadow value for every real register and array slot
/// and records the deviation of every quantized real write here, indexed
/// like VmProfile (per compiled pc, per phi-move ordinal). The shadow
/// follows the *quantized* run's control flow; when control_divergences is
/// zero, every dynamic comparison agreed between the two worlds, so the
/// shadow outputs are bit-identical to an independent binary64 run of the
/// same inputs (the fuzz oracle checks exactly that).
struct ErrorProfile {
  /// Input: relative deviation above which a write counts as a spike (one
  /// trace instant per pc per run, plus the first_spike_* fields).
  double spike_rel_threshold = 1e-3;

  std::vector<ErrorCell> instr; ///< per compiled pc
  std::vector<ErrorCell> moves; ///< per phi-move ordinal
  /// First write whose relative deviation crossed the threshold. The pc
  /// is -1 for phi moves; the src ordinal (phi: the phi's own ordinal)
  /// always identifies the source line.
  long first_spike_step = -1;
  std::int32_t first_spike_pc = -1;
  std::int32_t first_spike_src = -1;
  double first_spike_rel = 0.0;
  /// Dynamic comparisons (RealCmp) whose quantized outcome differed from
  /// the outcome on the shadow values, and the step of the first one.
  long control_divergences = 0;
  long first_control_divergence_step = -1;
  /// Filled at Ret from the final buffer contents (empty if the run
  /// trapped first; `finalized` distinguishes the two).
  std::vector<ArrayErrorStats> arrays;
  /// MPE of the concatenated stored-to arrays, quantized vs shadow — the
  /// in-engine whole-program MPE (same definition the sweep driver uses).
  double program_mpe = 0.0;
  bool finalized = false;
  /// Final binary64 shadow contents of every array, for reconciliation.
  std::map<std::string, std::vector<double>> shadow_arrays;
};

/// The binary64 shadow operations: the same libm entry points the numrep
/// kernels fuse with their rounding step, minus the rounding step.
double shadow_op2(ir::Opcode op, double a, double b);
double shadow_op1(ir::Opcode op, double a);

struct RunOptions {
  long max_steps = 500'000'000;
  bool count_costs = true;
  bool track_array_ranges = false;
  bool track_register_ranges = false;
  /// When set, the VM engine records per-pc execution counts here (the
  /// vectors are sized and zeroed by run_program). Ignored by the
  /// reference engine.
  VmProfile* vm_profile = nullptr;
  /// When set, the VM engine runs a lockstep binary64 shadow and records
  /// per-pc deviation accumulators here (sized and zeroed by run_program).
  /// Quantized results are bit-identical with or without the shadow.
  /// Ignored by the reference engine.
  ErrorProfile* error_profile = nullptr;
};

/// Executes `f` under `types`. `store` provides the initial contents of
/// every array (missing arrays are zero-initialized) and receives the
/// final contents. Array contents are quantized into the array's assigned
/// representation both at initialization and on every store.
RunResult run_function(const ir::Function& f, const TypeAssignment& types,
                       ArrayStore& store, const RunOptions& options = {});

} // namespace luis::interp
