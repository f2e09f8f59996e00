// The layers of the traced replay pass and the spans that mark them.
//
// A span wraps one call into a layer's public function. It is the
// product's own obs::TraceSpan in category "perfbench", so it costs one
// atomic load while tracing is off, and the product's internal spans
// (pipeline.*, ilp.*, vm.*) land in the same trace, nested inside it. A
// layer's time is its *self* time: the span's duration minus the part its
// "perfbench" child spans cover, summed over threads. Phase spans mark the
// replay's phases on the pass's own thread.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Every layer a span can name. The metric is "<name>_ms".
enum class Layer : std::uint8_t {
  SweepOther,     ///< pass-level sweep bookkeeping: job slots, caches, totals
  SweepPrepare,   ///< per-kernel prepare, excluding the calls below
  PolybenchBuild, ///< polybench::build_kernel
  InterpReference,///< ExecutionEngine::run for the binary64 and TAFFO runs
  IrPrint,        ///< ir::print_function
  CoreGreedy,     ///< core::allocate_greedy
  SweepJob,       ///< per ILP job, excluding the calls below
  IrParse,        ///< ir::parse_function
  VraAnalyze,     ///< vra::analyze_ranges
  CoreAllocate,   ///< core::allocate_ilp
  AssignmentIo,   ///< core::assignment_to_text / assignment_from_text
  SweepBatch,     ///< per-kernel batch, excluding the calls below
  InterpBatch,    ///< ExecutionEngine::run_batch
  PlatformPrice,  ///< platform::simulated_time / speedup_percent
  SupportMpe,     ///< mean_percentage_error over the output arrays
  SweepRecheck,   ///< one determinism re-check job (parse, VRA, allocate)
  InterpCompile,  ///< interp::compile_program
  InterpExecute,  ///< interp::run_program with a shadow ErrorProfile
  AnalysisErrors, ///< analysis::analyze_errors
  AnalysisCrosscheck, ///< analysis::cross_check_certificates
  Count,
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::Count);

/// Dotted layer names, e.g. "core.allocate", in Layer order.
constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "sweep.other",    "sweep.prepare",  "polybench.build",
    "interp.reference", "ir.print",     "core.greedy",
    "sweep.job",      "ir.parse",       "vra.analyze",
    "core.allocate",  "core.assignment_io", "sweep.batch",
    "interp.batch",   "platform.price", "support.mpe",
    "sweep.recheck",  "interp.compile", "interp.execute",
    "analysis.errors", "analysis.crosscheck",
};

constexpr const char* kLayerCategory = "perfbench";
constexpr const char* kPhaseCategory = "perfbench.phase";

/// RAII span around one layer call. `on` = false records nothing, for
/// calls that an enclosing span already accounts for as a whole.
class LayerSpan {
public:
  explicit LayerSpan(Layer layer, bool on = true) {
    if (on) span_.emplace(kLayerNames[static_cast<std::size_t>(layer)], kLayerCategory);
  }

private:
  std::optional<luis::obs::TraceSpan> span_;
};

/// RAII span marking a replay phase whose work runs on `threads` workers
/// (1 = inline on the calling thread).
class PhaseSpan {
public:
  PhaseSpan(const char* name, int threads)
      : span_(name, kPhaseCategory,
              [threads] { return luis::obs::Args().num("threads", threads).done(); }) {}

private:
  luis::obs::TraceSpan span_;
};

/// What one traced pass spent where, in milliseconds.
struct PassBreakdown {
  double wall_ms = 0.0;
  std::array<double, kLayerCount> self_ms{}; ///< summed over threads
  double unattributed_ms = 0.0; ///< pass wall covered by no layer span
  double idle_ms = 0.0; ///< threads x phase wall - busy, over all phases
};

/// Breaks down one traced pass from its events (obs::TraceSink::snapshot(),
/// ordered by thread), given that the pass ran from the trace's start for
/// `wall_ms`.
PassBreakdown breakdown(const std::vector<luis::obs::TraceEvent>& events,
                        double wall_ms);

} // namespace perfbench
