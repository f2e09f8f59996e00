#include "core/pipeline.hpp"

#include "core/cast_materializer.hpp"
#include "ir/passes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace luis::core {

PipelineResult tune_kernel(ir::Function& f, const platform::OpTimeTable& table,
                           const TuningConfig& config,
                           const PipelineOptions& options) {
  PipelineResult result;
  StageTimings& t = result.timings;
  obs::TraceSpan pipeline_span(
      "pipeline.tune", "pipeline",
      [&] {
        return obs::Args()
            .str("function", f.name())
            .str("platform", table.machine())
            .done();
      },
      obs::TimeSink{&t.total_seconds,
                    &obs::metrics().histogram("pipeline.tune_seconds")});

  {
    obs::TraceSpan span("pipeline.ir_passes", "pipeline",
                        obs::TimeSink{&t.ir_seconds});
    if (options.optimize_ir) result.ir_changes = ir::run_default_pipeline(f);
  }

  {
    obs::TraceSpan span("pipeline.vra", "pipeline",
                        obs::TimeSink{&t.vra_seconds});
    analysis::DataflowStats vra_stats;
    result.ranges = vra::analyze_ranges(f, options.vra, &vra_stats);
    obs::metrics().counter("vra.fixpoint_passes").inc(vra_stats.passes);
    obs::metrics().counter("vra.widenings").inc(vra_stats.widenings);
  }

  {
    obs::TraceSpan span(
        "pipeline.allocate", "pipeline",
        [&] {
          return obs::Args()
              .str("allocator",
                   options.allocator == AllocatorKind::Ilp ? "ilp" : "greedy")
              .done();
        },
        obs::TimeSink{&t.allocation_seconds});
    result.allocation = options.allocator == AllocatorKind::Ilp
                            ? allocate_ilp(f, result.ranges, table, config)
                            : allocate_greedy(f, result.ranges, config);
  }
  t.model_build_seconds = result.allocation.stats.model_build_seconds;
  t.solve_seconds = result.allocation.stats.solve_seconds;

  if (options.materialize_casts) {
    obs::TraceSpan span("pipeline.materialize_casts", "pipeline",
                        obs::TimeSink{&t.materialize_seconds});
    result.casts_inserted = materialize_casts(f, result.allocation.assignment);
  }

  // Materialized casts postdate the VRA pass; refresh the ranges so the
  // downstream analyses see them (a cast carries its operand's range, not
  // top).
  if (result.casts_inserted > 0 &&
      (options.analyze_errors || options.lint != LintMode::Off))
    result.ranges = vra::analyze_ranges(f, options.vra);

  if (options.analyze_errors) {
    result.errors = analysis::analyze_errors(f, result.allocation.assignment,
                                             result.ranges);
    t.error_seconds = result.errors.seconds;
  }

  if (options.lint != LintMode::Off) {
    obs::TraceSpan span("pipeline.lint", "pipeline",
                        obs::TimeSink{&t.lint_seconds});
    analysis::LintOptions lint_options = options.lint_options;
    lint_options.casts_materialized = options.materialize_casts;
    // Deliberately lints the allocator's raw output: a load whose entry
    // disagrees with its array is an allocator bug L003 must surface, not
    // something to normalize away.
    result.lint = analysis::run_lint(
        f, result.allocation.assignment, result.ranges, lint_options,
        options.analyze_errors ? &result.errors.errors : nullptr);
    if (options.lint == LintMode::Error && result.lint.has_errors())
      result.lint_ok = false;
  }

  obs::metrics().counter("pipeline.tunes").inc();
  pipeline_span.end();
  return result;
}

} // namespace luis::core
