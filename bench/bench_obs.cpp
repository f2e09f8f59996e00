// Observability overhead: what a TraceSpan costs when tracing is disabled
// (the price of leaving instrumentation in hot paths — one relaxed atomic
// load), when it is enabled, and what the always-on metrics instruments
// cost. Also prices a full traced vs. untraced VM run so the end-to-end
// overhead claim in docs/OBSERVABILITY.md stays honest.
#include <benchmark/benchmark.h>

#include "interp/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "polybench/polybench.hpp"

using namespace luis;

namespace {

void BM_SpanDisabled(benchmark::State& state) {
  obs::trace().stop();
  for (auto _ : state) {
    obs::TraceSpan span("bench.span", "bench", [] {
      return obs::Args().num("n", 1L).done();
    });
    benchmark::DoNotOptimize(span.live());
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::trace().start();
  for (auto _ : state) {
    obs::TraceSpan span("bench.span", "bench", [] {
      return obs::Args().num("n", 1L).done();
    });
    benchmark::DoNotOptimize(span.live());
  }
  obs::trace().stop();
  obs::trace().clear();
}
BENCHMARK(BM_SpanEnabled);

void BM_InstantEnabled(benchmark::State& state) {
  obs::trace().start();
  long i = 0;
  for (auto _ : state)
    obs::instant("bench.tick", "bench", obs::Args().num("i", ++i).done());
  obs::trace().stop();
  obs::trace().clear();
}
BENCHMARK(BM_InstantEnabled);

void BM_CounterInc(benchmark::State& state) {
  obs::Counter& c = obs::metrics().counter("bench.counter");
  for (auto _ : state) c.inc();
}
BENCHMARK(BM_CounterInc);

void BM_CounterLookupAndInc(benchmark::State& state) {
  // The anti-pattern the metrics header warns about: resolving the
  // instrument by name on every hit takes the registry lock each time.
  for (auto _ : state) obs::metrics().counter("bench.counter").inc();
}
BENCHMARK(BM_CounterLookupAndInc);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram& h = obs::metrics().histogram("bench.hist");
  double v = 1e-6;
  for (auto _ : state) {
    h.observe(v);
    v = v < 1.0 ? v * 1.5 : 1e-6;
  }
}
BENCHMARK(BM_HistogramObserve);

/// End-to-end: one VM run of a small kernel, tracing off vs. on. The two
/// results side by side are the real overhead number for a traced run.
void run_kernel_once(bool traced, benchmark::State& state) {
  ir::Module module;
  polybench::BuiltKernel built = polybench::build_kernel("trisolv", module);
  const interp::TypeAssignment types = interp::TypeAssignment::uniform(
      *built.function, {numrep::kBinary32, 0});
  const auto engine = interp::make_engine(interp::EngineKind::Vm);
  if (traced) obs::trace().start();
  for (auto _ : state) {
    interp::ArrayStore store = built.inputs;
    benchmark::DoNotOptimize(engine->run(*built.function, types, store));
  }
  if (traced) {
    obs::trace().stop();
    obs::trace().clear();
  }
}

void BM_VmRunUntraced(benchmark::State& state) { run_kernel_once(false, state); }
BENCHMARK(BM_VmRunUntraced);

void BM_VmRunTraced(benchmark::State& state) { run_kernel_once(true, state); }
BENCHMARK(BM_VmRunTraced);

/// Shadow-execution overhead: the same kernel with the binary64 shadow
/// and per-line error accumulators off vs. on. The off/on pair side by
/// side is the overhead number quoted in docs/OBSERVABILITY.md
/// ("Numerical-error profiling").
void run_kernel_shadow(bool errors, benchmark::State& state) {
  ir::Module module;
  polybench::BuiltKernel built = polybench::build_kernel("trisolv", module);
  const interp::TypeAssignment types = interp::TypeAssignment::uniform(
      *built.function, {numrep::kBinary32, 0});
  const auto engine = interp::make_engine(interp::EngineKind::Vm);
  for (auto _ : state) {
    interp::ArrayStore store = built.inputs;
    interp::ErrorProfile ep;
    interp::RunOptions opt;
    if (errors) opt.error_profile = &ep;
    benchmark::DoNotOptimize(
        engine->run(*built.function, types, store, opt));
  }
}

void BM_VmRunShadowOff(benchmark::State& state) {
  run_kernel_shadow(false, state);
}
BENCHMARK(BM_VmRunShadowOff);

void BM_VmRunShadowOn(benchmark::State& state) {
  run_kernel_shadow(true, state);
}
BENCHMARK(BM_VmRunShadowOn);

} // namespace

BENCHMARK_MAIN();
