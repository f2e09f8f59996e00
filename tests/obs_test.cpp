// Observability tests: trace-event validity (the emitted document parses
// as JSON, every B has its E on the same thread, per-thread timestamps
// are monotonic), the metrics registry, and the VM hot-spot profiler's
// exactness invariant — the per-instruction costs sum to the run's
// platform::simulated_time, bit for bit up to summation order.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "core/sweep.hpp"
#include "interp/bytecode.hpp"
#include "interp/engine.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "platform/cost_model.hpp"
#include "platform/optime.hpp"
#include "polybench/polybench.hpp"
#include "support/thread_pool.hpp"

namespace luis::obs {
namespace {

// ---------------------------------------------------------------------------
// A deliberately strict recursive-descent JSON parser: no trailing
// garbage, no unescaped control characters, numbers via strtod. Small
// enough to live in the test so the validity check shares no code with
// the writer it is checking.

class JsonParser {
public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i)
            if (pos_ + i >= s_.size() || !std::isxdigit(s_[pos_ + i]))
              return false;
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ >= s_.size() || !std::isdigit(s_[pos_])) return false;
    while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= s_.size() || !std::isdigit(s_[pos_])) return false;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= s_.size() || !std::isdigit(s_[pos_])) return false;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    }
    return pos_ > start;
  }
  bool object() {
    ++pos_; // consume '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == '}') return ++pos_, true;
      if (s_[pos_] != ',') return false;
      ++pos_;
    }
  }
  bool array() {
    ++pos_; // consume '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ']') return ++pos_, true;
      if (s_[pos_] != ',') return false;
      ++pos_;
    }
  }
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
    case '{': return object();
    case '[': return array();
    case '"': return string();
    case 't': return literal("true");
    case 'f': return literal("false");
    case 'n': return literal("null");
    default: return number();
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool is_valid_json(std::string_view s) { return JsonParser(s).valid(); }

/// Asserts that the events are well-formed: every E closes the most
/// recent B on the same tid, timestamps never go backwards per tid, and
/// nothing remains open at the end. Returns tids that carried B events.
std::set<std::uint32_t> check_event_stream(const std::vector<TraceEvent>& evs) {
  std::map<std::uint32_t, std::vector<std::string>> stacks;
  std::map<std::uint32_t, double> last_ts;
  std::set<std::uint32_t> span_tids;
  for (const TraceEvent& e : evs) {
    EXPECT_GE(e.ts_micros, 0.0);
    const auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts_micros, it->second);
    }
    last_ts[e.tid] = e.ts_micros;
    if (e.phase == 'B') {
      stacks[e.tid].push_back(e.name);
      span_tids.insert(e.tid);
    } else if (e.phase == 'E') {
      if (stacks[e.tid].empty()) {
        ADD_FAILURE() << "E '" << e.name << "' without open B on tid "
                      << e.tid;
        continue;
      }
      EXPECT_EQ(stacks[e.tid].back(), e.name);
      stacks[e.tid].pop_back();
    } else {
      EXPECT_EQ(e.phase, 'i');
    }
    if (!e.args_json.empty()) {
      EXPECT_TRUE(is_valid_json(e.args_json));
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  return span_tids;
}

/// RAII guard: every tracing test leaves the global sink stopped+empty so
/// test order cannot matter.
struct TraceGuard {
  TraceGuard() { trace().start(); }
  ~TraceGuard() {
    trace().stop();
    trace().clear();
  }
};

// ---------------------------------------------------------------------------
// Trace sink

TEST(Trace, DisabledByDefaultAndSpansAreNoOps) {
  ASSERT_FALSE(tracing_enabled());
  bool args_built = false;
  {
    TraceSpan span("never", "test", [&] {
      args_built = true;
      return Args().str("k", "v").done();
    });
    EXPECT_FALSE(span.live());
    instant("nope", "test");
  }
  EXPECT_FALSE(args_built) << "lazy args must not be built while disabled";
  EXPECT_EQ(trace().event_count(), 0u);
}

TEST(Trace, SpansNestAndBalanceAndDocumentParses) {
  TraceGuard guard;
  {
    TraceSpan outer("outer", "test", [] {
      return Args().str("kernel", "tri\"solv\\").num("jobs", 3L).done();
    });
    TraceSpan inner("inner", "test");
    instant("tick", "test", Args().num("n", 1L).boolean("ok", true).done());
  }
  trace().stop();

  const std::vector<TraceEvent> evs = trace().snapshot();
  ASSERT_EQ(evs.size(), 5u); // B B i E E
  check_event_stream(evs);
  EXPECT_EQ(evs[0].name, "outer");
  EXPECT_EQ(evs[1].name, "inner");
  EXPECT_EQ(evs[2].phase, 'i');
  EXPECT_EQ(evs[3].name, "inner");
  EXPECT_EQ(evs[4].name, "outer");

  const std::string doc = trace().to_json();
  EXPECT_TRUE(is_valid_json(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"build\""), std::string::npos);
  EXPECT_NE(doc.find(build_info().git_describe), std::string::npos);
}

TEST(Trace, SpanOpenAcrossStopStillEmitsItsEnd) {
  trace().start();
  auto* span = new TraceSpan("crossing", "test");
  trace().stop();
  delete span; // E emitted after stop: the written trace must stay balanced
  const std::vector<TraceEvent> evs = trace().snapshot();
  ASSERT_EQ(evs.size(), 2u);
  check_event_stream(evs);
  trace().clear();
}

TEST(Trace, NonFiniteArgValuesStayValidJson) {
  // Branch & bound roots carry a -inf bound; JSON has no inf literal.
  const std::string args = Args()
                               .num("lo", -std::numeric_limits<double>::infinity())
                               .num("hi", std::numeric_limits<double>::infinity())
                               .num("nan", std::nan(""))
                               .num("v", 1.5)
                               .done();
  EXPECT_TRUE(is_valid_json(args)) << args;
  EXPECT_NE(args.find("\"-inf\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Metrics, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.counter("a.count").inc();
  reg.counter("a.count").inc(4);
  EXPECT_EQ(reg.counter("a.count").value(), 5);

  reg.set_gauge("b.gauge", 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("b.gauge").value(), 2.5);

  Histogram& h = reg.histogram("c.hist");
  h.observe(1e-8);
  h.observe(0.5);
  h.observe(2.0);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 1e-8 + 0.5 + 2.0);
  EXPECT_DOUBLE_EQ(snap.min, 1e-8);
  EXPECT_DOUBLE_EQ(snap.max, 2.0);
  long total = 0;
  for (long b : snap.buckets) total += b;
  EXPECT_EQ(total, 3);
}

TEST(Metrics, BucketBoundsGrowMonotonically) {
  for (int i = 1; i < Histogram::kBuckets - 1; ++i)
    EXPECT_GT(Histogram::upper_bound(i), Histogram::upper_bound(i - 1));
  EXPECT_TRUE(std::isinf(Histogram::upper_bound(Histogram::kBuckets - 1)));
}

TEST(Metrics, PercentileEdgeCases) {
  // Empty snapshot: no samples, no estimate.
  Histogram::Snapshot empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

  // One sample: every quantile collapses to it (the bucket edges are
  // clamped to the observed min == max).
  Histogram one;
  one.observe(0.3);
  const Histogram::Snapshot s1 = one.snapshot();
  EXPECT_DOUBLE_EQ(s1.percentile(0.0), 0.3);
  EXPECT_DOUBLE_EQ(s1.percentile(0.5), 0.3);
  EXPECT_DOUBLE_EQ(s1.percentile(0.99), 0.3);
  EXPECT_DOUBLE_EQ(s1.percentile(1.0), 0.3);

  // All samples inside one bucket: the estimate interpolates inside
  // [min, max], never escaping to the bucket's wider edges.
  Histogram narrow;
  narrow.observe(2e-7);
  narrow.observe(3e-7);
  const Histogram::Snapshot sn = narrow.snapshot();
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_GE(sn.percentile(q), 2e-7);
    EXPECT_LE(sn.percentile(q), 3e-7);
  }

  // A sample in the last (unbounded) bucket: the +inf edge is clamped to
  // the observed max, so the estimate stays finite.
  Histogram top;
  top.observe(1e30);
  top.observe(2e30);
  const Histogram::Snapshot st = top.snapshot();
  EXPECT_LE(st.percentile(0.99), 2e30);
  EXPECT_TRUE(std::isfinite(st.percentile(0.99)));

  // A sample below the first upper bound: the bucket's lower edge is 0,
  // clamped up to the observed min.
  Histogram tiny;
  tiny.observe(1e-9);
  tiny.observe(1e-9);
  const Histogram::Snapshot sy = tiny.snapshot();
  EXPECT_GE(sy.percentile(0.5), 1e-9);
  EXPECT_LE(sy.percentile(0.5), 1e-7);
}

TEST(Metrics, PercentileIsMonotoneAndBucketAccurate) {
  // 100 samples: 50 around 1e-5, 40 around 1e-3, 10 around 1e-1. The
  // decades are far enough apart that each lands in a distinct bucket.
  Histogram h;
  for (int i = 0; i < 50; ++i) h.observe(1e-5);
  for (int i = 0; i < 40; ++i) h.observe(1e-3);
  for (int i = 0; i < 10; ++i) h.observe(1e-1);
  const Histogram::Snapshot s = h.snapshot();

  // p50 must resolve within the 1e-5 sample's bucket, p90 within 1e-3's,
  // p99 within 1e-1's (bucket = smallest upper bound >= the sample).
  const auto bucket_of = [](double v) {
    int i = 0;
    while (i < Histogram::kBuckets - 1 && v > Histogram::upper_bound(i)) ++i;
    return i;
  };
  const auto covers = [&](double estimate, double sample) {
    const int b = bucket_of(sample);
    const double lo = b == 0 ? 0.0 : Histogram::upper_bound(b - 1);
    return estimate > lo && estimate <= Histogram::upper_bound(b);
  };
  EXPECT_TRUE(covers(s.percentile(0.5), 1e-5)) << s.percentile(0.5);
  EXPECT_TRUE(covers(s.percentile(0.9), 1e-3)) << s.percentile(0.9);
  EXPECT_TRUE(covers(s.percentile(0.99), 1e-1)) << s.percentile(0.99);

  // Monotone in q, bounded by the extrema.
  double prev = s.percentile(0.0);
  EXPECT_DOUBLE_EQ(prev, s.min);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = s.percentile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(s.percentile(1.0), s.max);

  // The dumps surface the summary quantiles.
  MetricsRegistry reg;
  reg.histogram("q.hist").observe(0.5);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
  const std::string json = reg.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
}

TEST(Metrics, InstrumentAddressesAreStable) {
  MetricsRegistry reg;
  Counter& c = reg.counter("stable");
  for (int i = 0; i < 64; ++i) reg.counter("filler." + std::to_string(i));
  EXPECT_EQ(&c, &reg.counter("stable"));
}

TEST(Metrics, DumpsParseAndCarryTheBuildStamp) {
  MetricsRegistry reg;
  reg.counter("x.count").inc(7);
  reg.set_gauge("y \"g\"", 1.0); // name needing escaping
  reg.histogram("z.hist").observe(0.25);

  const std::string json = reg.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"build\""), std::string::npos);
  EXPECT_NE(json.find("x.count"), std::string::npos);
  EXPECT_NE(json.find("\\\"g\\\""), std::string::npos);

  const std::string text = reg.to_text();
  EXPECT_NE(text.find("x.count"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
}

TEST(Metrics, BuildInfoIsPopulated) {
  EXPECT_FALSE(version_string().empty());
  EXPECT_TRUE(is_valid_json(build_info_json())) << build_info_json();
  EXPECT_NE(version_string().find(build_info().git_describe),
            std::string::npos);
}

// Every branch & bound node factorizes its starting basis at least once,
// so a sweep's ilp.lu.factorizations is at least its ilp.bnb.nodes; each
// solve adds its counts once, next to ilp.bnb.lp_iterations.
TEST(Metrics, SweepCountsAFactorizationPerNode) {
  const auto count = [](const char* name) {
    return metrics().counter(name).value();
  };
  const long nodes0 = count("ilp.bnb.nodes");
  const long factorizations0 = count("ilp.lu.factorizations");
  const long nucleus0 = count("ilp.lu.nucleus_columns");
  core::SweepOptions opt;
  opt.kernels = {"atax"};
  opt.threads = 1;
  opt.check_determinism = false;
  opt.verbose = false;
  const core::SweepResult result = core::run_sweep(opt);
  EXPECT_EQ(result.stats.failed, 0);
  const long nodes = count("ilp.bnb.nodes") - nodes0;
  EXPECT_GT(nodes, 0);
  EXPECT_EQ(nodes, result.stats.solver_nodes);
  EXPECT_GE(count("ilp.lu.factorizations") - factorizations0, nodes);
  EXPECT_GE(count("ilp.lu.nucleus_columns") - nucleus0, 0);
}

// engine.vm.steps is the work count behind engine.vm.execute_seconds: every
// VM run adds its steps, a trapped one included.
TEST(Metrics, VmStepsCountEveryRunsSteps) {
  const auto count = [](const char* name) {
    return metrics().counter(name).value();
  };
  ir::Module module;
  const polybench::BuiltKernel built = polybench::build_kernel("atax", module);
  const interp::VmEngine vm;
  const long runs0 = count("engine.vm.runs");
  const long steps0 = count("engine.vm.steps");
  interp::ArrayStore store = built.inputs;
  const interp::RunResult ok =
      vm.run(*built.function, interp::TypeAssignment{}, store);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_GT(ok.steps, 0);
  EXPECT_EQ(count("engine.vm.steps") - steps0, ok.steps);
  interp::RunOptions short_run;
  short_run.max_steps = 100;
  store = built.inputs;
  const interp::RunResult trapped =
      vm.run(*built.function, interp::TypeAssignment{}, store, short_run);
  ASSERT_FALSE(trapped.ok);
  EXPECT_EQ(count("engine.vm.steps") - steps0, ok.steps + trapped.steps);
  EXPECT_EQ(count("engine.vm.runs") - runs0, 2);
}

// ---------------------------------------------------------------------------
// Hot-spot profiler: the attribution must be exact, not approximate.

void expect_exact_attribution(const std::string& kernel,
                              numrep::ConcreteType type) {
  ir::Module module;
  polybench::BuiltKernel built = polybench::build_kernel(kernel, module);
  const interp::TypeAssignment types =
      interp::TypeAssignment::uniform(*built.function, type);
  const interp::CompiledProgram program =
      interp::compile_program(*built.function, types);

  interp::VmProfile profile;
  interp::RunOptions opt;
  opt.vm_profile = &profile;
  interp::ArrayStore store = built.inputs;
  const interp::RunResult run =
      interp::run_program(program, *built.function, store, opt);
  ASSERT_TRUE(run.ok) << run.error;

  const platform::OpTimeTable& table = platform::stm32_table();
  const HotSpotReport report =
      build_hotspot_report(program, *built.function, profile, table);
  const double simulated = platform::simulated_time(run.counters, table);

  EXPECT_NEAR(report.total_cost, simulated,
              1e-9 * std::max(1.0, std::abs(simulated)))
      << kernel << " under " << type.name();

  double entry_sum = 0.0;
  double share_sum = 0.0;
  for (const HotSpot& h : report.entries) {
    entry_sum += h.cost;
    share_sum += h.share;
    EXPECT_GE(h.executions, 0);
  }
  EXPECT_NEAR(entry_sum, report.total_cost,
              1e-9 * std::max(1.0, report.total_cost));
  if (report.total_cost > 0) {
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
  }
  for (std::size_t i = 1; i < report.entries.size(); ++i)
    EXPECT_GE(report.entries[i - 1].cost, report.entries[i].cost)
        << "ranking must be cost-descending";
}

TEST(Profile, AttributionIsExactUnderBinary32) {
  expect_exact_attribution("trisolv", {numrep::kBinary32, 0});
}

TEST(Profile, AttributionIsExactUnderFixedPoint) {
  expect_exact_attribution("atax", {numrep::kFixed32, 16});
}

TEST(Profile, AttributionIsExactWithControlFlowHeavyKernel) {
  // cholesky has selects/guards plus div/sqrt-heavy rows; durbin runs
  // phi-rich recurrences — both stress the edge-move attribution.
  expect_exact_attribution("cholesky", {numrep::kBinary64, 0});
  expect_exact_attribution("durbin", {numrep::kBinary32, 0});
}

TEST(Profile, AttributionIsExactUnderATunedMixedAssignment) {
  ir::Module module;
  polybench::BuiltKernel built = polybench::build_kernel("trisolv", module);
  const platform::OpTimeTable& table = platform::stm32_table();

  core::PipelineOptions popt;
  popt.materialize_casts = false;
  const core::PipelineResult tuned = core::tune_kernel(
      *built.function, table, core::TuningConfig::fast(), popt);

  const interp::CompiledProgram program = interp::compile_program(
      *built.function, tuned.allocation.assignment);
  interp::VmProfile profile;
  interp::RunOptions opt;
  opt.vm_profile = &profile;
  interp::ArrayStore store = built.inputs;
  const interp::RunResult run =
      interp::run_program(program, *built.function, store, opt);
  ASSERT_TRUE(run.ok) << run.error;

  const HotSpotReport report =
      build_hotspot_report(program, *built.function, profile, table);
  const double simulated = platform::simulated_time(run.counters, table);
  EXPECT_NEAR(report.total_cost, simulated,
              1e-9 * std::max(1.0, std::abs(simulated)));
  EXPECT_GT(report.total_cost, 0.0);
}

TEST(Profile, ReportRendersTextAndValidJson) {
  ir::Module module;
  polybench::BuiltKernel built = polybench::build_kernel("trisolv", module);
  const interp::TypeAssignment types = interp::TypeAssignment::uniform(
      *built.function, {numrep::kBinary32, 0});
  const interp::CompiledProgram program =
      interp::compile_program(*built.function, types);
  interp::VmProfile profile;
  interp::RunOptions opt;
  opt.vm_profile = &profile;
  interp::ArrayStore store = built.inputs;
  ASSERT_TRUE(interp::run_program(program, *built.function, store, opt).ok);

  const HotSpotReport report = build_hotspot_report(
      program, *built.function, profile, platform::stm32_table());
  ASSERT_FALSE(report.entries.empty());

  const std::string text = hotspot_text(report, 3);
  EXPECT_NE(text.find("hot spots"), std::string::npos);
  EXPECT_NE(text.find(report.entries[0].text), std::string::npos);
  EXPECT_NE(text.find("more"), std::string::npos) << "truncation note";

  const std::string json = hotspot_json(report);
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"hotspots\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing under the parallel sweep: this is the test the TSan CI job
// exercises (its -R filter selects Sweep* cases), pinning the sink's
// thread-safety claims, not just its output format.

TEST(SweepTracing, ParallelSweepEmitsBalancedSpansFromWorkerThreads) {
  TraceGuard guard;
  core::SweepOptions opt;
  opt.kernels = {"trisolv", "atax"};
  opt.configs = {"Fast"};
  opt.platforms = {"Stm32"};
  opt.include_taffo = false;
  opt.threads = 2;
  opt.check_determinism = false;
  opt.verbose = false;
  const core::SweepResult result = core::run_sweep(opt);
  EXPECT_EQ(result.stats.failed, 0);
  trace().stop();

  const std::vector<TraceEvent> evs = trace().snapshot();
  check_event_stream(evs);

  // The shared index counter makes the job->thread distribution timing-
  // dependent (one worker can claim every index before the other
  // starts), so only the deterministic facts are pinned here; the
  // guaranteed two-thread case is ThreadPoolTracing below.
  std::size_t job_spans = 0, vm_spans = 0;
  for (const TraceEvent& e : evs) {
    if (e.phase != 'B') continue;
    if (e.name == "sweep.job") ++job_spans;
    if (e.name == "vm.execute" || e.name == "vm.compile") ++vm_spans;
  }
  EXPECT_EQ(job_spans, result.jobs.size());
  EXPECT_GT(vm_spans, 0u);
  EXPECT_TRUE(is_valid_json(trace().to_json()));

  // The instrumented subsystems also reported into the global registry.
  EXPECT_GT(metrics().counter("sweep.runs").value(), 0);
  EXPECT_GT(metrics().counter("ilp.solves").value(), 0);
  EXPECT_TRUE(is_valid_json(metrics().to_json()));
}

// Two parallel_for workers record concurrently, held at a barrier until
// both are running, so two distinct thread timelines are guaranteed — the
// deterministic version of the multi-thread claim, and the hot loop TSan
// checks for races in the per-thread buffers and tid assignment.
TEST(ThreadPoolTracing, ConcurrentWorkersRecordOnDistinctThreads) {
  TraceGuard guard;
  constexpr int kWorkers = 2;
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  support::parallel_for(kWorkers, kWorkers, [&](std::size_t w) {
    {
      std::unique_lock<std::mutex> lock(m);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == kWorkers; });
    }
    for (int i = 0; i < 200; ++i) {
      TraceSpan span("pool.task", "test", [&] {
        return Args().num("worker", w).num("i", i).done();
      });
      if (i % 50 == 0)
        instant("pool.tick", "test", Args().num("i", i).done());
    }
  });
  trace().stop();

  const std::vector<TraceEvent> evs = trace().snapshot();
  const std::set<std::uint32_t> span_tids = check_event_stream(evs);
  EXPECT_EQ(span_tids.size(), kWorkers);
  EXPECT_TRUE(is_valid_json(trace().to_json()));
}

} // namespace
} // namespace luis::obs
