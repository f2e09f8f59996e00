// certify: the `luis check --assignment` + `luis profile --errors
// --assignment` call chain on 30 kernels x {Balanced, Multi} assignments
// tuned for Stm32 during set-up. It calls no ILP code. Every job's outputs
// are checked against the committed perfbench/certify_expected.txt.
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/certificate_check.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/error_bounds.hpp"
#include "bench.hpp"
#include "core/pipeline.hpp"
#include "interp/bytecode.hpp"
#include "platform/optime.hpp"
#include "polybench/polybench.hpp"
#include "support/statistics.hpp"
#include "vra/range_analysis.hpp"

namespace perfbench {
namespace {

using namespace luis;

struct Job {
  const polybench::BuiltKernel* kernel = nullptr;
  std::string preset;
  interp::TypeAssignment types;

  /// The job's key in the expected file.
  std::string key() const { return kernel->name + " " + preset; }
};

std::string hex_bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, std::bit_cast<std::uint64_t>(v));
  return buf;
}

/// One job's outputs as a line of the expected file: its key, how many
/// arrays the cross-check could check, the shadow MPE, each array's
/// certified bound, and each cross-checked array's measured and composed
/// certified deviation. Doubles are written as the hex of their bits.
std::string render(const Job& job, const analysis::ErrorAnalysisResult& errors,
                   const analysis::CertificateCrossCheck& cert,
                   const interp::ErrorProfile& profile) {
  long checked = 0;
  for (const analysis::ArrayCertCheck& a : cert.arrays) checked += a.checked;
  std::string line = job.key() + " checked=" + std::to_string(checked) +
                     " mpe=" + hex_bits(profile.program_mpe);
  for (const auto& array : job.kernel->function->arrays())
    line += " bound:" + array->name() + "=" + hex_bits(errors.errors.of(array.get()));
  for (const analysis::ArrayCertCheck& a : cert.arrays)
    line += " cert:" + a.name + "=" + hex_bits(a.measured) + "/" + hex_bits(a.certified);
  return line;
}

/// Expected line by job key; '#' lines are comments.
std::map<std::string, std::string> read_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kernel, preset;
    fields >> kernel >> preset;
    lines[kernel + " " + preset] = line;
  }
  return lines;
}

class CertifyWorkload final : public Workload {
public:
  explicit CertifyWorkload(const BenchOptions& options) {
    const core::TuningConfig configs[] = {core::TuningConfig::balanced(),
                                          core::TuningConfig::multi()};
    for (const std::string& name : polybench::kernel_names()) {
      modules_.push_back(std::make_unique<ir::Module>());
      kernels_.push_back(std::make_unique<polybench::BuiltKernel>(
          polybench::build_kernel(name, *modules_.back())));
      for (const core::TuningConfig& config : configs) {
        const core::PipelineResult tuned = core::tune_kernel(
            *kernels_.back()->function, platform::stm32_table(), config);
        jobs_.push_back(
            {kernels_.back().get(), config.name, tuned.allocation.assignment});
      }
    }
    order_ = seeded_order(jobs_.size(), options.seed);
    if (!options.write_expected) expected_ = read_expected(options.certify_expected);
    // The untimed first pass; with write_expected it records the outputs
    // that later passes must repeat.
    record_ = options.write_expected;
    run(nullptr);
    record_ = false;
    if (options.write_expected) write_expected(options.certify_expected);
  }

  long jobs_per_pass() const override { return static_cast<long>(jobs_.size()); }

  PassResult run_pass() override { return run(nullptr); }

  PassResult run_traced_pass(Counters& counters) override { return run(&counters); }

private:
  PassResult run(Counters* counters);
  void write_expected(const std::string& path) const;

  std::vector<std::unique_ptr<ir::Module>> modules_;
  std::vector<std::unique_ptr<polybench::BuiltKernel>> kernels_;
  std::vector<Job> jobs_;
  std::vector<std::size_t> order_;
  std::map<std::string, std::string> expected_;
  bool record_ = false;
};

PassResult CertifyWorkload::run(Counters* counters) {
  PassResult result{static_cast<long>(jobs_.size()), 0};
  long divergences = 0, failed_runs = 0, checked = 0, violations = 0;
  long steps = 0, vra_passes = 0;
  std::vector<double> tightness;
  PhaseSpan phase("phase.certify", 1);
  for (const std::size_t idx : order_) {
    const Job& job = jobs_[idx];
    const ir::Function& f = *job.kernel->function;

    vra::RangeMap ranges;
    analysis::DataflowStats vra_stats;
    {
      LayerSpan s(Layer::VraAnalyze);
      ranges = vra::analyze_ranges(f, {}, &vra_stats);
    }
    analysis::ErrorAnalysisResult errors;
    {
      LayerSpan s(Layer::AnalysisErrors);
      errors = analysis::analyze_errors(f, job.types, ranges);
    }
    interp::CompiledProgram program;
    {
      LayerSpan s(Layer::InterpCompile);
      program = interp::compile_program(f, job.types, {});
    }
    interp::ArrayStore store = job.kernel->inputs;
    interp::ErrorProfile profile;
    interp::RunOptions run_options;
    run_options.error_profile = &profile;
    interp::RunResult run;
    {
      LayerSpan s(Layer::InterpExecute);
      run = interp::run_program(program, f, store, run_options);
    }
    analysis::CertificateCrossCheck cert;
    {
      LayerSpan s(Layer::AnalysisCrosscheck);
      cert = analysis::cross_check_certificates(f, job.types, profile.arrays,
                                                profile.control_divergences);
    }

    const std::string line = render(job, errors, cert, profile);
    if (record_) expected_[job.key()] = line;
    const auto expected = expected_.find(job.key());
    const bool ok = run.ok && profile.finalized && !cert.any_violation &&
                    expected != expected_.end() && expected->second == line;
    if (!ok) ++result.failed;
    if (!run.ok) ++failed_runs;
    for (const analysis::ArrayCertCheck& a : cert.arrays) {
      checked += a.checked;
      violations += a.violated;
      if (a.checked && std::isfinite(a.tightness) && a.tightness > 0.0)
        tightness.push_back(a.tightness);
    }
    divergences += profile.control_divergences;
    steps += run.steps;
    vra_passes += vra_stats.passes;
  }
  if (counters) {
    Counters& c = *counters;
    c["vra.fixpoint_passes"] = static_cast<double>(vra_passes);
    c["interp.steps"] = static_cast<double>(steps);
    c["interp.control_divergences"] = static_cast<double>(divergences);
    c["interp.failed_runs"] = static_cast<double>(failed_runs);
    c["analysis.arrays_checked"] = static_cast<double>(checked);
    c["analysis.violations"] = static_cast<double>(violations);
    c["analysis.tightness_gmean"] = geomean_of(tightness);
  }
  return result;
}

void CertifyWorkload::write_expected(const std::string& path) const {
  std::ofstream out(path);
  out << "# Expected outputs of perfbench's certify workload, one line per\n"
         "# (kernel, preset) job: the number of arrays the certificate\n"
         "# cross-check could check, the shadow MPE, each array's certified\n"
         "# bound, and each cross-checked array's measured/certified deviation,\n"
         "# every double as the hex of its bits. See perfbench/README.md.\n";
  for (const Job& job : jobs_) out << expected_.at(job.key()) << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

} // namespace

std::unique_ptr<Workload> make_certify(const BenchOptions& options) {
  return std::make_unique<CertifyWorkload>(options);
}

} // namespace perfbench
