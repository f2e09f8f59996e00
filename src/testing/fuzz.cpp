#include "testing/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "ilp/lp_reader.hpp"
#include "ilp/lp_writer.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "support/string_utils.hpp"
#include "testing/error_fuzz.hpp"
#include "testing/ilp_fuzz.hpp"
#include "testing/ir_fuzz.hpp"
#include "testing/numrep_fuzz.hpp"

namespace luis::testing {

const char* to_string(FuzzTarget target) {
  switch (target) {
  case FuzzTarget::Ilp: return "ilp";
  case FuzzTarget::Ir: return "ir";
  case FuzzTarget::Numrep: return "numrep";
  case FuzzTarget::ErrorBounds: return "error";
  }
  return "<invalid>";
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t trial) {
  // splitmix64 step over (base, trial) — the same mixing Rng::reseed uses,
  // so nearby trials get unrelated streams.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ull * (trial + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// Independent stream for the random type assignment of an IR trial, so
/// shrinking the program recipe does not perturb the assignment draw.
constexpr std::uint64_t kTypeSeedSalt = 0x7E57AB1E5EEDull;

/// A campaign stops a target after this many distinct failures.
constexpr int kMaxFailuresPerTarget = 5;

/// True if every variable is integer with finite bounds — what the
/// enumeration oracle requires and random_ilp_instance guarantees. Corpus
/// files are validated with this before being replayed.
bool is_enumerable(const ilp::Model& model) {
  for (const ilp::Variable& v : model.variables()) {
    if (v.kind == ilp::VarKind::Continuous) return false;
    if (!std::isfinite(v.lower) || !std::isfinite(v.upper)) return false;
    if (v.upper - v.lower > 64.0) return false;
  }
  return model.num_variables() <= 8;
}

CheckResult run_ilp_trial(std::uint64_t seed, std::string* repro) {
  Rng rng(seed);
  const IlpInstance instance = random_ilp_instance(rng);
  // The trial's stream goes on into the oracles' picks; each shrink
  // candidate draws them from the same point.
  const auto check = [rng](const IlpInstance& candidate) {
    Rng picks = rng;
    return check_ilp_instance(candidate, picks);
  };
  const CheckResult result = check(instance);
  if (!result.ok && repro) {
    const auto still_fails = [&check](const IlpInstance& candidate) {
      return !check(candidate).ok;
    };
    const IlpInstance shrunk =
        shrink_ilp_instance(instance, still_fails).instance;
    *repro = ilp::to_lp_format(shrunk.model, shrunk.objective);
  }
  return result;
}

CheckResult run_ir_trial(std::uint64_t seed, interp::EngineKind engine,
                         std::string* repro) {
  const auto check_under = [seed, engine](const IrGenOptions& options,
                                          std::string* text) {
    Rng rng(seed);
    ir::Module module;
    const GeneratedIr generated = generate_ir_kernel(module, rng, options);
    Rng type_rng(seed ^ kTypeSeedSalt);
    const CheckResult result = check_ir_instance(
        *generated.function, generated.inputs, type_rng, engine);
    if (text) *text = ir::print_function(*generated.function);
    return result;
  };
  const CheckResult result = check_under(IrGenOptions{}, nullptr);
  if (!result.ok && repro) {
    const auto still_fails = [&check_under](const IrGenOptions& candidate) {
      return !check_under(candidate, nullptr).ok;
    };
    const IrGenOptions smallest =
        shrink_ir_options(IrGenOptions{}, still_fails).options;
    check_under(smallest, repro);
  }
  return result;
}

CheckResult run_numrep_trial(std::uint64_t seed) {
  Rng rng(seed);
  return check_numrep_trial(rng);
}

CheckResult run_error_trial(std::uint64_t seed, interp::EngineKind engine,
                            std::string* repro) {
  const auto check_under = [seed, engine](const IrGenOptions& options,
                                          std::string* text) {
    Rng rng(seed);
    ir::Module module;
    const GeneratedIr generated = generate_ir_kernel(module, rng, options);
    Rng type_rng(seed ^ kTypeSeedSalt);
    const CheckResult result = check_error_bounds_instance(
        *generated.function, generated.inputs, type_rng, engine);
    if (text) *text = ir::print_function(*generated.function);
    return result;
  };
  const CheckResult result = check_under(IrGenOptions{}, nullptr);
  if (!result.ok && repro) {
    const auto still_fails = [&check_under](const IrGenOptions& candidate) {
      return !check_under(candidate, nullptr).ok;
    };
    const IrGenOptions smallest =
        shrink_ir_options(IrGenOptions{}, still_fails).options;
    check_under(smallest, repro);
  }
  return result;
}

std::string write_artifact(const std::string& dir, FuzzTarget target,
                           std::uint64_t seed, const std::string& text) {
  if (dir.empty() || text.empty()) return {};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const char* extension = target == FuzzTarget::Ilp ? "lp" : "ir";
  const std::string path = format_string(
      "%s/fuzz_%s_%016llx.%s", dir.c_str(), to_string(target),
      static_cast<unsigned long long>(seed), extension);
  std::ofstream os(path);
  if (!os) return {};
  os << text;
  return path;
}

} // namespace

CampaignResult run_campaign(const CampaignOptions& options) {
  CampaignResult out;
  const auto start = std::chrono::steady_clock::now();
  const auto out_of_budget = [&] {
    if (options.seconds <= 0.0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= options.seconds;
  };

  std::vector<int> failures_per_target(4, 0);
  for (long trial = 0;; ++trial) {
    if (options.seconds > 0.0) {
      if (out_of_budget()) break;
    } else if (trial >= options.trials) {
      break;
    }
    ++out.trials;
    const std::uint64_t seed = derive_seed(options.seed, static_cast<std::uint64_t>(trial));
    for (const FuzzTarget target : options.targets) {
      if (failures_per_target[static_cast<int>(target)] >= kMaxFailuresPerTarget)
        continue;
      std::string repro;
      CheckResult result;
      switch (target) {
      case FuzzTarget::Ilp: result = run_ilp_trial(seed, &repro); break;
      case FuzzTarget::Ir: result = run_ir_trial(seed, options.engine, &repro); break;
      case FuzzTarget::Numrep: result = run_numrep_trial(seed); break;
      case FuzzTarget::ErrorBounds:
        result = run_error_trial(seed, options.engine, &repro);
        break;
      }
      if (result.ok) continue;
      ++failures_per_target[static_cast<int>(target)];
      FuzzFailure failure;
      failure.target = target;
      failure.seed = seed;
      failure.message = result.message;
      failure.repro_text = repro;
      failure.artifact_path =
          write_artifact(options.artifacts_dir, target, seed, repro);
      if (options.verbose)
        std::fprintf(stderr, "fuzz[%s] seed %016llx FAILED: %s\n",
                     to_string(target), static_cast<unsigned long long>(seed),
                     result.message.c_str());
      out.failures.push_back(std::move(failure));
    }
    if (options.verbose && out.trials % 1000 == 0)
      std::fprintf(stderr, "fuzz: %ld trials, %zu failures\n", out.trials,
                   out.failures.size());
  }
  return out;
}

bool CorpusResult::ok() const {
  if (!error.empty()) return false;
  return std::all_of(entries.begin(), entries.end(),
                     [](const Entry& e) { return e.result.ok; });
}

CorpusResult replay_corpus(const std::string& dir,
                           interp::EngineKind engine) {
  CorpusResult out;
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string extension = entry.path().extension().string();
    if (extension == ".lp" || extension == ".ir") paths.push_back(entry.path());
  }
  if (ec) {
    out.error = "cannot read corpus directory " + dir + ": " + ec.message();
    return out;
  }
  std::sort(paths.begin(), paths.end());

  for (const std::filesystem::path& path : paths) {
    std::ifstream is(path);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    CorpusResult::Entry entry;
    entry.path = path.string();
    if (path.extension() == ".lp") {
      const ilp::LpParseResult parsed = ilp::parse_lp(text);
      if (!parsed.ok()) {
        entry.result = CheckResult::fail("does not parse: " + parsed.error);
      } else if (!is_enumerable(parsed.model)) {
        entry.result = CheckResult::fail(
            "corpus model is not enumerable (needs small finite integer "
            "boxes)");
      } else {
        Rng picks(name_seed(path.filename().string()));
        entry.result =
            check_ilp_instance({parsed.model, parsed.objective}, picks);
      }
    } else {
      ir::Module module;
      const ir::ParseResult parsed = ir::parse_function(module, text);
      if (!parsed.ok()) {
        entry.result = CheckResult::fail("does not parse: " + parsed.error);
      } else {
        const interp::ArrayStore inputs = synth_ir_inputs(*parsed.function);
        Rng type_rng(name_seed(path.filename().string()));
        entry.result =
            check_ir_instance(*parsed.function, inputs, type_rng, engine);
      }
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

} // namespace luis::testing
