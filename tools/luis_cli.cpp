// luis — command line driver for the LUIS precision tuner.
//
//   luis kernels                          list the bundled PolyBench kernels
//   luis formats                          list every catalog number
//                                         format (name, class, width,
//                                         executability, range)
//   luis emit <kernel> [-o out.ir]        write a kernel's textual IR
//   luis print <file.ir>                  parse + verify + pretty-print
//   luis verify <file.ir>                 verify and report problems
//   luis ranges <file.ir>                 show the VRA result per register
//   luis tune <file.ir> [options]         run the full pipeline, report the
//                                         allocation, optionally emit tuned
//                                         IR with materialized casts
//   luis lint <file.ir> [options]         run the pipeline and the precision
//                                         lint over its output (or over a
//                                         saved assignment), report findings
//   luis check <file.ir> [options]        statically certify worst-case
//                                         rounding-error bounds for the
//                                         pipeline's allocation (or a saved
//                                         assignment); exits non-zero when
//                                         --max-rel-error is exceeded
//   luis run <file.ir> [--type T]         execute with a uniform type and
//                                         print per-array checksums
//   luis disasm <file.ir> [--type T]      lower to bytecode and print the
//                                         compiled program
//   luis compile <file.lk> [-o out.ir]    compile kernel-language source
//   luis apply <file.ir> <types.txt>      execute under a saved assignment
//   luis characterize [-o t.optime]       measure this machine's op-times
//   luis sweep [options]                  batch-tune kernel x config x
//                                         platform jobs on worker threads
//                                         and report per-stage statistics
//   luis fuzz [options]                   property-based differential
//                                         fuzzing of the solver, IR, and
//                                         quantization layers
//   luis profile <file.ir> [options]      execute on the VM with per-
//                                         instruction counting and print
//                                         a ranked hot-spot report (the
//                                         per-line costs sum exactly to
//                                         the run's simulated time)
//   luis version                          print the build stamp
//
// global options (any verb, see docs/OBSERVABILITY.md):
//   --trace-out FILE      record spans across the pipeline, solver, sweep
//                         workers, and VM, and write a Chrome trace-event
//                         JSON file (open in Perfetto / chrome://tracing)
//   --metrics-out FILE    write the process metrics registry as JSON
//   --log-level L         error|warn|info|debug (default info)
//
// profile options:
//   --platform P          op-time table pricing the report (as in tune)
//   --platform-file F     saved characterization instead of a named one
//   --type T              uniform representation to run under
//                         (default binary64)
//   --assignment F        profile under a saved type assignment instead
//   --top N               rows to print (default 20, 0 = all)
//   --json FILE           also write the full report as JSON
//   --errors              shadow-execute in binary64 alongside the
//                         quantized run: adds the per-line numerical-
//                         error table, the per-array deviation summary
//                         with the in-engine whole-program MPE, and the
//                         measured-vs-certified cross-check against the
//                         `luis check` certificates (exits non-zero when
//                         a measured error exceeds a certified bound)
//
// run/apply options:
//   --engine vm|ref       execution engine (default vm; results are
//                         bit-identical, see docs/INTERP.md)
//
// fuzz options:
//   --target ilp|ir|numrep|error|all
//                         generator/oracle pairs to run (default all);
//                         `error` checks measured quantized-vs-reference
//                         deviation against the static certified bound
//   --trials N            random trials per target (default 200)
//   --seconds N           unbounded mode: fuzz for N wall-clock seconds
//   --seed S              campaign base seed, decimal (default 1)
//   --artifacts DIR       write minimized failing inputs here
//                         (default fuzz-artifacts)
//   --corpus DIR          also replay every .lp/.ir seed file in DIR
//   --engine vm|ref       primary engine for the IR differential oracle
//                         (default ref; either way both engines run and
//                         are compared bit for bit)
//   --quiet               suppress progress lines on stderr
// Every failure is shrunk to a minimal repro and written as an artifact
// (.lp for solver models, .ir for IR programs); the exit status is
// non-zero if any corpus file or random trial fails.
//
// sweep options:
//   --kernels a,b,c       subset of PolyBench kernels (default: all 30)
//   --configs a,b         subset of Precise,Balanced,Fast,Multi (default:
//                         Precise,Balanced,Fast; Multi tunes over every
//                         executable catalog format)
//   --platforms a,b       subset of Stm32,Raspberry,Intel,AMD (default: all)
//   --threads N           threads, never more (default: hardware
//                         concurrency; 1 = serial reference path, same
//                         results)
//   --max-nodes N         branch & bound node limit per solve (default 3000)
//   --no-taffo            skip the greedy TAFFO baseline rows
//   --errors              shadow-execute every tuned job: per-job rows
//                         (text, JSON, metrics registry) gain the
//                         in-engine shadow MPE, max abs/rel deviation,
//                         and control-divergence count
//   --engine vm|ref       execution engine for every interpretation
//                         (default vm); either way each distinct
//                         (kernel, assignment) runs once
//   --no-check            skip the determinism re-check (and the solver
//                         result cache, which serves only the re-check)
//   --json <path>         also write the full per-job report as JSON
//   --quiet               suppress per-kernel progress on stderr
// Exits non-zero if any job fails or the determinism check finds a
// mismatch, and 2 (before any work) on an unknown kernel/config/platform/
// engine name or a numeric value that is not a whole number in range.
//
// tune also accepts --platform-file <t.optime> to tune against a saved
// characterization (the paper's cross-compilation workflow).
//
// VRA fixpoint knobs (tune, lint, check, sweep; recorded in the sweep and
// check JSON reports):
//   --vra-max-passes N    fixpoint sweep cap (default 50)
//   --vra-widen-after N   sweeps before widening engages (default 10)
//   --vra-clamp X         range clamp / "don't know" magnitude (default 1e30)
//   --join-stores         flow store ranges back into arrays (annotation
//                         checking mode; check uses it for self-contained
//                         certificates)
//
// check options (plus --platform/--platform-file/--config/--types/--literal/
// --optimize and the VRA knobs above):
//   --assignment <types.txt>    certify a saved assignment instead of
//                               running the allocator
//   --max-rel-error X           fail (exit 1) when any output array's
//                               certified relative bound exceeds X
//   --format text|json          stdout format (default text)
//   --json FILE                 also write the full certificate (with the
//                               build stamp) to FILE
//
// tune options:
//   --platform Stm32|Raspberry|Intel|AMD|host     (default Stm32)
//   --config Fast|Balanced|Precise|Multi          (default Balanced; Multi
//                                                 draws T from the format
//                                                 catalog and overrides
//                                                 --types)
//   --types fix32,binary32,binary64               candidate set T (any
//                                                 executable format name)
//   --literal                                     paper-exact ILP model
//   --optimize                                    IR cleanup passes first
//   --lint=warn|error                             precision lint the result
//                                                 (error: non-zero exit on
//                                                 error-severity findings)
//   -o <out.ir>                                   emit tuned IR with casts
//
// lint options (plus --platform/--platform-file/--config/--types/--literal/
// --optimize as in tune):
//   --assignment <types.txt>    lint a saved assignment instead of running
//                               the allocator
//   --materialize               materialize casts first, then lint
//   --format text|json          report format (default text)
//   --threshold N               L005 guaranteed-IEBW drop threshold
//   --max-rel-error X           L008 certified relative-error budget
//   --werror                    exit non-zero on warnings too
// lint always runs the static error-bound analysis, so the error-aware
// rules (L008-L011, see docs/ANALYSIS.md) fire alongside the structural
// ones.
//
// Every verb that parses IR verifies it and exits non-zero on verifier
// errors, so the tool is usable as a pre-commit check. Every verb exits 2
// on an unknown option, a flag missing its value or a wrong number of
// operands, and 1 when an output file cannot be written.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/certificate_check.hpp"
#include "analysis/error_bounds.hpp"
#include "analysis/lint.hpp"
#include "core/assignment_io.hpp"
#include "core/cast_materializer.hpp"
#include "frontend/parser.hpp"
#include "core/pipeline.hpp"
#include "core/sweep.hpp"
#include "interp/engine.hpp"
#include "ir/parser.hpp"
#include "ir/passes.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "obs/build_info.hpp"
#include "obs/error_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "numrep/registry.hpp"
#include "platform/cost_model.hpp"
#include "platform/microbench.hpp"
#include "polybench/polybench.hpp"
#include "support/diag.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"
#include "testing/fuzz.hpp"

using namespace luis;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: luis [--trace-out F] [--metrics-out F] [--log-level L] "
               "<kernels|formats|emit|compile|print|verify|ranges|tune|"
               "lint|check|run|disasm|characterize|sweep|fuzz|profile|version> "
               "[args]\n(see the "
               "header of tools/luis_cli.cpp for the full option list)\n");
  return 2;
}

using Flags = std::vector<std::string_view>;

Flags operator+(Flags a, const Flags& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// One verb's arguments: its operands, and its options in command-line
/// order as (flag, value) pairs; a switch carries an empty value.
struct CommandLine {
  std::vector<std::string> operands;
  std::vector<std::pair<std::string, std::string>> options;
};

/// Splits `args` for `verb`, which takes exactly `operands` operands, the
/// flags in `with_value` (each followed by its value) and the switches in
/// `switches`. Every verb parses through this, so all of them refuse bad
/// input the same way: on an unknown option, a flag missing its value or a
/// wrong operand count it prints a diagnostic and returns nullopt, and the
/// verb exits 2.
std::optional<CommandLine> parse_command_line(
    const char* verb, const std::vector<std::string>& args,
    std::size_t operands, const Flags& with_value = {},
    const Flags& switches = {}) {
  const auto among = [](const Flags& flags, const std::string& a) {
    return std::find(flags.begin(), flags.end(), a) != flags.end();
  };
  CommandLine cl;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (among(with_value, a)) {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "luis %s: %s wants a value\n", verb, a.c_str());
        return std::nullopt;
      }
      cl.options.emplace_back(a, args[++i]);
    } else if (among(switches, a)) {
      cl.options.emplace_back(a, std::string());
    } else if (a.size() > 1 && a[0] == '-') {
      std::fprintf(stderr, "luis %s: unknown option '%s'\n", verb, a.c_str());
      return std::nullopt;
    } else {
      cl.operands.push_back(a);
    }
  }
  if (cl.operands.size() != operands) {
    std::fprintf(stderr, "luis %s: wants %zu operand(s), got %zu\n", verb,
                 operands, cl.operands.size());
    return std::nullopt;
  }
  return cl;
}

/// Writes `text` to `path`. On failure, including a failed flush, prints
/// "luis VERB: cannot write PATH" and returns false; the verb exits 1.
bool write_output(const char* verb, const std::string& path,
                  const std::string& text) {
  std::ofstream os(path);
  os << text;
  os.close();
  if (os) return true;
  std::fprintf(stderr, "luis %s: cannot write %s\n", verb, path.c_str());
  return false;
}

/// Parses a --type value: the name of a format that executes, fixed point
/// with its word split in half; reports and returns nullopt otherwise.
std::optional<numrep::ConcreteType> type_or_die(const std::string& name) {
  std::string error;
  const auto fmt = numrep::parse_executable_format(name, &error);
  if (!fmt) {
    std::fprintf(stderr, "luis: %s\n", error.c_str());
    return std::nullopt;
  }
  return numrep::ConcreteType{*fmt, fmt->is_fixed() ? fmt->width() / 2 : 0};
}

/// Parses an --engine value; reports and returns nullopt on junk.
std::optional<interp::EngineKind> engine_or_die(const std::string& name) {
  const auto kind = interp::parse_engine(name);
  if (!kind)
    std::fprintf(stderr, "luis: unknown engine '%s' (want vm or ref)\n",
                 name.c_str());
  return kind;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

ir::Function* parse_or_die(ir::Module& module, const std::string& path) {
  const auto text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "luis: cannot read %s\n", path.c_str());
    return nullptr;
  }
  const ir::ParseResult parsed = ir::parse_function(module, *text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "luis: parse error in %s: %s\n", path.c_str(),
                 parsed.error.c_str());
    return nullptr;
  }
  return parsed.function;
}

/// Reads a saved (possibly hand-edited) type assignment for `f`; returns
/// nullopt (diagnostic printed, caller exits 1) when the file cannot be
/// read or does not parse.
std::optional<interp::TypeAssignment> assignment_or_die(
    const ir::Function& f, const std::string& path) {
  const auto text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "luis: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  core::AssignmentParseResult parsed = core::assignment_from_text(f, *text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "luis: %s: %s\n", path.c_str(), parsed.error.c_str());
    return std::nullopt;
  }
  return std::move(parsed.assignment);
}

/// Parses and verifies; returns nullptr (caller exits non-zero) when the
/// file does not parse or the IR is structurally broken.
ir::Function* parse_and_verify_or_die(ir::Module& module,
                                      const std::string& path) {
  ir::Function* f = parse_or_die(module, path);
  if (!f) return nullptr;
  const ir::VerifyResult vr = ir::verify(*f);
  if (!vr.ok()) {
    std::fputs(vr.message().c_str(), stderr);
    return nullptr;
  }
  return f;
}

/// Resolves --platform / --platform-file ("@path") / "host" to an op-time
/// table, using `storage` for tables that have to be built on the fly. On
/// failure prints a diagnostic, sets `exit_code` (1 for a table file that
/// cannot be read or is malformed, 2 for an unknown name) and returns
/// nullptr.
const platform::OpTimeTable* resolve_platform(const std::string& platform_name,
                                              platform::OpTimeTable& storage,
                                              int& exit_code) {
  exit_code = 2;
  const platform::OpTimeTable* table = platform::platform_by_name(platform_name);
  if (table) return table;
  if (platform_name == "host") {
    std::fprintf(stderr, "characterizing host...\n");
    storage = platform::run_microbenchmark();
    return &storage;
  }
  if (!platform_name.empty() && platform_name[0] == '@') {
    exit_code = 1;
    const auto text = read_file(platform_name.substr(1));
    if (!text) {
      std::fprintf(stderr, "luis: cannot read %s\n", platform_name.c_str() + 1);
      return nullptr;
    }
    platform::OpTimeParseResult parsed = platform::parse_optime_table(*text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "luis: %s:%d:%d: %s\n", platform_name.c_str() + 1,
                   parsed.line, parsed.column, parsed.error.c_str());
      return nullptr;
    }
    storage = std::move(parsed.table);
    return &storage;
  }
  std::fprintf(stderr, "luis: unknown platform '%s'\n", platform_name.c_str());
  return nullptr;
}

/// Applies a Table III preset by name, preserving flag-driven fields.
bool apply_config_preset(const std::string& config_name,
                         core::TuningConfig& config) {
  std::optional<core::TuningConfig> preset = core::preset_by_name(config_name);
  if (!preset) {
    std::fprintf(stderr, "luis: unknown config '%s'\n", config_name.c_str());
    return false;
  }
  preset->literal_model = config.literal_model;
  // Multi's whole point is its catalog-derived candidate set, so it
  // overrides --types instead of preserving it.
  if (config_name != "Multi") preset->types = std::move(config.types);
  config = std::move(*preset);
  return true;
}

/// Strict numeric flag value: the whole token must be a number of type T
/// (no whitespace, sign prefix or trailing junk) within [lo, hi]; NaN
/// never is. Otherwise prints "luis: FLAG wants WANT, got 'TEXT'" and
/// returns nullopt, and the caller exits 2.
template <typename T>
std::optional<T> parse_number_flag(const std::string& flag,
                                   const std::string& text, T lo, T hi,
                                   const char* want) {
  const std::optional<T> value = parse_number<T>(text);
  if (value && *value >= lo && *value <= hi) return value;
  std::fprintf(stderr, "luis: %s wants %s, got '%s'\n", flag.c_str(), want,
               text.c_str());
  return std::nullopt;
}

/// A finite number > 0: --vra-clamp and the --max-rel-error budget.
std::optional<double> parse_positive_flag(const std::string& flag,
                                          const std::string& text) {
  return parse_number_flag(flag, text,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           "a finite number > 0");
}

/// The VRA fixpoint knobs that tune, lint, check and sweep share.
const Flags kVraFlags = {"--vra-max-passes", "--vra-widen-after",
                         "--vra-clamp"};

/// Sets the VRA knob `flag` (one of kVraFlags) from `value`; false
/// (diagnostic printed) when the value is not a number in the knob's range.
bool set_vra_flag(const std::string& flag, const std::string& value,
                  vra::VraOptions& vra) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  if (flag == "--vra-max-passes") {
    const auto v = parse_number_flag(flag, value, 1, kIntMax, "an integer >= 1");
    if (v) vra.max_passes = *v;
    return v.has_value();
  }
  if (flag == "--vra-widen-after") {
    const auto v = parse_number_flag(flag, value, 0, kIntMax, "an integer >= 0");
    if (v) vra.widen_after = *v;
    return v.has_value();
  }
  const auto v = parse_positive_flag(flag, value);
  if (v) vra.clamp = *v;
  return v.has_value();
}

/// Parses a --types list into `config.types`; false on a format that is
/// unknown or cannot execute (the parser's diagnostics name the offending
/// token and point at `luis formats`) and on an empty list.
bool parse_types_list(const std::string& list, core::TuningConfig& config) {
  config.types.clear();
  for (const std::string& tok : split_fields(list, ',')) {
    std::string error;
    const auto fmt =
        numrep::parse_executable_format(std::string(trim(tok)), &error);
    if (!fmt) {
      std::fprintf(stderr, "luis: %s\n", error.c_str());
      return false;
    }
    config.types.push_back(*fmt);
  }
  if (config.types.empty()) {
    std::fprintf(stderr, "luis: --types wants at least one format\n");
    return false;
  }
  return true;
}

/// The flags tune, lint and check share, and what they set: the target
/// platform, the Table III preset, the candidate set, the model shape, IR
/// cleanup and the VRA knobs.
struct TuningFlags {
  static Flags with_value() {
    return kVraFlags +
           Flags{"--platform", "--platform-file", "--config", "--types"};
  }
  static Flags switches() {
    return {"--literal", "--optimize", "--join-stores"};
  }

  std::string platform = "Stm32"; ///< a name, or "@path" (--platform-file)
  std::string config_name = "Balanced";
  core::TuningConfig config = core::TuningConfig::balanced();
  core::PipelineOptions options;

  /// Applies one of the shared flags; false (diagnostic printed) on a bad
  /// value.
  bool set(const std::string& flag, const std::string& value) {
    if (flag == "--platform") platform = value;
    else if (flag == "--platform-file") platform = "@" + value;
    else if (flag == "--config") config_name = value;
    else if (flag == "--types") return parse_types_list(value, config);
    else if (flag == "--literal") config.literal_model = true;
    else if (flag == "--optimize") options.optimize_ir = true;
    else if (flag == "--join-stores") options.vra.join_stores = true;
    else return set_vra_flag(flag, value, options.vra);
    return true;
  }
};

/// Deterministic inputs for `run`: every array is filled from its range
/// annotation with a fixed-seed generator, so runs are reproducible.
interp::ArrayStore synth_inputs(const ir::Function& f) {
  interp::ArrayStore store;
  Rng rng(0xC0FFEE);
  for (const auto& arr : f.arrays()) {
    double lo = 0.0, hi = 1.0;
    if (arr->range_annotation()) {
      lo = arr->range_annotation()->first;
      hi = arr->range_annotation()->second;
    }
    auto& buf = store[arr->name()];
    for (std::int64_t i = 0; i < arr->element_count(); ++i)
      buf.push_back(rng.next_double(lo, hi));
  }
  return store;
}

void print_array_summary(const interp::ArrayStore& store) {
  for (const auto& [name, buf] : store) {
    double sum = 0.0, mn = buf.empty() ? 0 : buf[0], mx = mn;
    for (double v : buf) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    std::printf("  %-12s n=%-6zu sum=%-14.8g min=%-12.6g max=%-12.6g\n",
                name.c_str(), buf.size(), sum, mn, mx);
  }
}

int cmd_kernels(const std::vector<std::string>& args) {
  if (!parse_command_line("kernels", args, 0)) return 2;
  for (const std::string& name : polybench::kernel_names())
    std::printf("%s\n", name.c_str());
  return 0;
}

const char* format_class_label(numrep::FormatClass cls) {
  switch (cls) {
  case numrep::FormatClass::FixedPoint: return "fixed";
  case numrep::FormatClass::FloatingPoint: return "float";
  case numrep::FormatClass::Posit: return "posit";
  case numrep::FormatClass::FixedPosit: return "fixed-posit";
  }
  LUIS_UNREACHABLE("unknown format class");
}

int cmd_formats(const std::vector<std::string>& args) {
  if (!parse_command_line("formats", args, 0)) return 2;
  std::printf("%-16s %-11s %5s %4s %-8s %13s %13s\n", "name", "class", "width",
              "exec", "cost", "max", "minpos");
  for (const numrep::NumericFormat& f : numrep::standard_formats()) {
    const numrep::FormatClassOps& ops = numrep::format_ops(f);
    // Fixed point's range depends on the per-variable fractional split;
    // report the integer-only layout (frac = 0) for it.
    const numrep::ConcreteType t{f, 0};
    std::printf("%-16s %-11s %5d %4s %-8s %13.6g %13.6g\n", f.name().c_str(),
                format_class_label(f.format_class()), f.width(),
                ops.executable(f) ? "yes" : "no", ops.cost_class(f).c_str(),
                ops.max_value(t), ops.min_positive(t));
  }
  return 0;
}

int cmd_emit(const std::vector<std::string>& args) {
  const auto cl = parse_command_line("emit", args, 1, {"-o"});
  if (!cl) return 2;
  const std::string& name = cl->operands[0];
  const auto names = polybench::kernel_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    std::fprintf(stderr,
                 "luis emit: unknown kernel '%s' (see `luis kernels`)\n",
                 name.c_str());
    return 2;
  }
  std::string out_path;
  for (const auto& [flag, value] : cl->options) out_path = value;
  ir::Module module;
  polybench::BuiltKernel kernel = polybench::build_kernel(name, module);
  const std::string text = ir::print_function(*kernel.function);
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    if (!write_output("emit", out_path, text)) return 1;
    std::printf("wrote %s (%zu instructions)\n", out_path.c_str(),
                kernel.function->instruction_count());
  }
  return 0;
}

int cmd_print(const std::vector<std::string>& args) {
  if (!parse_command_line("print", args, 1)) return 2;
  ir::Module module;
  ir::Function* f = parse_or_die(module, args[0]);
  if (!f) return 1;
  // Print even when broken (the text is the debugging aid), but report the
  // problems and fail so scripted use catches them.
  std::fputs(ir::print_function(*f).c_str(), stdout);
  const ir::VerifyResult vr = ir::verify(*f);
  if (!vr.ok()) {
    std::fputs(vr.message().c_str(), stderr);
    return 1;
  }
  return 0;
}

int cmd_verify(const std::vector<std::string>& args) {
  if (!parse_command_line("verify", args, 1)) return 2;
  ir::Module module;
  ir::Function* f = parse_or_die(module, args[0]);
  if (!f) return 1;
  const ir::VerifyResult vr = ir::verify(*f);
  if (vr.ok()) {
    std::printf("%s: OK (%zu blocks, %zu instructions, %zu arrays)\n",
                f->name().c_str(), f->blocks().size(), f->instruction_count(),
                f->arrays().size());
    return 0;
  }
  std::fputs(vr.message().c_str(), stderr);
  return 1;
}

int cmd_ranges(const std::vector<std::string>& args) {
  if (!parse_command_line("ranges", args, 1)) return 2;
  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, args[0]);
  if (!f) return 1;
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const auto ids = ir::number_instructions(*f);
  for (const auto& arr : f->arrays())
    std::printf("@%-10s %s\n", arr->name().c_str(),
                ranges.of(arr.get()).to_string().c_str());
  for (const auto& bb : f->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->type() == ir::ScalarType::Real)
        std::printf("%%%-10d %s\n", ids.at(inst.get()),
                    ranges.of(inst.get()).to_string().c_str());
  return 0;
}

int cmd_tune(const std::vector<std::string>& args) {
  const auto cl = parse_command_line(
      "tune", args, 1,
      TuningFlags::with_value() + Flags{"-o", "--save-assignment"},
      TuningFlags::switches() + Flags{"--lint=warn", "--lint=error"});
  if (!cl) return 2;
  std::string out_path, assignment_path;
  TuningFlags tuning;
  core::TuningConfig& config = tuning.config;
  core::PipelineOptions& options = tuning.options;
  for (const auto& [flag, value] : cl->options) {
    if (flag == "-o") {
      out_path = value;
      options.materialize_casts = true;
    } else if (flag == "--save-assignment") {
      assignment_path = value;
    } else if (flag == "--lint=warn") {
      options.lint = core::LintMode::Warn;
    } else if (flag == "--lint=error") {
      options.lint = core::LintMode::Error;
    } else if (!tuning.set(flag, value)) {
      return 2;
    }
  }
  if (!apply_config_preset(tuning.config_name, config)) return 2;

  platform::OpTimeTable storage;
  int exit_code = 0;
  const platform::OpTimeTable* table =
      resolve_platform(tuning.platform, storage, exit_code);
  if (!table) return exit_code;

  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, cl->operands[0]);
  if (!f) return 1;

  const core::PipelineResult tuned =
      core::tune_kernel(*f, *table, config, options);
  std::printf("pipeline: %d IR rewrites, VRA %.2f ms, allocation %.2f ms "
              "(%zu vars x %zu rows, %ld nodes, %s)\n",
              tuned.ir_changes, tuned.timings.vra_seconds * 1e3,
              tuned.timings.allocation_seconds * 1e3,
              tuned.allocation.stats.model_variables,
              tuned.allocation.stats.model_constraints,
              tuned.allocation.stats.nodes,
              ilp::to_string(tuned.allocation.stats.status));
  std::printf("classes: %d over %d registers, %d uses; casts inserted: %d\n",
              tuned.allocation.stats.num_classes,
              tuned.allocation.stats.num_registers,
              tuned.allocation.stats.num_uses, tuned.casts_inserted);
  std::printf("instruction mix:");
  for (const auto& [cls, count] : tuned.allocation.stats.instruction_mix)
    std::printf(" %s=%d", cls.c_str(), count);
  std::printf("\narray types:\n");
  for (const auto& arr : f->arrays())
    std::printf("  @%-10s %s\n", arr->name().c_str(),
                tuned.allocation.assignment.of(arr.get()).name().c_str());

  if (!assignment_path.empty()) {
    const std::string text =
        core::assignment_to_text(*f, tuned.allocation.assignment);
    if (!write_output("tune", assignment_path, text)) return 1;
    std::printf("wrote type assignment to %s\n", assignment_path.c_str());
  }
  if (!out_path.empty()) {
    if (!write_output("tune", out_path, ir::print_function(*f))) return 1;
    std::printf("wrote tuned IR (explicit casts) to %s\n", out_path.c_str());
  }
  if (options.lint != core::LintMode::Off) {
    std::printf("lint: %.2f ms\n%s", tuned.timings.lint_seconds * 1e3,
                tuned.lint.to_text().c_str());
    if (!tuned.lint_ok) {
      std::fprintf(stderr, "luis: lint found error-severity diagnostics\n");
      return 1;
    }
  }
  return 0;
}

int cmd_lint(const std::vector<std::string>& args) {
  const auto cl = parse_command_line(
      "lint", args, 1,
      TuningFlags::with_value() +
          Flags{"--assignment", "--format", "--threshold", "--max-rel-error"},
      TuningFlags::switches() + Flags{"--materialize", "--werror"});
  if (!cl) return 2;
  std::string assignment_path, format = "text";
  bool materialize = false, werror = false;
  TuningFlags tuning;
  core::PipelineOptions& options = tuning.options;
  analysis::LintOptions lint_options;
  for (const auto& [flag, value] : cl->options) {
    if (flag == "--materialize") {
      materialize = true;
    } else if (flag == "--assignment") {
      assignment_path = value;
    } else if (flag == "--format") {
      format = value;
    } else if (flag == "--threshold") {
      const auto v = parse_number_flag(flag, value, 0,
                                       std::numeric_limits<int>::max(),
                                       "an integer >= 0");
      if (!v) return 2;
      lint_options.precision_loss_threshold = *v;
    } else if (flag == "--max-rel-error") {
      const auto v = parse_positive_flag(flag, value);
      if (!v) return 2;
      lint_options.max_rel_error = *v;
    } else if (flag == "--werror") {
      werror = true;
    } else if (!tuning.set(flag, value)) {
      return 2;
    }
  }
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "luis: unknown lint format '%s'\n", format.c_str());
    return 2;
  }
  if (!apply_config_preset(tuning.config_name, tuning.config)) return 2;

  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, cl->operands[0]);
  if (!f) return 1;

  analysis::DiagnosticEngine engine;
  if (!assignment_path.empty()) {
    // Lint a saved (possibly hand-edited) assignment against this IR.
    const auto assignment = assignment_or_die(*f, assignment_path);
    if (!assignment) return 1;
    const vra::RangeMap ranges = vra::analyze_ranges(*f, options.vra);
    const analysis::ErrorAnalysisResult errors =
        analysis::analyze_errors(*f, *assignment, ranges);
    engine = analysis::run_lint(*f, *assignment, ranges, lint_options,
                                &errors.errors);
  } else {
    platform::OpTimeTable storage;
    int exit_code = 0;
    const platform::OpTimeTable* table =
        resolve_platform(tuning.platform, storage, exit_code);
    if (!table) return exit_code;
    options.materialize_casts = materialize;
    options.lint = core::LintMode::Error;
    options.lint_options = lint_options;
    options.analyze_errors = true;
    const core::PipelineResult tuned =
        core::tune_kernel(*f, *table, tuning.config, options);
    engine = tuned.lint;
  }

  std::fputs(format == "json" ? engine.to_json().c_str()
                              : engine.to_text().c_str(),
             stdout);
  if (engine.has_errors() || (werror && engine.has_warnings())) return 1;
  return 0;
}

/// `luis check`: static rounding-error certification. Runs the pipeline
/// (or loads a saved assignment), then the error-bound analysis, and
/// reports a certified worst-case absolute/relative bound per array. With
/// --max-rel-error the exit status enforces the budget on output arrays.
int cmd_check(const std::vector<std::string>& args) {
  const auto cl = parse_command_line(
      "check", args, 1,
      TuningFlags::with_value() +
          Flags{"--assignment", "--max-rel-error", "--format", "--json"},
      TuningFlags::switches());
  if (!cl) return 2;
  std::string assignment_path, json_path, format = "text";
  double max_rel_error = std::numeric_limits<double>::infinity();
  TuningFlags tuning;
  const core::TuningConfig& config = tuning.config;
  core::PipelineOptions& options = tuning.options;
  for (const auto& [flag, value] : cl->options) {
    if (flag == "--assignment") {
      assignment_path = value;
    } else if (flag == "--max-rel-error") {
      const auto v = parse_positive_flag(flag, value);
      if (!v) return 2;
      max_rel_error = *v;
    } else if (flag == "--format") {
      format = value;
    } else if (flag == "--json") {
      json_path = value;
    } else if (!tuning.set(flag, value)) {
      return 2;
    }
  }
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "luis: unknown check format '%s'\n", format.c_str());
    return 2;
  }
  if (!apply_config_preset(tuning.config_name, tuning.config)) return 2;

  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, cl->operands[0]);
  if (!f) return 1;

  interp::TypeAssignment assignment;
  vra::RangeMap ranges;
  analysis::ErrorAnalysisResult errors;
  std::string source = "pipeline";
  if (!assignment_path.empty()) {
    source = "assignment";
    auto loaded = assignment_or_die(*f, assignment_path);
    if (!loaded) return 1;
    assignment = std::move(*loaded);
    ranges = vra::analyze_ranges(*f, options.vra);
    errors = analysis::analyze_errors(*f, assignment, ranges);
  } else {
    platform::OpTimeTable storage;
    int exit_code = 0;
    const platform::OpTimeTable* table =
        resolve_platform(tuning.platform, storage, exit_code);
    if (!table) return exit_code;
    options.analyze_errors = true;
    const core::PipelineResult tuned =
        core::tune_kernel(*f, *table, config, options);
    assignment = tuned.allocation.assignment;
    ranges = tuned.ranges;
    errors = tuned.errors;
  }

  // The caller observes the arrays the kernel writes; those are the
  // values the certificate (and the budget) is about.
  std::set<const ir::Value*> outputs;
  for (const auto& bb : f->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->opcode() == ir::Opcode::Store)
        outputs.insert(inst->operand(1));

  double worst_rel = 0.0;
  bool all_outputs_finite = true, budget_ok = true;
  for (const auto& arr : f->arrays()) {
    if (outputs.count(arr.get()) == 0) continue;
    const double abs = errors.errors.of(arr.get());
    const double rel = errors.relative(arr.get(), ranges);
    worst_rel = std::max(worst_rel, rel);
    if (!std::isfinite(abs)) all_outputs_finite = false;
    if (rel > max_rel_error) budget_ok = false;
  }

  const auto error_value = [](JsonWriter& w, double v) {
    if (std::isfinite(v)) w.value(v, "%.17g");
    else w.value("unbounded");
  };
  JsonWriter w;
  w.begin_object();
  w.newline();
  w.key("build");
  w.raw_value(obs::build_info_json());
  w.newline();
  w.key("function");
  w.value(f->name());
  w.key("source");
  w.value(source);
  w.key("config");
  w.value(config.name);
  w.newline();
  w.key("vra");
  w.begin_object();
  w.key("max_passes");
  w.value(options.vra.max_passes);
  w.key("widen_after");
  w.value(options.vra.widen_after);
  w.key("clamp");
  w.value(options.vra.clamp, "%.17g");
  w.key("join_stores");
  w.value(options.vra.join_stores);
  w.end_object();
  w.newline();
  w.key("error_analysis");
  w.begin_object();
  w.key("passes");
  w.value(errors.stats.passes);
  w.key("transfers");
  w.value(errors.stats.transfers);
  w.key("widenings");
  w.value(errors.stats.widenings);
  w.key("converged");
  w.value(errors.stats.converged);
  w.key("divergent_control");
  w.value(errors.divergent_control);
  w.key("capped_bounds");
  w.value(errors.capped_bounds);
  w.key("assumes_finite_run");
  w.value(errors.assumes_finite_run);
  w.end_object();
  w.newline();
  w.key("max_rel_error");
  if (std::isfinite(max_rel_error)) w.value(max_rel_error, "%.17g");
  else w.raw_value("null");
  w.newline();
  w.key("arrays");
  w.begin_array();
  for (const auto& arr : f->arrays()) {
    const vra::Interval range = ranges.of(arr.get());
    w.newline();
    w.indent(2);
    w.begin_object();
    w.key("name");
    w.value(arr->name());
    w.key("type");
    w.value(assignment.of(arr.get()).name());
    w.key("output");
    w.value(outputs.count(arr.get()) > 0);
    w.key("lo");
    w.value(range.lo, "%.17g");
    w.key("hi");
    w.value(range.hi, "%.17g");
    w.key("abs_error");
    error_value(w, errors.errors.of(arr.get()));
    w.key("rel_error");
    error_value(w, errors.relative(arr.get(), ranges));
    w.end_object();
  }
  w.newline();
  w.end_array();
  w.newline();
  w.key("worst_output_rel_error");
  error_value(w, worst_rel);
  w.key("certified");
  w.value(all_outputs_finite);
  w.key("budget_ok");
  w.value(budget_ok);
  w.newline();
  w.end_object();
  w.newline();

  if (format == "json") {
    std::fputs(w.str().c_str(), stdout);
  } else {
    std::printf("check: %s (%s, %s), error analysis %s in %d passes "
                "(%ld widenings)%s%s\n",
                f->name().c_str(), source.c_str(), config.name.c_str(),
                errors.stats.converged ? "converged" : "NOT CONVERGED",
                errors.stats.passes, errors.stats.widenings,
                errors.divergent_control ? ", divergent control flow" : "",
                errors.assumes_finite_run ? ", assumes finite run" : "");
    if (errors.capped_bounds > 0)
      std::printf("  %ld bound(s) saturated at the representation cap\n",
                  errors.capped_bounds);
    for (const auto& arr : f->arrays()) {
      const vra::Interval range = ranges.of(arr.get());
      std::printf("  @%-10s %-14s range [%-11.6g, %-11.6g] abs %-12.6g "
                  "rel %-12.6g%s\n",
                  arr->name().c_str(),
                  assignment.of(arr.get()).name().c_str(), range.lo, range.hi,
                  errors.errors.of(arr.get()),
                  errors.relative(arr.get(), ranges),
                  outputs.count(arr.get()) ? "  (output)" : "");
    }
    std::printf("worst output rel error: %g%s\n", worst_rel,
                all_outputs_finite ? "" : " (UNBOUNDED)");
  }

  if (!json_path.empty()) {
    if (!write_output("check", json_path, w.str())) return 1;
    if (format != "json") std::printf("wrote %s\n", json_path.c_str());
  }

  if (!budget_ok) {
    std::fprintf(stderr,
                 "luis check: certified relative error %g exceeds budget %g\n",
                 worst_rel, max_rel_error);
    return 1;
  }
  return 0;
}

int cmd_apply(const std::vector<std::string>& args) {
  const auto cl = parse_command_line("apply", args, 2, {"--engine"});
  if (!cl) return 2;
  const std::string& types_path = cl->operands[1];
  interp::EngineKind engine_kind = interp::EngineKind::Vm;
  for (const auto& [flag, value] : cl->options) {
    const auto kind = engine_or_die(value);
    if (!kind) return 2;
    engine_kind = *kind;
  }
  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, cl->operands[0]);
  if (!f) return 1;
  const auto assignment = assignment_or_die(*f, types_path);
  if (!assignment) return 1;
  interp::ArrayStore store = synth_inputs(*f);
  const auto engine = interp::make_engine(engine_kind);
  const interp::RunResult run = engine->run(*f, *assignment, store);
  if (!run.ok) {
    std::fprintf(stderr, "luis: execution failed: %s\n", run.error.c_str());
    return 1;
  }
  std::printf("executed %ld steps under the saved assignment\n", run.steps);
  print_array_summary(store);
  return 0;
}

int cmd_run(const std::vector<std::string>& args) {
  const auto cl = parse_command_line("run", args, 1, {"--type", "--engine"});
  if (!cl) return 2;
  numrep::ConcreteType type{numrep::kBinary64, 0};
  interp::EngineKind engine_kind = interp::EngineKind::Vm;
  for (const auto& [flag, value] : cl->options) {
    if (flag == "--type") {
      const auto t = type_or_die(value);
      if (!t) return 2;
      type = *t;
    } else {
      const auto kind = engine_or_die(value);
      if (!kind) return 2;
      engine_kind = *kind;
    }
  }
  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, cl->operands[0]);
  if (!f) return 1;
  interp::ArrayStore store = synth_inputs(*f);
  const interp::TypeAssignment types = interp::TypeAssignment::uniform(*f, type);
  const auto engine = interp::make_engine(engine_kind);
  const interp::RunResult run = engine->run(*f, types, store);
  if (!run.ok) {
    std::fprintf(stderr, "luis: execution failed: %s\n", run.error.c_str());
    return 1;
  }
  std::printf("executed %ld steps (%ld real ops) in %s\n", run.steps,
              run.counters.total_real_ops(), type.name().c_str());
  print_array_summary(store);
  return 0;
}

int cmd_disasm(const std::vector<std::string>& args) {
  const auto cl = parse_command_line("disasm", args, 1, {"--type"});
  if (!cl) return 2;
  numrep::ConcreteType type{numrep::kBinary64, 0};
  for (const auto& [flag, value] : cl->options) {
    const auto t = type_or_die(value);
    if (!t) return 2;
    type = *t;
  }
  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, cl->operands[0]);
  if (!f) return 1;
  const interp::TypeAssignment types = interp::TypeAssignment::uniform(*f, type);
  const interp::CompiledProgram program = interp::compile_program(*f, types);
  std::fputs(interp::disassemble(program).c_str(), stdout);
  return 0;
}

int cmd_compile(const std::vector<std::string>& args) {
  const auto cl = parse_command_line("compile", args, 1, {"-o"});
  if (!cl) return 2;
  const std::string& path = cl->operands[0];
  std::string out_path;
  for (const auto& [flag, value] : cl->options) out_path = value;
  const auto source = read_file(path);
  if (!source) {
    std::fprintf(stderr, "luis: cannot read %s\n", path.c_str());
    return 1;
  }
  ir::Module module;
  const frontend::CompileResult r = frontend::compile_kernel(module, *source);
  if (!r.ok()) {
    std::fprintf(stderr, "luis: %s:%d:%d: %s\n", path.c_str(), r.line,
                 r.column, r.error.c_str());
    return 1;
  }
  const ir::VerifyResult vr = ir::verify(*r.function);
  if (!vr.ok()) {
    std::fputs(vr.message().c_str(), stderr);
    return 1;
  }
  const std::string text = ir::print_function(*r.function);
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    if (!write_output("compile", out_path, text)) return 1;
    std::printf("compiled %s -> %s (%zu instructions)\n", path.c_str(),
                out_path.c_str(), r.function->instruction_count());
  }
  return 0;
}

int cmd_characterize(const std::vector<std::string>& args) {
  const auto cl = parse_command_line("characterize", args, 0, {"-o"});
  if (!cl) return 2;
  std::string out_path;
  for (const auto& [flag, value] : cl->options) out_path = value;
  const platform::OpTimeTable host = platform::run_microbenchmark();
  if (!out_path.empty()) {
    if (!write_output("characterize", out_path, host.to_text())) return 1;
    std::printf("wrote characterization to %s\n", out_path.c_str());
    return 0;
  }
  for (const auto& [key, time] : host.entries())
    std::printf("%-12s %-8s %8.2f\n", key.first.c_str(), key.second.c_str(),
                time);
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args) {
  core::SweepOptions opt;
  opt.verbose = true; // --quiet turns the progress lines off
  const auto cl = parse_command_line(
      "sweep", args, 0,
      kVraFlags + Flags{"--kernels", "--configs", "--platforms", "--threads",
                        "--max-nodes", "--engine", "--json"},
      {"--no-taffo", "--no-check", "--errors", "--join-stores", "--quiet"});
  if (!cl) return 2;
  std::string json_path;
  for (const auto& [a, value] : cl->options) {
    if (a == "--kernels" || a == "--configs" || a == "--platforms") {
      std::vector<std::string>& names = a == "--kernels"   ? opt.kernels
                                        : a == "--configs" ? opt.configs
                                                           : opt.platforms;
      names = split_fields(value, ',');
      // An empty list would silently select the whole default set.
      if (names.empty()) {
        std::fprintf(stderr, "luis sweep: %s wants at least one name\n",
                     a.c_str());
        return 2;
      }
    } else if (a == "--threads") {
      const auto v = parse_number_flag(a, value, 0,
                                       std::numeric_limits<int>::max(),
                                       "an integer >= 0");
      if (!v) return 2;
      opt.threads = *v;
    } else if (a == "--max-nodes") {
      const auto v = parse_number_flag(a, value, 1L,
                                       std::numeric_limits<long>::max(),
                                       "an integer >= 1");
      if (!v) return 2;
      opt.solver_max_nodes = *v;
    } else if (a == "--no-taffo") {
      opt.include_taffo = false;
    } else if (a == "--engine") {
      opt.engine = value;
      if (!engine_or_die(opt.engine)) return 2;
    } else if (a == "--no-check") {
      opt.check_determinism = false;
    } else if (a == "--errors") {
      opt.errors = true;
    } else if (a == "--json") {
      json_path = value;
    } else if (a == "--join-stores") {
      opt.vra.join_stores = true;
    } else if (a == "--quiet") {
      opt.verbose = false;
    } else if (!set_vra_flag(a, value, opt.vra)) {
      return 2;
    }
  }
  const std::string invalid = core::sweep_options_error(opt);
  if (!invalid.empty()) {
    std::fprintf(stderr, "luis sweep: %s\n", invalid.c_str());
    return 2;
  }
  const core::SweepResult result = core::run_sweep(opt);

  std::printf("%-14s %-9s %-10s %10s %10s %9s %6s%s\n", "kernel", "config",
              "platform", "speedup%", "mpe%", "tune[ms]", "nodes",
              opt.errors ? "   shadow-mpe%    max-rel  div" : "");
  for (const core::SweepJobResult& job : result.jobs) {
    if (!job.ok) {
      std::printf("%-14s %-9s %-10s FAILED: %s\n", job.kernel.c_str(),
                  job.config.c_str(), job.platform.c_str(), job.error.c_str());
      continue;
    }
    std::printf("%-14s %-9s %-10s %10.2f %10.3g %9.2f %6ld",
                job.kernel.c_str(), job.config.c_str(), job.platform.c_str(),
                job.speedup_percent, job.mpe,
                job.timings.allocation_seconds * 1e3, job.stats.nodes);
    if (job.errors_profiled)
      std::printf(" %12.3g %10.3g %4ld", job.shadow_mpe, job.max_rel_error,
                  job.control_divergences);
    std::printf("\n");
  }
  std::printf("\n%s", core::sweep_summary_text(result).c_str());

  if (!json_path.empty()) {
    if (!write_output("sweep", json_path, core::sweep_report_json(result)))
      return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (result.stats.failed > 0) return 1;
  if (result.stats.determinism_mismatches > 0) return 1;
  return 0;
}

int cmd_fuzz(const std::vector<std::string>& args) {
  testing::CampaignOptions opt;
  opt.artifacts_dir = "fuzz-artifacts";
  opt.verbose = true;
  std::string corpus_dir;
  const auto cl = parse_command_line(
      "fuzz", args, 0,
      {"--target", "--trials", "--seconds", "--seed", "--artifacts",
       "--corpus", "--engine"},
      {"--quiet"});
  if (!cl) return 2;
  for (const auto& [a, value] : cl->options) {
    if (a == "--target") {
      const std::string& target = value;
      if (target == "ilp") {
        opt.targets = {testing::FuzzTarget::Ilp};
      } else if (target == "ir") {
        opt.targets = {testing::FuzzTarget::Ir};
      } else if (target == "numrep") {
        opt.targets = {testing::FuzzTarget::Numrep};
      } else if (target == "error") {
        opt.targets = {testing::FuzzTarget::ErrorBounds};
      } else if (target != "all") {
        std::fprintf(stderr, "luis fuzz: unknown target '%s'\n", target.c_str());
        return 2;
      }
    } else if (a == "--trials") {
      const auto v = parse_number_flag(a, value, 0L,
                                       std::numeric_limits<long>::max(),
                                       "an integer >= 0");
      if (!v) return 2;
      opt.trials = *v;
    } else if (a == "--seconds") {
      const auto v = parse_number_flag(a, value, 0.0,
                                       std::numeric_limits<double>::max(),
                                       "a finite number >= 0");
      if (!v) return 2;
      opt.seconds = *v;
    } else if (a == "--seed") {
      const auto v = parse_number_flag(
          a, value, std::uint64_t{0},
          std::numeric_limits<std::uint64_t>::max(), "a decimal integer >= 0");
      if (!v) return 2;
      opt.seed = *v;
    } else if (a == "--artifacts") {
      opt.artifacts_dir = value;
    } else if (a == "--corpus") {
      corpus_dir = value;
    } else if (a == "--engine") {
      const auto kind = engine_or_die(value);
      if (!kind) return 2;
      opt.engine = *kind;
    } else {
      opt.verbose = false; // --quiet
    }
  }

  int failures = 0;
  if (!corpus_dir.empty()) {
    const testing::CorpusResult corpus =
        testing::replay_corpus(corpus_dir, opt.engine);
    if (!corpus.error.empty()) {
      std::fprintf(stderr, "luis fuzz: %s\n", corpus.error.c_str());
      return 1;
    }
    for (const auto& entry : corpus.entries) {
      if (entry.result.ok) continue;
      ++failures;
      std::printf("corpus FAIL %s: %s\n", entry.path.c_str(),
                  entry.result.message.c_str());
    }
    std::printf("corpus: %zu seed files, %d failing\n", corpus.entries.size(),
                failures);
  }

  const testing::CampaignResult result = testing::run_campaign(opt);
  std::printf("fuzz: %ld trials/target over %zu targets, %zu failures\n",
              result.trials, opt.targets.size(), result.failures.size());
  for (const testing::FuzzFailure& f : result.failures) {
    std::printf("FAIL [%s] seed %016llx: %s\n", testing::to_string(f.target),
                static_cast<unsigned long long>(f.seed), f.message.c_str());
    if (!f.artifact_path.empty())
      std::printf("  minimized repro written to %s\n", f.artifact_path.c_str());
  }
  return failures == 0 && result.ok() ? 0 : 1;
}

int cmd_profile(const std::vector<std::string>& args) {
  const auto cl = parse_command_line(
      "profile", args, 1,
      {"--platform", "--platform-file", "--type", "--assignment", "--top",
       "--json"},
      {"--errors"});
  if (!cl) return 2;
  std::string platform_name = "Stm32", assignment_path, json_path;
  numrep::ConcreteType type{numrep::kBinary64, 0};
  std::size_t top = 20;
  bool with_errors = false;
  for (const auto& [a, value] : cl->options) {
    if (a == "--platform") {
      platform_name = value;
    } else if (a == "--platform-file") {
      platform_name = "@" + value;
    } else if (a == "--type") {
      const auto t = type_or_die(value);
      if (!t) return 2;
      type = *t;
    } else if (a == "--assignment") {
      assignment_path = value;
    } else if (a == "--top") {
      const auto v = parse_number_flag(a, value, std::size_t{0},
                                       std::numeric_limits<std::size_t>::max(),
                                       "an integer >= 0");
      if (!v) return 2;
      top = *v;
    } else if (a == "--json") {
      json_path = value;
    } else {
      with_errors = true; // --errors
    }
  }

  platform::OpTimeTable storage;
  int platform_status = 0;
  const platform::OpTimeTable* table =
      resolve_platform(platform_name, storage, platform_status);
  if (!table) return platform_status;

  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, cl->operands[0]);
  if (!f) return 1;

  interp::TypeAssignment types = interp::TypeAssignment::uniform(*f, type);
  if (!assignment_path.empty()) {
    auto loaded = assignment_or_die(*f, assignment_path);
    if (!loaded) return 1;
    types = std::move(*loaded);
  }

  const interp::CompiledProgram program = interp::compile_program(*f, types);
  interp::ArrayStore store = synth_inputs(*f);
  interp::VmProfile profile;
  interp::ErrorProfile errors;
  interp::RunOptions ropt;
  ropt.vm_profile = &profile;
  if (with_errors) ropt.error_profile = &errors;
  const interp::RunResult run = interp::run_program(program, *f, store, ropt);
  if (!run.ok) {
    std::fprintf(stderr, "luis: execution failed: %s\n", run.error.c_str());
    return 1;
  }

  const obs::HotSpotReport report =
      obs::build_hotspot_report(program, *f, profile, *table);
  std::fputs(obs::hotspot_text(report, top).c_str(), stdout);

  // The report's attribution is exact by construction; cross-check it
  // against the cost model so a drift between the two is loud, not silent.
  const double simulated = platform::simulated_time(run.counters, *table);
  const double drift = std::abs(report.total_cost - simulated);
  if (drift > 1e-9 * std::max(1.0, std::abs(simulated))) {
    std::fprintf(stderr,
                 "luis profile: attribution drift: report %.17g vs "
                 "simulated %.17g\n",
                 report.total_cost, simulated);
    return 1;
  }

  int exit_code = 0;
  std::string json_doc = obs::hotspot_json(report);
  if (with_errors) {
    // The per-line error table, priced next to the time table: same
    // ordinals, so the two reports line up row for row.
    const obs::ErrorReport erep = obs::build_error_report(program, *f, errors);
    std::fputs(obs::error_report_text(erep, top).c_str(), stdout);
    const analysis::CertificateCrossCheck cert =
        analysis::cross_check_certificates(*f, types, errors.arrays,
                                           errors.control_divergences);
    std::fputs(analysis::certificate_check_text(cert).c_str(), stdout);
    if (cert.any_violation) exit_code = 1;
    JsonWriter w;
    w.begin_object();
    w.newline();
    w.key("hotspots");
    w.raw_value(json_doc);
    w.key("errors");
    w.raw_value(obs::error_report_json(erep));
    w.key("certificate_check");
    w.raw_value(analysis::certificate_check_json(cert));
    w.newline();
    w.end_object();
    w.newline();
    json_doc = w.take();
  }

  if (!json_path.empty()) {
    if (!write_output("profile", json_path, json_doc)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return exit_code;
}

int cmd_version(const std::vector<std::string>& args) {
  if (!parse_command_line("version", args, 0)) return 2;
  std::printf("%s\n", obs::version_string().c_str());
  return 0;
}

/// Extracts the process-global observability flags (usable with any verb)
/// from the raw argument list, leaving the verb and its own options in
/// `rest`. Returns false (after reporting) on a malformed value.
bool extract_global_flags(const std::vector<std::string>& all,
                          std::vector<std::string>& rest,
                          std::string& trace_path, std::string& metrics_path) {
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string& a = all[i];
    auto value_of = [&](const char* flag, std::string& out) {
      const std::string eq = std::string(flag) + "=";
      if (a.compare(0, eq.size(), eq) == 0) {
        out = a.substr(eq.size());
        return true;
      }
      if (a == flag && i + 1 < all.size()) {
        out = all[++i];
        return true;
      }
      return false;
    };
    std::string level;
    if (value_of("--trace-out", trace_path)) continue;
    if (value_of("--metrics-out", metrics_path)) continue;
    if (value_of("--log-level", level)) {
      const auto parsed = parse_log_level(level);
      if (!parsed) {
        std::fprintf(stderr,
                     "luis: unknown log level '%s' (want error|warn|info|"
                     "debug)\n",
                     level.c_str());
        return false;
      }
      set_log_level(*parsed);
      continue;
    }
    rest.push_back(a);
  }
  return true;
}

int run_command(const std::string& cmd, const std::vector<std::string>& args) {
  if (cmd == "kernels") return cmd_kernels(args);
  if (cmd == "formats") return cmd_formats(args);
  if (cmd == "emit") return cmd_emit(args);
  if (cmd == "print") return cmd_print(args);
  if (cmd == "verify") return cmd_verify(args);
  if (cmd == "ranges") return cmd_ranges(args);
  if (cmd == "tune") return cmd_tune(args);
  if (cmd == "lint") return cmd_lint(args);
  if (cmd == "check") return cmd_check(args);
  if (cmd == "run") return cmd_run(args);
  if (cmd == "disasm") return cmd_disasm(args);
  if (cmd == "compile") return cmd_compile(args);
  if (cmd == "apply") return cmd_apply(args);
  if (cmd == "characterize") return cmd_characterize(args);
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "fuzz") return cmd_fuzz(args);
  if (cmd == "profile") return cmd_profile(args);
  if (cmd == "version") return cmd_version(args);
  return usage();
}

} // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> all(argv + 1, argv + argc);
  std::vector<std::string> rest;
  std::string trace_path, metrics_path;
  if (!extract_global_flags(all, rest, trace_path, metrics_path)) return 2;
  if (rest.empty()) return usage();
  const std::string cmd = rest[0];
  const std::vector<std::string> args(rest.begin() + 1, rest.end());

  if (!trace_path.empty()) obs::trace().start();
  const int rc = run_command(cmd, args);

  if (!trace_path.empty()) {
    obs::trace().stop();
    if (!obs::trace().write_file(trace_path)) {
      std::fprintf(stderr, "luis: cannot write trace to %s\n",
                   trace_path.c_str());
      return rc != 0 ? rc : 1;
    }
    std::fprintf(stderr, "luis: wrote %zu trace events to %s\n",
                 obs::trace().event_count(), trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    if (!write_output("--metrics-out", metrics_path, obs::metrics().to_json()))
      return rc != 0 ? rc : 1;
    std::fprintf(stderr, "luis: wrote metrics to %s\n", metrics_path.c_str());
  }
  return rc;
}
