// Property-based differential testing and fuzzing harness.
//
// The solver, IR, and quantization layers each get a generator/oracle pair
// (see ilp_fuzz.hpp, ir_fuzz.hpp, numrep_fuzz.hpp); this header is the
// campaign driver that ties them together. A campaign is a seeded,
// fully deterministic loop: trial i of a campaign with base seed S checks
// the instance generated from derive_seed(S, i), so any failure is
// reproducible from the (target, seed) pair alone. Failing instances are
// greedily shrunk to a minimal repro and written as an artifact file
// (.lp for solver models, .ir for IR programs) that replay_corpus can
// re-check — the workflow CI uses to turn a red fuzz job into a
// checked-in regression seed under tests/corpus/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/engine.hpp"
#include "support/rng.hpp"

namespace luis::testing {

/// Outcome of one property check. `ok == false` carries a human-readable
/// description of which oracle disagreed and how.
struct CheckResult {
  bool ok = true;
  std::string message;

  static CheckResult pass() { return {}; }
  static CheckResult fail(std::string message) { return {false, std::move(message)}; }
};

enum class FuzzTarget { Ilp, Ir, Numrep, ErrorBounds };

const char* to_string(FuzzTarget target);

/// Per-trial seed: decorrelates trial indices under one campaign seed.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t trial);

struct CampaignOptions {
  std::vector<FuzzTarget> targets = {FuzzTarget::Ilp, FuzzTarget::Ir,
                                     FuzzTarget::Numrep,
                                     FuzzTarget::ErrorBounds};
  /// Stop after this many trials per target (ignored when `seconds` > 0).
  long trials = 200;
  /// Unbounded mode: keep going until the wall-clock budget is spent.
  double seconds = 0.0;
  std::uint64_t seed = 1;
  /// Directory for minimized failing-input files; empty = don't write.
  std::string artifacts_dir;
  /// Engine executing the IR oracle's runs. Either way the oracle also
  /// runs the other engine differentially; flipping this exercises the VM
  /// as the primary (e.g. on the round-tripped assignment path).
  interp::EngineKind engine = interp::EngineKind::Reference;
  bool verbose = false; ///< progress lines on stderr
};

struct FuzzFailure {
  FuzzTarget target = FuzzTarget::Ilp;
  std::uint64_t seed = 0; ///< derived per-trial seed that reproduces it
  std::string message;
  /// Minimized repro, in the target's text format (.lp / .ir); empty for
  /// numrep failures (the message pins down the value and format).
  std::string repro_text;
  std::string artifact_path; ///< where the repro was written, if anywhere
};

struct CampaignResult {
  long trials = 0; ///< per target
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Runs the campaign: generate -> check -> (on failure) shrink -> report.
CampaignResult run_campaign(const CampaignOptions& options);

/// Replays every .lp and .ir file under `dir` through the matching oracle.
/// Returns one entry per file; `ok()` iff every file passes. Unknown
/// extensions are skipped. Fails if the directory cannot be read.
struct CorpusResult {
  struct Entry {
    std::string path;
    CheckResult result;
  };
  std::vector<Entry> entries;
  std::string error; ///< non-empty when the directory itself was unusable
  bool ok() const;
};

CorpusResult replay_corpus(
    const std::string& dir,
    interp::EngineKind engine = interp::EngineKind::Reference);

} // namespace luis::testing
