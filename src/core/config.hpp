// Tuning configuration: candidate type set and the W1/W2 trade-off weights
// of the cost function (Section IV-B, Table III).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ilp/branch_and_bound.hpp"
#include "numrep/formats.hpp"
#include "platform/energy.hpp"

namespace luis::core {

/// Which non-functional metric the model's cost terms (Ex, C, Cfix) price.
enum class CostMetric { Time, Energy };

struct TuningConfig {
  std::string name = "Balanced";

  /// W1 weighs execution time (Ex + C + Cfix), W2 weighs precision (Err).
  double w1 = 50.0;
  double w2 = 50.0;

  /// Time reproduces the paper; Energy is the Section VI extension (the
  /// cost terms price op-energy instead of op-time; see platform/energy.hpp
  /// for the power model).
  CostMetric metric = CostMetric::Time;
  platform::PowerModel power;

  /// Candidate type set T. The default matches the paper's evaluation:
  /// one fixed point width plus binary32/binary64 (Table V's columns).
  std::vector<numrep::NumericFormat> types = {
      numrep::kFixed32, numrep::kBinary32, numrep::kBinary64};

  /// Build the ILP exactly as the paper writes it: one x_{v,t} binary per
  /// virtual register with explicit x_{a,t} = x_{b,t} equality rows, and
  /// one cast indicator per use and type pair. The default instead merges
  /// those hard equalities into type classes up front, which shrinks the
  /// model by an order of magnitude without changing its optimum. The
  /// literal mode exists as a faithfulness ablation and reproduces the
  /// paper's compilation-overhead profile.
  bool literal_model = false;

  /// Evaluation floor for the Err term's literal Definition 2 on ranges
  /// that straddle zero: magnitudes below this are considered noise under
  /// the data's own resolution. The Balanced preset's behaviour is
  /// sensitive to this dial (see EXPERIMENTS.md); 2^-20 is calibrated so the
  /// Balanced mix reproduces the paper's Table V.
  double err_zero_floor = 0x1.0p-20;

  ilp::BranchAndBoundOptions solver;

  // --- Table III presets ---
  static TuningConfig fast() {
    TuningConfig c;
    c.name = "Fast";
    c.w1 = 1000.0;
    c.w2 = 1.0;
    return c;
  }
  static TuningConfig balanced() {
    TuningConfig c;
    c.name = "Balanced";
    c.w1 = 50.0;
    c.w2 = 50.0;
    return c;
  }
  static TuningConfig precise() {
    TuningConfig c;
    c.name = "Precise";
    c.w1 = 1.0;
    c.w2 = 1000.0;
    return c;
  }
  /// Balanced weights over every executable catalog format, in catalog
  /// order: a format added to the catalog becomes a candidate here.
  /// Non-executable catalog entries (binary128/256) are IEBW-metric-only
  /// and excluded.
  static TuningConfig multi() {
    TuningConfig c;
    c.name = "Multi";
    c.w1 = 50.0;
    c.w2 = 50.0;
    c.types = numrep::executable_formats();
    return c;
  }
};

/// The Table III preset called `name`: Precise, Balanced, Fast or Multi.
inline std::optional<TuningConfig> preset_by_name(std::string_view name) {
  if (name == "Precise") return TuningConfig::precise();
  if (name == "Balanced") return TuningConfig::balanced();
  if (name == "Fast") return TuningConfig::fast();
  if (name == "Multi") return TuningConfig::multi();
  return std::nullopt;
}

} // namespace luis::core
