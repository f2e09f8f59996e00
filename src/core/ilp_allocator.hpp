// The LUIS Data Type Allocation pass — Section IV of the paper.
//
// Builds the ILP model of the kernel's precision profile from the SSA
// def/use graph, the value ranges, and the platform characterization, then
// solves it and extracts a TypeAssignment:
//
//   variables   x_{c,t}   type t chosen for type-class c (binary)
//               z_{v,f}   fractional bits of register v if fixed type f
//               y_{A,t,B,t'} cast indicator per class pair and type pair
//               y-shift   fixed point realignment indicator per use
//   objective   min  W1 (Ex^ + C^ + Cfix^) - W2 Err^
//
// Deviations from the paper's formulation, chosen for solver efficiency
// and documented in DESIGN.md: hard x_{a,t} = x_{b,t} equalities are
// merged into type classes up front; cast indicators are aggregated per
// (class, class) pair with a use-count multiplier; z and y variables are
// continuous (their LP values are integral whenever the x's are, except
// the shift indicators, whose cost the LP may under-estimate).
//
// Build once, price many. Everything but three objective sums depends
// only on the kernel, its ranges and the candidate set: the type classes,
// feasibility, every variable and row, and the Err term. That is the
// IlpStructure. Pricing reads Ex, C and Cfix from the platform's op-time
// table (Table II) and weighs the terms with the preset's W1:W2 (Table
// III), so a kernel's jobs across platforms and presets share one
// structure and each only prices it (docs/ILP_MODEL.md, "Structure and
// price").
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/allocation.hpp"
#include "core/config.hpp"
#include "ir/function.hpp"
#include "platform/optime.hpp"
#include "vra/range_analysis.hpp"

namespace luis::core {

/// The platform- and weight-independent part of a kernel's allocation ILP.
/// Read-only once built: concurrent allocate_ilp calls may price it.
struct IlpStructure {
  /// A cost term awaiting its price: `var` times the op-time of
  /// `prices[price]`.
  struct Term {
    ilp::VarId var = -1;
    std::size_t price = 0;
  };
  /// The two shift indicators of one use and fixed type, and their price.
  struct Shift {
    ilp::VarId up = -1, down = -1;
    std::size_t price = 0;
  };

  // The structure inputs besides the kernel and its ranges.
  std::vector<numrep::NumericFormat> types;
  bool literal_model = false;
  double err_zero_floor = 0.0;

  const ir::Function* function = nullptr;
  int num_classes = 0;
  int num_uses = 0;
  /// The model registers, and the unit (x-variable set) each belongs to.
  std::vector<const ir::Value*> registers;
  std::vector<int> unit_of;
  /// x[unit][type] and z[register][type]; -1 where the type is infeasible.
  std::vector<std::vector<ilp::VarId>> x;
  std::vector<std::vector<ilp::VarId>> z;
  /// Every variable and row: the feasible region each job solves its
  /// priced objective over, in place.
  ilp::Model model;

  /// The distinct (op, type class) op-time lookups the cost sums need.
  std::vector<std::pair<std::string, std::string>> prices;
  /// Ex: one term per tunable instruction and feasible type, in block
  /// order; ex_ends[i] ends instruction i's terms.
  std::vector<Term> ex;
  std::vector<std::size_t> ex_ends;
  /// C: per ordered unit pair, its use count and where its terms end.
  std::vector<Term> cast;
  std::vector<std::pair<int, std::size_t>> cast_pairs;
  /// Cfix: per use and fixed type.
  std::vector<Shift> shifts;
  /// Err (maximized) and its normalizer.
  ilp::LinearExpr err;
  double err_max = 0.0;

  /// The interval of this structure's `ilp.build_structure` span.
  double build_seconds = 0.0;
};

/// True when `a` and `b` build the same structure on every kernel: same
/// candidate types, formulation and Err floor.
bool same_ilp_structure(const TuningConfig& a, const TuningConfig& b);

/// Builds the structure of `f`'s allocation ILP for `config`'s candidate
/// set; the weights, metric and solver options are not read.
IlpStructure build_ilp_structure(const ir::Function& f,
                                 const vra::RangeMap& ranges,
                                 const TuningConfig& config);

/// The objective of one job: `structure`'s Ex, C and Cfix terms priced
/// for `table` and `config`'s metric, weighed against Err by `config`'s
/// W1:W2. `config` must build the same structure (same_ilp_structure).
ilp::Objective price_objective(const IlpStructure& structure,
                               const platform::OpTimeTable& table,
                               const TuningConfig& config);

/// Prices an objective (price_objective), solves it over
/// `structure.model` and extracts the assignment.
/// `model_build_seconds` is the pricing only.
AllocationResult allocate_ilp(const IlpStructure& structure,
                              const platform::OpTimeTable& table,
                              const TuningConfig& config);

/// Builds a single-use structure and prices it: the one-shot form.
/// `model_build_seconds` covers both.
AllocationResult allocate_ilp(const ir::Function& f, const vra::RangeMap& ranges,
                              const platform::OpTimeTable& table,
                              const TuningConfig& config);

} // namespace luis::core
