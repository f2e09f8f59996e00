// Random ILP instances, an exhaustive-enumeration oracle, and a greedy
// model shrinker.
//
// Generated models are pure-integer with small finite boxes, so the
// feasible set can be enumerated outright — the independent ground truth
// every solver configuration is checked against. One instance is then
// required to agree with itself across every code path that must not
// change the answer (an lp_writer -> lp_reader round trip, a solver-cache
// hit vs the fresh solve), and its answer must carry a certificate the
// independent checker accepts.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ilp/branch_and_bound.hpp"
#include "ilp/certificate.hpp"
#include "ilp/model.hpp"
#include "support/rng.hpp"
#include "testing/fuzz.hpp"

namespace luis::testing {

struct IlpGenOptions {
  int max_variables = 4;   ///< uniform in [1, max]
  int max_constraints = 5; ///< uniform in [0, max]
  /// Variable boxes are [lo, lo + span] with span uniform in [0, max]:
  /// enumeration cost is bounded by (span + 1)^variables.
  int max_bound_span = 3;
  /// Coefficients are nonzero integers in [-range, range]...
  int coeff_range = 3;
  /// ...except with this probability, a half-integer (exercises the
  /// fractional arithmetic of the simplex without float-noise ambiguity).
  double fractional_coeff_p = 0.25;
};

/// One optimization problem: a model and the objective solved over it.
struct IlpInstance {
  ilp::Model model;
  ilp::Objective objective;
};

/// Generates a random instance under `options`: every variable integer (or
/// binary) with finite bounds, constraints with mixed senses, a random
/// objective direction and optional objective constant. Roughly half the
/// instances are feasible.
IlpInstance random_ilp_instance(Rng& rng, const IlpGenOptions& options = {});

struct EnumerationResult {
  bool feasible = false;
  double objective = 0.0;      ///< meaningful when feasible
  std::vector<double> values;  ///< one optimal point (first found)
  long points = 0;             ///< grid points visited
};

/// Brute-force oracle: walks the full integer box. Every variable must be
/// integer/binary with finite bounds (what random_ilp_instance generates).
EnumerationResult enumerate_optimum(const IlpInstance& instance);

/// Solver under test, with solve_milp's signature (the certificate may be
/// null). Tests substitute a deliberately broken solver to exercise the
/// shrinker; the campaign uses ilp::solve_milp.
using MilpSolver = std::function<ilp::Solution(
    const ilp::Model&, const ilp::Objective&, const ilp::BranchAndBoundOptions&,
    ilp::Certificate*)>;

struct IlpCheckOptions {
  MilpSolver solve;        ///< defaults to ilp::solve_milp
  long max_nodes = 200000; ///< ample for the generated sizes
};

/// The four-oracle differential property. Passes iff:
///   1. solve matches exhaustive enumeration in status and optimum;
///   2. the lp_writer -> lp_reader round trip solves to the same optimum;
///   3. re-solving through a SolverCache returns the first solution
///      bit-identically;
///   4. the first solve's certificate passes ilp::check_certificate, which
///      also proves its solution feasible, integral and consistent.
CheckResult check_ilp_instance(const IlpInstance& instance,
                               const IlpCheckOptions& options = {});

struct IlpShrinkResult {
  IlpInstance instance;
  int rounds = 0;   ///< full passes over the mutation list
  int attempts = 0; ///< candidate models evaluated
};

/// Greedy shrinking: repeatedly tries dropping constraints, dropping
/// variables, deleting coefficients, and narrowing bounds toward zero,
/// keeping every mutation for which `still_fails` returns true. The result
/// is 1-minimal: no single listed mutation keeps it failing.
IlpShrinkResult shrink_ilp_instance(
    const IlpInstance& instance,
    const std::function<bool(const IlpInstance&)>& still_fails);

} // namespace luis::testing
