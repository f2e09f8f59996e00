// Tests for the fuzzing harness itself: the generators keep their
// invariants, the enumeration oracle is right on models solved by hand,
// the differential property holds across a large random campaign (the
// PR's acceptance bar), and the shrinkers actually minimize — including
// reducing a deliberately injected branch & bound bug to a tiny repro.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>

#include "ilp/branch_and_bound.hpp"
#include "ilp/lp_writer.hpp"
#include "testing/fuzz.hpp"
#include "testing/ilp_fuzz.hpp"
#include "testing/ir_fuzz.hpp"
#include "testing/numrep_fuzz.hpp"

namespace luis::testing {
namespace {

TEST(DeriveSeed, IsDeterministicAndDecorrelated) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t trial = 0; trial < 1000; ++trial)
    seen.insert(derive_seed(42, trial));
  EXPECT_EQ(seen.size(), 1000u); // no collisions among nearby trials
  EXPECT_NE(derive_seed(1, 7), derive_seed(2, 7));
}

TEST(EnumerationOracle, FindsAKnownOptimum) {
  ilp::Model m;
  const ilp::VarId x = m.add_integer("x", 0, 2);
  const ilp::VarId y = m.add_integer("y", 0, 2);
  m.add_le(ilp::LinearExpr().add(x, 1.0).add(y, 1.0), 3.0);
  m.set_objective(ilp::Direction::Maximize,
                  ilp::LinearExpr().add(x, 2.0).add(y, 1.0));
  const EnumerationResult r = enumerate_optimum(m);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.objective, 5.0); // x = 2, y = 1
  EXPECT_EQ(r.points, 9);      // the full 3 x 3 box was visited
  EXPECT_TRUE(m.is_feasible(r.values));
}

TEST(EnumerationOracle, ProvesInfeasibility) {
  ilp::Model m;
  const ilp::VarId x = m.add_integer("x", 0, 2);
  m.add_ge(ilp::LinearExpr().add(x, 1.0), 5.0);
  m.set_objective(ilp::Direction::Minimize, ilp::LinearExpr().add(x, 1.0));
  EXPECT_FALSE(enumerate_optimum(m).feasible);
}

TEST(IlpGenerator, KeepsTheEnumerableInvariants) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Rng rng(derive_seed(0x6E17E2, trial));
    const ilp::Model m = random_ilp_model(rng);
    ASSERT_GE(m.num_variables(), 1u);
    for (const ilp::Variable& v : m.variables()) {
      EXPECT_NE(v.kind, ilp::VarKind::Continuous);
      EXPECT_TRUE(std::isfinite(v.lower) && std::isfinite(v.upper));
      EXPECT_LE(v.lower, v.upper);
    }
  }
}

// Acceptance bar: a large random campaign in the smoke suite, with every
// instance agreeing across all four oracles (enumeration, LP-text round
// trip, cache hit vs fresh solve, dense vs revised LP core).
TEST(IlpOracles, TenThousandInstancesAgreeAcrossAllFourOracles) {
  for (long trial = 0; trial < 10000; ++trial) {
    Rng rng(derive_seed(0xACCE5501, static_cast<std::uint64_t>(trial)));
    const ilp::Model m = random_ilp_model(rng);
    const CheckResult r = check_ilp_instance(m);
    ASSERT_TRUE(r.ok) << "trial " << trial << ": " << r.message << "\n"
                      << ilp::to_lp_format(m);
  }
}

TEST(IlpShrinker, IsGreedyMinimalUnderAStructuralPredicate) {
  Rng rng(derive_seed(0x5321, 0));
  IlpGenOptions gen;
  gen.max_variables = 8;
  gen.max_constraints = 8;
  const ilp::Model m = random_ilp_model(rng, gen);
  // "Fails" whenever at least three variables survive: the shrinker must
  // land on exactly three, with every other shrinkable piece removed.
  const auto still_fails = [](const ilp::Model& c) {
    return c.num_variables() >= 3;
  };
  ASSERT_TRUE(still_fails(m));
  const IlpShrinkResult shrunk = shrink_ilp_model(m, still_fails);
  EXPECT_EQ(shrunk.model.num_variables(), 3u);
  EXPECT_EQ(shrunk.model.num_constraints(), 0u);
  EXPECT_TRUE(shrunk.model.objective().terms().empty());
  for (const ilp::Variable& v : shrunk.model.variables())
    EXPECT_EQ(v.lower, v.upper); // boxes narrowed to a point
}

/// A deliberately broken MILP solver: it gives branch & bound a single
/// node and then lies, relabeling the truncated search as Optimal. On any
/// instance that needs real branching, its answer disagrees with the
/// enumeration oracle.
ilp::Solution lying_node_starved_solver(const ilp::Model& m,
                                        const ilp::BranchAndBoundOptions& o) {
  ilp::BranchAndBoundOptions starved = o;
  starved.max_nodes = 1;
  ilp::Solution s = ilp::solve_milp(m, starved);
  if (s.status == ilp::SolveStatus::NodeLimit)
    s.status = ilp::SolveStatus::Optimal;
  return s;
}

// Acceptance bar: the harness catches an injected branch & bound bug and
// the shrinker reduces the triggering instance to at most five variables.
TEST(IlpShrinker, ReducesAnInjectedBranchAndBoundBugToAtMostFiveVariables) {
  IlpCheckOptions broken;
  broken.solve = lying_node_starved_solver;
  IlpGenOptions gen;
  gen.max_variables = 8;
  gen.max_constraints = 8;
  gen.max_bound_span = 4;

  std::optional<ilp::Model> failing;
  for (std::uint64_t trial = 0; trial < 500 && !failing; ++trial) {
    Rng rng(derive_seed(0xB4DB0B, trial));
    ilp::Model m = random_ilp_model(rng, gen);
    if (!check_ilp_instance(m, broken).ok) failing = std::move(m);
  }
  ASSERT_TRUE(failing.has_value())
      << "no instance exposed the injected bug in 500 trials";

  const auto still_fails = [&broken](const ilp::Model& c) {
    return !check_ilp_instance(c, broken).ok;
  };
  const IlpShrinkResult shrunk = shrink_ilp_model(*failing, still_fails);
  EXPECT_TRUE(still_fails(shrunk.model));
  EXPECT_LE(shrunk.model.num_variables(), 5u)
      << ilp::to_lp_format(shrunk.model);
  // The minimized repro is a genuine bug witness: the honest solver
  // passes every oracle on it.
  EXPECT_TRUE(check_ilp_instance(shrunk.model).ok)
      << ilp::to_lp_format(shrunk.model);
}

TEST(IrGenerator, SatisfiesTheIrPropertySet) {
  for (std::uint64_t trial = 0; trial < 25; ++trial) {
    const std::uint64_t seed = derive_seed(0x1234, trial);
    Rng rng(seed);
    ir::Module module;
    const GeneratedIr generated = generate_ir_kernel(module, rng);
    Rng type_rng(seed ^ 0x7E57ull);
    const CheckResult r =
        check_ir_instance(*generated.function, generated.inputs, type_rng);
    ASSERT_TRUE(r.ok) << "seed " << seed << ": " << r.message;
  }
}

TEST(IrShrinker, MinimizesTheGenerationRecipe) {
  // "Fails" while the recipe still allows depth-2 expressions: the
  // shrinker must land on the boundary exactly and fully minimize every
  // other knob, which the predicate leaves unconstrained.
  const auto still_fails = [](const IrGenOptions& o) {
    return o.expr_depth >= 2;
  };
  const IrShrinkResult shrunk = shrink_ir_options(IrGenOptions{}, still_fails);
  EXPECT_TRUE(still_fails(shrunk.options));
  EXPECT_EQ(shrunk.options.expr_depth, 2);
  EXPECT_FALSE(shrunk.options.allow_nested);
  EXPECT_FALSE(shrunk.options.allow_2d);
  EXPECT_EQ(shrunk.options.min_arrays, 1);
  EXPECT_EQ(shrunk.options.max_arrays, 1);
  EXPECT_EQ(shrunk.options.min_extent, 1);
  EXPECT_EQ(shrunk.options.max_extent, 1);
}

TEST(NumrepProperties, HoldAcrossManySeeds) {
  for (std::uint64_t trial = 0; trial < 500; ++trial) {
    Rng rng(derive_seed(0x22222, trial));
    const CheckResult r = check_numrep_trial(rng);
    ASSERT_TRUE(r.ok) << "trial " << trial << ": " << r.message;
  }
}

TEST(Campaign, RunsCleanAcrossAllTargets) {
  CampaignOptions options;
  options.trials = 25;
  options.seed = 7;
  const CampaignResult r = run_campaign(options);
  EXPECT_EQ(r.trials, 25);
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? std::string()
                                             : r.failures.front().message);
}

TEST(Campaign, ReportsAnUnreadableCorpusDirectory) {
  const CorpusResult r = replay_corpus("/nonexistent/corpus/dir");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error.empty());
}

TEST(Corpus, CheckedInSeedsReplayClean) {
  const CorpusResult r = replay_corpus(LUIS_TEST_DATA_DIR "/corpus");
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_GE(r.entries.size(), 8u); // the checked-in .lp and .ir seeds
  for (const CorpusResult::Entry& e : r.entries)
    EXPECT_TRUE(e.result.ok) << e.path << ": " << e.result.message;
}

} // namespace
} // namespace luis::testing
