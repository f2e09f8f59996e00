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
  IlpInstance p;
  const ilp::VarId x = p.model.add_integer(0, 2);
  const ilp::VarId y = p.model.add_integer(0, 2);
  p.model.add_le(ilp::LinearExpr().add(x, 1.0).add(y, 1.0), 3.0);
  p.objective = ilp::Objective(ilp::Direction::Maximize,
                               ilp::LinearExpr().add(x, 2.0).add(y, 1.0));
  const EnumerationResult r = enumerate_optimum(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.objective, 5.0); // x = 2, y = 1
  EXPECT_EQ(r.points, 9);      // the full 3 x 3 box was visited
  EXPECT_EQ(r.values, (std::vector<double>{2.0, 1.0}));
}

TEST(EnumerationOracle, ProvesInfeasibility) {
  IlpInstance p;
  const ilp::VarId x = p.model.add_integer(0, 2);
  p.model.add_ge(ilp::LinearExpr().add(x, 1.0), 5.0);
  p.objective =
      ilp::Objective(ilp::Direction::Minimize, ilp::LinearExpr().add(x, 1.0));
  EXPECT_FALSE(enumerate_optimum(p).feasible);
}

TEST(IlpGenerator, KeepsTheEnumerableInvariants) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Rng rng(derive_seed(0x6E17E2, trial));
    const ilp::Model m = random_ilp_instance(rng).model;
    ASSERT_GE(m.num_variables(), 1u);
    for (const ilp::Variable& v : m.variables()) {
      EXPECT_NE(v.kind, ilp::VarKind::Continuous);
      EXPECT_TRUE(std::isfinite(v.lower) && std::isfinite(v.upper));
      EXPECT_LE(v.lower, v.upper);
    }
  }
}

// Acceptance bar: a large random campaign in the smoke suite, with every
// instance passing all four oracles (enumeration, LP-text round trip,
// cache hit vs fresh solve, the certificate check).
TEST(IlpOracles, TenThousandInstancesAgreeAcrossAllFourOracles) {
  for (long trial = 0; trial < 10000; ++trial) {
    Rng rng(derive_seed(0xACCE5501, static_cast<std::uint64_t>(trial)));
    const IlpInstance p = random_ilp_instance(rng);
    const CheckResult r = check_ilp_instance(p, rng);
    ASSERT_TRUE(r.ok) << "trial " << trial << ": " << r.message << "\n"
                      << ilp::to_lp_format(p.model, p.objective);
  }
}

TEST(IlpShrinker, IsGreedyMinimalUnderAStructuralPredicate) {
  Rng rng(derive_seed(0x5321, 0));
  IlpGenOptions gen;
  gen.max_variables = 8;
  gen.max_constraints = 8;
  const IlpInstance p = random_ilp_instance(rng, gen);
  // "Fails" whenever at least three variables survive: the shrinker must
  // land on exactly three, with every other shrinkable piece removed.
  const auto still_fails = [](const IlpInstance& c) {
    return c.model.num_variables() >= 3;
  };
  ASSERT_TRUE(still_fails(p));
  const IlpInstance shrunk = shrink_ilp_instance(p, still_fails).instance;
  EXPECT_EQ(shrunk.model.num_variables(), 3u);
  EXPECT_EQ(shrunk.model.num_constraints(), 0u);
  EXPECT_TRUE(shrunk.objective.expr.terms().empty());
  for (const ilp::Variable& v : shrunk.model.variables())
    EXPECT_EQ(v.lower, v.upper); // boxes narrowed to a point
}

/// A deliberately broken MILP solver: it gives branch & bound a single
/// node and then lies, relabeling the truncated search as Optimal. On any
/// instance that needs real branching, its answer disagrees with the
/// enumeration oracle.
ilp::Solution lying_node_starved_solver(const ilp::Model& m,
                                        const ilp::Objective& objective,
                                        const ilp::BranchAndBoundOptions& o,
                                        ilp::Certificate* certificate) {
  ilp::BranchAndBoundOptions starved = o;
  starved.max_nodes = 1;
  ilp::Solution s = ilp::solve_milp(m, objective, starved, certificate);
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

  std::optional<IlpInstance> failing;
  for (std::uint64_t trial = 0; trial < 500 && !failing; ++trial) {
    Rng rng(derive_seed(0xB4DB0B, trial));
    IlpInstance p = random_ilp_instance(rng, gen);
    if (!check_ilp_instance(p, rng, broken).ok) failing = std::move(p);
  }
  ASSERT_TRUE(failing.has_value())
      << "no instance exposed the injected bug in 500 trials";

  const auto still_fails = [&broken](const IlpInstance& c) {
    Rng picks(0);
    return !check_ilp_instance(c, picks, broken).ok;
  };
  const IlpInstance shrunk =
      shrink_ilp_instance(*failing, still_fails).instance;
  EXPECT_TRUE(still_fails(shrunk));
  EXPECT_LE(shrunk.model.num_variables(), 5u)
      << ilp::to_lp_format(shrunk.model, shrunk.objective);
  // The minimized repro is a genuine bug witness: the honest solver
  // passes every oracle on it.
  Rng picks(0);
  EXPECT_TRUE(check_ilp_instance(shrunk, picks).ok)
      << ilp::to_lp_format(shrunk.model, shrunk.objective);
}

// The certificate alone catches the same lie: on a model whose root LP is
// fractional the starved search ends with no incumbent, and even handed
// the true optimum, its one solved node leaves the root box uncovered.
TEST(IlpShrinker, CertificateAloneCatchesTheNodeStarvedSolver) {
  IlpInstance p; // max x + y s.t. 2x + 2y <= 7: the root LP reads 3.5
  const ilp::VarId x = p.model.add_integer(0, 3);
  const ilp::VarId y = p.model.add_integer(0, 3);
  p.model.add_le(ilp::LinearExpr().add(x, 2.0).add(y, 2.0), 7.0);
  p.objective = ilp::Objective(ilp::Direction::Maximize,
                               ilp::LinearExpr().add(x, 1.0).add(y, 1.0));
  ilp::Certificate honest_certificate;
  const ilp::Solution honest =
      ilp::solve_milp(p.model, p.objective, {}, &honest_certificate);
  ASSERT_GT(honest.nodes, 1); // the instance needs branching
  EXPECT_TRUE(ilp::check_certificate(p.model, p.objective, honest,
                                     honest_certificate)
                  .ok);

  ilp::Certificate certificate;
  const ilp::Solution lie =
      lying_node_starved_solver(p.model, p.objective, {}, &certificate);
  ASSERT_EQ(lie.status, ilp::SolveStatus::Optimal);
  EXPECT_FALSE(
      ilp::check_certificate(p.model, p.objective, lie, certificate).ok);
  ilp::Solution forged = lie;
  forged.values = honest.values;
  forged.objective = honest.objective;
  const ilp::CertificateCheck check =
      ilp::check_certificate(p.model, p.objective, forged, certificate);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("no leaf covers"), std::string::npos)
      << check.error;
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
