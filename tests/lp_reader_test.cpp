#include <gtest/gtest.h>

#include "ilp/branch_and_bound.hpp"
#include "ilp/lp_reader.hpp"
#include "ilp/lp_writer.hpp"
#include "support/rng.hpp"

namespace luis::ilp {
namespace {

TEST(LpReader, ParsesHandWrittenModel) {
  const LpParseResult r = parse_lp(R"(Minimize
 obj: 2 x + 3 y - z
Subject To
 cap: x + 2 y <= 4
 floor: y - z >= -1
 tie: x = 1.5
Bounds
 0 <= x <= +inf
 -inf <= y <= 2
 0 <= z <= 10
General
 z
End
)");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.model.num_variables(), 3u);
  EXPECT_EQ(r.model.num_constraints(), 3u);
  EXPECT_EQ(r.model.objective_direction(), Direction::Minimize);
  EXPECT_EQ(r.model.variables()[1].upper, 2.0);
  EXPECT_EQ(r.model.variables()[2].kind, VarKind::Integer);

  const Solution s = solve_milp(r.model);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  // x = 1.5 fixed; minimize 3y - z: y can go to -inf? y >= z - 1 >= -1,
  // y bounded below by floor with z = 0 -> y = -1, z maximal z <= y+1 = 9?
  // floor: y - z >= -1 -> z <= y + 1. Minimize 3y - z: y = -1, z <= 0 -> 0.
  EXPECT_NEAR(s.value(0), 1.5, 1e-9);
  EXPECT_NEAR(s.value(1), -1.0, 1e-6);
  EXPECT_NEAR(s.value(2), 0.0, 1e-6);
}

TEST(LpReader, RoundTripsThroughWriter) {
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    Model m;
    const int n = 6;
    std::vector<VarId> xs;
    for (int j = 0; j < n; ++j) {
      const bool integer = rng.next_bool(0.5);
      if (integer)
        xs.push_back(m.add_integer("v" + std::to_string(j), 0,
                                   static_cast<double>(rng.next_int(1, 5))));
      else
        xs.push_back(m.add_continuous("v" + std::to_string(j), 0.0,
                                      rng.next_double(1.0, 8.0)));
    }
    for (int r = 0; r < 4; ++r) {
      LinearExpr e;
      for (int j = 0; j < n; ++j)
        e.add(xs[static_cast<std::size_t>(j)],
              static_cast<double>(rng.next_int(-3, 3)));
      m.add_le(std::move(e), static_cast<double>(rng.next_int(2, 10)));
    }
    LinearExpr obj;
    for (int j = 0; j < n; ++j)
      obj.add(xs[static_cast<std::size_t>(j)],
              static_cast<double>(rng.next_int(-4, 4)));
    m.set_objective(Direction::Maximize, std::move(obj));

    const std::string text = to_lp_format(m);
    const LpParseResult parsed = parse_lp(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << text;
    ASSERT_EQ(parsed.model.num_variables(), m.num_variables());
    ASSERT_EQ(parsed.model.num_constraints(), m.num_constraints());

    // Same optimum through the round trip.
    const Solution a = solve_milp(m);
    const Solution b = solve_milp(parsed.model);
    ASSERT_EQ(a.status, b.status) << text;
    if (a.status == SolveStatus::Optimal)
      EXPECT_NEAR(a.objective, b.objective, 1e-6) << text;

    // The LP format has no declaration section, so the parser's first-use
    // variable order may differ from the writer's id order; after one
    // round trip the order is canonical and printing is a fixed point.
    const std::string text2 = to_lp_format(parsed.model);
    const LpParseResult reparsed = parse_lp(text2);
    ASSERT_TRUE(reparsed.ok()) << reparsed.error;
    EXPECT_EQ(to_lp_format(reparsed.model), text2);
  }
}

TEST(LpReader, HandlesNegativeAndFractionalCoefficients) {
  const LpParseResult r = parse_lp(R"(Maximize
 obj: - 0.5 a + 1.25 b
Subject To
 c0: - a + b <= 0.75
Bounds
 0 <= a <= 1
 0 <= b <= 1
End
)");
  ASSERT_TRUE(r.ok()) << r.error;
  const Solution s = solve_lp(r.model);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  // b = min(1, a + 0.75); maximize 1.25 b - 0.5 a -> a = 0.25, b = 1.
  EXPECT_NEAR(s.value(0), 0.25, 1e-6);
  EXPECT_NEAR(s.value(1), 1.0, 1e-6);
}

TEST(LpReader, ObjectiveConstantSurvivesWriteReadRoundTrip) {
  // The objective's constant term is part of the reported optimum and
  // bound; the writer must emit it or a dump/reload cycle silently shifts
  // every objective.
  Model m;
  const VarId x = m.add_integer("x", 0.0, 4.0);
  LinearExpr obj;
  obj.add(x, 2.0);
  obj.add_constant(7.5);
  m.set_objective(Direction::Maximize, std::move(obj));

  const LpParseResult r = parse_lp(to_lp_format(m));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_DOUBLE_EQ(r.model.objective().constant(), 7.5);

  const Solution original = solve_milp(m);
  const Solution reloaded = solve_milp(r.model);
  ASSERT_EQ(original.status, SolveStatus::Optimal);
  ASSERT_EQ(reloaded.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(original.objective, 15.5);
  EXPECT_DOUBLE_EQ(reloaded.objective, original.objective);

  // Negative constants round-trip through the "- c" spelling.
  Model neg;
  const VarId y = neg.add_continuous("y", 0.0, 1.0);
  neg.set_objective(Direction::Minimize,
                    LinearExpr().add(y, 1.0).add_constant(-3.25));
  const LpParseResult rn = parse_lp(to_lp_format(neg));
  ASSERT_TRUE(rn.ok()) << rn.error;
  EXPECT_DOUBLE_EQ(rn.model.objective().constant(), -3.25);
}

TEST(LpReader, RejectsMalformedInput) {
  EXPECT_FALSE(parse_lp("garbage before any section").ok());
  EXPECT_FALSE(parse_lp("Minimize\n obj: x\nSubject To\n c: x 4\nEnd\n").ok());
  EXPECT_FALSE(
      parse_lp("Minimize\n obj: x\nBounds\n x between 0 and 1\nEnd\n").ok());
}

TEST(LpReader, MalformedNumbersAreRejectedWithLocation) {
  // "3.5.2" used to be strtod'd as 3.5 with the trailing ".2" silently
  // discarded; now it is a hard error carrying line and column.
  {
    const LpParseResult r =
        parse_lp("Minimize\n obj: 3.5.2 x\nSubject To\n c: x <= 1\nEnd\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("column 7"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("3.5.2"), std::string::npos) << r.error;
  }
  // Malformed right-hand side of a constraint.
  {
    const LpParseResult r =
        parse_lp("Minimize\n obj: x\nSubject To\n c: x <= 1e+\nEnd\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("line 4"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("right-hand side"), std::string::npos) << r.error;
  }
  // Malformed numeric coefficient inside a constraint expression.
  {
    const LpParseResult r = parse_lp(
        "Minimize\n obj: x\nSubject To\n c: 2..0 x <= 4\nEnd\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("line 4"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("2..0"), std::string::npos) << r.error;
  }
  // Malformed bound values, each side.
  {
    const LpParseResult r =
        parse_lp("Minimize\n obj: x\nBounds\n 0.x <= x <= 1\nEnd\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("line 4"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("lower bound"), std::string::npos) << r.error;
  }
  {
    const LpParseResult r =
        parse_lp("Minimize\n obj: x\nBounds\n 0 <= x <= 1.0e\nEnd\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("upper bound"), std::string::npos) << r.error;
  }
  // Trailing junk after an otherwise valid bounds line.
  EXPECT_FALSE(
      parse_lp("Minimize\n obj: x\nBounds\n 0 <= x <= 1 junk\nEnd\n").ok());
  // Infinite bounds still parse.
  {
    const LpParseResult r = parse_lp(
        "Minimize\n obj: x\nBounds\n -inf <= x <= +inf\nEnd\n");
    ASSERT_TRUE(r.ok()) << r.error;
  }
}

} // namespace
} // namespace luis::ilp
