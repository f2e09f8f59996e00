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
  EXPECT_EQ(r.objective.direction, Direction::Minimize);
  EXPECT_EQ(r.model.variables()[1].upper, 2.0);
  EXPECT_EQ(r.model.variables()[2].kind, VarKind::Integer);

  const Solution s = solve_milp(r.model, r.objective);
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
        xs.push_back(m.add_integer(0,
                                   static_cast<double>(rng.next_int(1, 5))));
      else
        xs.push_back(m.add_continuous(0.0,
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
    const Objective objective(Direction::Maximize, std::move(obj));

    const std::string text = to_lp_format(m, objective);
    const LpParseResult parsed = parse_lp(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << text;
    ASSERT_EQ(parsed.model.num_variables(), m.num_variables());
    ASSERT_EQ(parsed.model.num_constraints(), m.num_constraints());

    // Same optimum through the round trip.
    const Solution a = solve_milp(m, objective);
    const Solution b = solve_milp(parsed.model, parsed.objective);
    ASSERT_EQ(a.status, b.status) << text;
    if (a.status == SolveStatus::Optimal) {
      EXPECT_NEAR(a.objective, b.objective, 1e-6) << text;
    }

    // The LP format has no declaration section, so the parser's first-use
    // variable order may differ from the writer's id order; after one
    // round trip the order is canonical and printing is a fixed point.
    const std::string text2 = to_lp_format(parsed.model, parsed.objective);
    const LpParseResult reparsed = parse_lp(text2);
    ASSERT_TRUE(reparsed.ok()) << reparsed.error;
    EXPECT_EQ(to_lp_format(reparsed.model, reparsed.objective), text2);
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
  const Solution s = solve_lp(r.model, r.objective);
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
  const VarId x = m.add_integer(0.0, 4.0);
  LinearExpr obj;
  obj.add(x, 2.0);
  obj.add_constant(7.5);
  const Objective objective(Direction::Maximize, std::move(obj));

  const LpParseResult r = parse_lp(to_lp_format(m, objective));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_DOUBLE_EQ(r.objective.expr.constant(), 7.5);

  const Solution original = solve_milp(m, objective);
  const Solution reloaded = solve_milp(r.model, r.objective);
  ASSERT_EQ(original.status, SolveStatus::Optimal);
  ASSERT_EQ(reloaded.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(original.objective, 15.5);
  EXPECT_DOUBLE_EQ(reloaded.objective, original.objective);

  // Negative constants round-trip through the "- c" spelling.
  Model neg;
  const VarId y = neg.add_continuous(0.0, 1.0);
  const Objective neg_objective(Direction::Minimize,
                                LinearExpr().add(y, 1.0).add_constant(-3.25));
  const LpParseResult rn = parse_lp(to_lp_format(neg, neg_objective));
  ASSERT_TRUE(rn.ok()) << rn.error;
  EXPECT_DOUBLE_EQ(rn.objective.expr.constant(), -3.25);
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

// Numbers that parse but cannot stand in a model: crossed or NaN bounds,
// a lower bound of +inf or an upper bound of -inf, and non-finite
// coefficients or right-hand sides. Each is refused at its line and
// column instead of reaching Model::add_variable's assertion.
TEST(LpReader, RefusesCrossedAndNonFiniteNumbers) {
  struct Case {
    const char* text;
    const char* where;
    const char* what;
  };
  const Case cases[] = {
      {"Minimize\n obj: x\nBounds\n 3 <= x <= 1\nEnd\n", "line 4, column 2",
       "crossed bounds: lower 3 is above upper 1"},
      {"Minimize\n obj: x\nBounds\n nan <= x <= 1\nEnd\n",
       "line 4, column 2", "lower bound must be a number or -inf, got 'nan'"},
      {"Minimize\n obj: x\nBounds\n 0 <= x <= nan\nEnd\n",
       "line 4, column 12", "upper bound must be a number or +inf, got 'nan'"},
      {"Minimize\n obj: x\nBounds\n +inf <= x <= +inf\nEnd\n",
       "line 4, column 2", "lower bound must be a number or -inf"},
      {"Minimize\n obj: x\nBounds\n 0 <= x <= -inf\nEnd\n",
       "line 4, column 12", "upper bound must be a number or +inf"},
      {"Minimize\n obj: nan x\nEnd\n", "line 2, column 7",
       "coefficient must be finite, got 'nan'"},
      {"Minimize\n obj: x\nSubject To\n c: inf x <= 1\nEnd\n",
       "line 4, column 5", "coefficient must be finite, got 'inf'"},
      {"Minimize\n obj: x + 1e999\nEnd\n", "line 2, column 11",
       "coefficient must be finite, got '1e999'"},
      {"Minimize\n obj: x\nSubject To\n c: x <= nan\nEnd\n",
       "line 4, column 10", "right-hand side must be a finite number, got 'nan'"},
      {"Minimize\n obj: x\nSubject To\n c: x >= -inf\nEnd\n",
       "line 4, column 10", "right-hand side must be a finite number, got '-inf'"},
  };
  for (const Case& c : cases) {
    const LpParseResult r = parse_lp(c.text);
    ASSERT_FALSE(r.ok()) << c.text;
    EXPECT_NE(r.error.find(c.where), std::string::npos) << r.error;
    EXPECT_NE(r.error.find(c.what), std::string::npos) << r.error;
  }
  // Equal bounds fix a variable; they do not cross.
  const LpParseResult fixed =
      parse_lp("Minimize\n obj: x\nBounds\n 2 <= x <= 2\nEnd\n");
  ASSERT_TRUE(fixed.ok()) << fixed.error;
  EXPECT_EQ(fixed.model.variables()[0].lower, 2.0);
}

} // namespace
} // namespace luis::ilp
