#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/string_utils.hpp"
#include "support/union_find.hpp"

namespace luis {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextIntCoversInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleRangeMeanIsCentered) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.1);
}

// The corpus replay seeds each file's draws from its name, so these values
// must never change.
TEST(Rng, NameSeedIsPinned) {
  EXPECT_EQ(name_seed(""), 0x14650fb0739d0383ull);
  EXPECT_EQ(name_seed("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(name_seed("foobar"), 0x88fad7c0a8ff07f2ull);
}

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.component_count(), 5u);
  uf.unite(0, 1);
  uf.unite(3, 4);
  EXPECT_EQ(uf.component_count(), 3u);
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(1, 2));
  uf.unite(1, 3);
  EXPECT_TRUE(uf.same(0, 4));
  EXPECT_EQ(uf.component_count(), 2u);
}

TEST(UnionFind, AddGrowsStructure) {
  UnionFind uf(2);
  const auto idx = uf.add();
  EXPECT_EQ(idx, 2u);
  EXPECT_EQ(uf.component_count(), 3u);
  uf.unite(idx, 0);
  EXPECT_TRUE(uf.same(2, 0));
}

TEST(UnionFind, UniteIsIdempotent) {
  UnionFind uf(3);
  uf.unite(0, 1);
  const auto count = uf.component_count();
  uf.unite(0, 1);
  uf.unite(1, 0);
  EXPECT_EQ(uf.component_count(), count);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Statistics, MeanAndGeomean) {
  const double xs[] = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean_of(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean_of(xs), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Statistics, Percentile) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 25), 2.0);
}

TEST(Statistics, MpeMatchesPaperDefinition) {
  const double ref[] = {1.0, 2.0, -4.0};
  const double tuned[] = {1.1, 1.9, -4.4};
  // 100/3 * (0.1 + 0.05 + 0.1)
  EXPECT_NEAR(mean_percentage_error(ref, tuned), 100.0 / 3.0 * 0.25, 1e-9);
}

TEST(Statistics, MpeSkipsZeroReferenceElements) {
  const double ref[] = {0.0, 2.0};
  const double tuned[] = {0.5, 2.0};
  EXPECT_DOUBLE_EQ(mean_percentage_error(ref, tuned), 0.0);
}

TEST(Statistics, MpeAllZeroReference) {
  const double ref[] = {0.0, 0.0};
  const double same[] = {0.0, 0.0};
  const double diff[] = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(mean_percentage_error(ref, same), 0.0);
  EXPECT_TRUE(std::isinf(mean_percentage_error(ref, diff)));
}

TEST(StringUtils, SplitTrimStartsWith) {
  const auto fields = split_fields("a, b,, c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(trim(fields[1]), "b");
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_TRUE(starts_with("binary32", "binary"));
  EXPECT_FALSE(starts_with("fix", "fixed"));
}

TEST(StringUtils, FormatAndPad) {
  EXPECT_EQ(format_string("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(StringUtils, ParseNumberReadsWholeTokensOnly) {
  EXPECT_EQ(parse_number<int>("42"), 42);
  EXPECT_EQ(parse_number<int>("-3"), -3);
  EXPECT_EQ(parse_number<std::int64_t>("99999999999"), 99999999999);
  EXPECT_EQ(parse_number<double>("-2.5e3"), -2500.0);
  EXPECT_TRUE(std::isnan(*parse_number<double>("nan")));
  EXPECT_EQ(parse_number<double>("-inf"),
            -std::numeric_limits<double>::infinity());

  // Trailing junk, surrounding whitespace, a '+' sign, an empty token and
  // a value outside the type are all refused, never truncated.
  EXPECT_EQ(parse_number<int>("24abc"), std::nullopt);
  EXPECT_EQ(parse_number<int>("0junk"), std::nullopt);
  EXPECT_EQ(parse_number<int>("4.5"), std::nullopt);
  EXPECT_EQ(parse_number<int>(" 4"), std::nullopt);
  EXPECT_EQ(parse_number<int>("4 "), std::nullopt);
  EXPECT_EQ(parse_number<int>("+4"), std::nullopt);
  EXPECT_EQ(parse_number<int>(""), std::nullopt);
  EXPECT_EQ(parse_number<int>("abc"), std::nullopt);
  EXPECT_EQ(parse_number<int>("4294967296"), std::nullopt);
  EXPECT_EQ(parse_number<std::int64_t>("99999999999999999999"), std::nullopt);
  EXPECT_EQ(parse_number<double>("2.5x"), std::nullopt);
  EXPECT_EQ(parse_number<double>("1x"), std::nullopt);
  EXPECT_EQ(parse_number<double>("1e999"), std::nullopt);

  // Only the given view is read, not the string around it.
  const std::string_view dims = "[12][34]";
  EXPECT_EQ(parse_number<int>(dims.substr(1, 2)), 12);
  EXPECT_EQ(parse_number<int>(dims.substr(5, 2)), 34);
}

TEST(Json, EscapeHandlesQuotesBackslashesAndControls) {
  // The historical sweep report interpolated names with %s and emitted
  // broken JSON for exactly these inputs.
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(Json, WriterEmitsNestedContainersWithCommas) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("tri\"solv");
  w.key("jobs");
  w.begin_array();
  w.value(1L);
  w.value(2.5, "%.1f");
  w.value(true);
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"tri\\\"solv\",\"jobs\":[1,2.5,true],\"nested\":{}}");
}

TEST(Json, WriterRawValueAndCosmetics) {
  JsonWriter w;
  w.begin_array();
  w.raw_value("{\"pre\":1}");
  w.newline();
  w.value(2L);
  w.end_array();
  EXPECT_EQ(w.str(), "[{\"pre\":1}\n,2]");
}

} // namespace
} // namespace luis
