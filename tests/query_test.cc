// Tests for the SQL-subset parser, binding, extended aggregates, and the
// query engine end to end (over FullScan and Tsunami indexes).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/core/tsunami.h"
#include "src/query/engine.h"
#include "src/query/sql_parser.h"
#include "src/storage/dictionary.h"

namespace tsunami {
namespace {

// A tiny trips table: (distance, fare_cents, passengers, payment).
// fare has fixed-point scale 100; payment is dictionary encoded.
class QueryLayerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    payment_ = Dictionary::Build({"cash", "credit", "mobile", "credit"});
    data_ = Dataset(4, {});
    // distance, fare(cents), passengers, payment code
    AddRow(1, 550, 1, "cash");
    AddRow(2, 880, 2, "credit");
    AddRow(3, 1275, 1, "credit");
    AddRow(5, 2050, 4, "mobile");
    AddRow(8, 3300, 1, "cash");
    AddRow(13, 5125, 2, "mobile");
    index_ = std::make_unique<FullScanIndex>(data_);
    schema_.table_name = "trips";
    schema_.columns = {"distance", "fare", "passengers", "payment"};
    schema_.scales = {1, 100, 1, 1};
    schema_.dictionaries = {nullptr, nullptr, nullptr, &payment_};
    engine_ = std::make_unique<QueryEngine>(index_.get(), schema_);
  }

  void AddRow(Value dist, Value fare, Value pax, const std::string& pay) {
    data_.AppendRow({dist, fare, pax, payment_.Encode(pay)});
  }

  Dictionary payment_;
  Dataset data_;
  TableSchema schema_;
  std::unique_ptr<FullScanIndex> index_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryLayerTest, CountStarNoWhere) {
  SqlResult r = engine_->Run("SELECT COUNT(*) FROM trips");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 6);
}

TEST_F(QueryLayerTest, CountWithRange) {
  SqlResult r =
      engine_->Run("SELECT COUNT(*) FROM trips WHERE distance <= 5");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 4);
}

TEST_F(QueryLayerTest, SumAggregate) {
  SqlResult r =
      engine_->Run("SELECT SUM(passengers) FROM trips WHERE distance >= 3");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 1 + 4 + 1 + 2);
}

TEST_F(QueryLayerTest, MinMaxAggregates) {
  SqlResult mn = engine_->Run(
      "SELECT MIN(fare) FROM trips WHERE passengers = 1");
  ASSERT_TRUE(mn.ok) << mn.error;
  EXPECT_EQ(mn.value, 550);
  SqlResult mx = engine_->Run(
      "SELECT MAX(fare) FROM trips WHERE passengers = 1");
  ASSERT_TRUE(mx.ok) << mx.error;
  EXPECT_EQ(mx.value, 3300);
}

TEST_F(QueryLayerTest, AvgAggregate) {
  SqlResult r = engine_->Run(
      "SELECT AVG(distance) FROM trips WHERE passengers <= 2");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.value, (1.0 + 2.0 + 3.0 + 8.0 + 13.0) / 5.0);
}

TEST_F(QueryLayerTest, MinMaxAvgOverNoRowsIsZero) {
  SqlResult r = engine_->Run(
      "SELECT MIN(fare) FROM trips WHERE distance > 100");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.stats.matched, 0);
  EXPECT_EQ(r.value, 0.0);
}

TEST_F(QueryLayerTest, DecimalLiteralUsesColumnScale) {
  // fare has scale 100: 12.75 binds to 1275.
  SqlResult r = engine_->Run("SELECT COUNT(*) FROM trips WHERE fare = 12.75");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 1);
  r = engine_->Run("SELECT COUNT(*) FROM trips WHERE fare <= 12.75");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 3);
}

TEST_F(QueryLayerTest, InexactDecimalRoundsConservatively) {
  // 8.805 scales to 880.5: `fare < 8.805` must include 880 and exclude 1275.
  SqlResult r = engine_->Run("SELECT COUNT(*) FROM trips WHERE fare < 8.805");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 2);
  // Equality with a value not representable at scale 100 matches nothing.
  r = engine_->Run("SELECT COUNT(*) FROM trips WHERE fare = 8.8051");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 0);
}

TEST_F(QueryLayerTest, StringEquality) {
  SqlResult r =
      engine_->Run("SELECT COUNT(*) FROM trips WHERE payment = 'credit'");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 2);
}

TEST_F(QueryLayerTest, StringRangeIsLexicographic) {
  // Dictionary order: cash < credit < mobile.
  SqlResult r =
      engine_->Run("SELECT COUNT(*) FROM trips WHERE payment < 'mobile'");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 4);
  r = engine_->Run("SELECT COUNT(*) FROM trips WHERE payment >= 'credit'");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 4);
}

TEST_F(QueryLayerTest, UnknownStringEqualityMatchesNothing) {
  SqlResult r =
      engine_->Run("SELECT COUNT(*) FROM trips WHERE payment = 'bitcoin'");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 0);
  EXPECT_EQ(r.stats.scanned, 0);  // Short-circuited before the index.
}

TEST_F(QueryLayerTest, UnknownStringRangeStillBinds) {
  // 'd...' sorts between credit and mobile even though absent.
  SqlResult r =
      engine_->Run("SELECT COUNT(*) FROM trips WHERE payment > 'dollar'");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 2);  // mobile rows only.
}

TEST_F(QueryLayerTest, BetweenPredicate) {
  SqlResult r = engine_->Run(
      "SELECT COUNT(*) FROM trips WHERE distance BETWEEN 2 AND 8");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 4);
}

TEST_F(QueryLayerTest, BetweenNegativeLiterals) {
  SqlResult r = engine_->Run(
      "SELECT COUNT(*) FROM trips WHERE distance BETWEEN -5 AND -2");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 0);
  r = engine_->Run(
      "SELECT COUNT(*) FROM trips WHERE distance BETWEEN -5 AND 2");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 2);
}

TEST_F(QueryLayerTest, LiteralOnLeftMirrorsOperator) {
  SqlResult r = engine_->Run("SELECT COUNT(*) FROM trips WHERE 5 <= distance");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 3);
  r = engine_->Run("SELECT COUNT(*) FROM trips WHERE 5 > distance");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 3);
}

TEST_F(QueryLayerTest, ConjunctionIntersectsSameColumn) {
  SqlResult r = engine_->Run(
      "SELECT COUNT(*) FROM trips WHERE distance >= 2 AND distance <= 5 AND "
      "distance >= 3");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 2);
}

TEST_F(QueryLayerTest, ContradictoryRangeIsEmptyWithoutExecution) {
  SqlResult r = engine_->Run(
      "SELECT COUNT(*) FROM trips WHERE distance > 5 AND distance < 3");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 0);
  EXPECT_EQ(r.stats.scanned, 0);
}

TEST_F(QueryLayerTest, CaseInsensitiveKeywordsAndNames) {
  SqlResult r = engine_->Run(
      "select count(*) from TRIPS where Distance <= 5 and PASSENGERS = 1");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 2);
}

TEST_F(QueryLayerTest, TrailingSemicolonAccepted) {
  SqlResult r = engine_->Run("SELECT COUNT(*) FROM trips;");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 6);
}

TEST_F(QueryLayerTest, SumOverNamedColumnInAggregate) {
  SqlResult r = engine_->Run("SELECT SUM(fare) FROM trips WHERE distance = 1");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 550);
}

// --- Error paths -----------------------------------------------------------

TEST_F(QueryLayerTest, ErrorUnknownColumn) {
  SqlResult r = engine_->Run("SELECT COUNT(*) FROM trips WHERE speed > 3");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("speed"), std::string::npos);
}

TEST_F(QueryLayerTest, ErrorUnknownTable) {
  SqlResult r = engine_->Run("SELECT COUNT(*) FROM flights");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("flights"), std::string::npos);
}

TEST_F(QueryLayerTest, ErrorMissingSelect) {
  SqlResult r = engine_->Run("COUNT(*) FROM trips");
  EXPECT_FALSE(r.ok);
}

TEST_F(QueryLayerTest, ErrorBadAggregate) {
  SqlResult r = engine_->Run("SELECT MEDIAN(fare) FROM trips");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("aggregate"), std::string::npos);
}

TEST_F(QueryLayerTest, ErrorStringOnNumericColumn) {
  SqlResult r =
      engine_->Run("SELECT COUNT(*) FROM trips WHERE distance = 'far'");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("numeric"), std::string::npos);
}

TEST_F(QueryLayerTest, ErrorUnterminatedString) {
  SqlResult r =
      engine_->Run("SELECT COUNT(*) FROM trips WHERE payment = 'cash");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unterminated"), std::string::npos);
}

TEST_F(QueryLayerTest, ErrorTrailingGarbage) {
  SqlResult r = engine_->Run("SELECT COUNT(*) FROM trips 42");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("trailing"), std::string::npos);
}

TEST_F(QueryLayerTest, ErrorUnexpectedCharacter) {
  SqlResult r = engine_->Run("SELECT COUNT(*) FROM trips WHERE a @ 3");
  EXPECT_FALSE(r.ok);
}

TEST_F(QueryLayerTest, ErrorDanglingOperator) {
  SqlResult r = engine_->Run("SELECT COUNT(*) FROM trips WHERE distance <=");
  EXPECT_FALSE(r.ok);
}

TEST_F(QueryLayerTest, ErrorNegatedString) {
  SqlResult r =
      engine_->Run("SELECT COUNT(*) FROM trips WHERE payment = -'cash'");
  EXPECT_FALSE(r.ok);
}

TEST_F(QueryLayerTest, ErrorTooManyAggregates) {
  // kMaxQueryAggs aggregates bind; one more is the parser's error.
  std::string select = "SELECT COUNT(*)";
  for (int i = 1; i < kMaxQueryAggs; ++i) select += ", SUM(distance)";
  SqlResult r = engine_->Run(select + " FROM trips");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.num_aggs(), kMaxQueryAggs);
  ASSERT_EQ(r.values.size(), static_cast<size_t>(kMaxQueryAggs));
  EXPECT_EQ(r.values.back(), 1 + 2 + 3 + 5 + 8 + 13);
  r = engine_->Run(select + ", MAX(fare) FROM trips");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("too many aggregates"), std::string::npos)
      << r.error;
}

// --- Aggregate accumulator helpers ------------------------------------------

TEST(AggregateTest, IdentityElements) {
  EXPECT_EQ(AggIdentity(AggKind::kCount), 0);
  EXPECT_EQ(AggIdentity(AggKind::kSum), 0);
  EXPECT_EQ(AggIdentity(AggKind::kAvg), 0);
  EXPECT_EQ(AggIdentity(AggKind::kMin), kValueMax);
  EXPECT_EQ(AggIdentity(AggKind::kMax), kValueMin);
}

TEST(AggregateTest, AccumulateMatchesSemantics) {
  int64_t count = AggIdentity(AggKind::kCount);
  int64_t sum = AggIdentity(AggKind::kSum);
  int64_t mn = AggIdentity(AggKind::kMin);
  int64_t mx = AggIdentity(AggKind::kMax);
  for (Value v : {5, -2, 9, 0}) {
    AccumulateAgg(AggKind::kCount, v, &count);
    AccumulateAgg(AggKind::kSum, v, &sum);
    AccumulateAgg(AggKind::kMin, v, &mn);
    AccumulateAgg(AggKind::kMax, v, &mx);
  }
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sum, 12);
  EXPECT_EQ(mn, -2);
  EXPECT_EQ(mx, 9);
}

TEST(AggregateTest, QueryHoldsOneToMaxAggregates) {
  const AggregateSpec count{AggKind::kCount, 0};
  const Query fresh;
  EXPECT_TRUE(std::ranges::equal(fresh.aggs(), std::vector{count}));

  Query q({}, {{AggKind::kSum, 1}, {AggKind::kMax, 2}});
  q.SetAggregates({});
  EXPECT_TRUE(std::ranges::equal(q.aggs(), std::vector{count}));

  std::vector<AggregateSpec> specs;
  for (int i = 0; i < kMaxQueryAggs; ++i) specs.push_back({AggKind::kSum, i});
  q.SetAggregates(specs);
  const Query copy = q;
  EXPECT_EQ(copy.num_aggs(), kMaxQueryAggs);
  EXPECT_TRUE(std::ranges::equal(copy.aggs(), specs));

  // One past the cap throws and leaves the list as it was.
  specs.push_back({AggKind::kMin, 0});
  EXPECT_THROW(q.SetAggregates(specs), std::invalid_argument);
  EXPECT_EQ(q.num_aggs(), kMaxQueryAggs);
  EXPECT_THROW((void)Query({}, specs), std::invalid_argument);
}

TEST(AggregateTest, FinalAvgDividesByMatched) {
  Query q({}, {{AggKind::kAvg, 0}});
  QueryResult r;
  r.agg = 10;
  r.matched = 4;
  EXPECT_DOUBLE_EQ(FinalAggValue(q, r), 2.5);
}

// --- Aggregates through real indexes ----------------------------------------

// Every aggregate kind must produce identical answers through Tsunami (cell
// scans, exact-range skips, region aggregation) and a full scan.
class AggThroughIndexTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(AggThroughIndexTest, TsunamiMatchesFullScan) {
  Rng rng(7);
  const int64_t n = 20000;
  Dataset data(3, {});
  data.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    Value x = rng.UniformValue(0, 1000);
    data.AppendRow({x, x * 2 + rng.UniformValue(-50, 50), rng.UniformValue(0, 100)});
  }
  Workload workload;
  for (int i = 0; i < 40; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 900);
    q.filters = {Predicate{0, lo, lo + 100},
                 Predicate{2, rng.UniformValue(0, 50), 100}};
    q.type = i % 2;
    workload.push_back(q);
  }
  TsunamiOptions options;
  options.cluster_queries = false;
  TsunamiIndex index(data, workload, options);
  ColumnStore reference(data);

  for (Query q : workload) {
    q.SetAggregates({{GetParam(), 1}});
    QueryResult got = index.Execute(q);
    QueryResult want = ExecuteFullScan(reference, q);
    EXPECT_EQ(got.matched, want.matched);
    EXPECT_EQ(got.agg, want.agg)
        << "agg kind " << static_cast<int>(GetParam());
    EXPECT_DOUBLE_EQ(FinalAggValue(q, got), FinalAggValue(q, want));
  }
}

INSTANTIATE_TEST_SUITE_P(AllAggKinds, AggThroughIndexTest,
                         ::testing::Values(AggKind::kCount, AggKind::kSum,
                                           AggKind::kMin, AggKind::kMax,
                                           AggKind::kAvg));

}  // namespace
}  // namespace tsunami
