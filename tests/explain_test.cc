// Tests for the EXPLAIN-style Describe() introspection and a fuzz test of
// the SQL parser (random statements must bind consistently or fail cleanly,
// never crash or mis-answer).
#include <gtest/gtest.h>

#include <string>

#include "src/baselines/full_scan.h"
#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/query/engine.h"

namespace tsunami {
namespace {

class DescribeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(41);
    data_ = Dataset(3, {});
    for (int64_t i = 0; i < 20000; ++i) {
      Value x = rng.UniformValue(0, 100000);
      data_.AppendRow({x, 2 * x + rng.UniformValue(-50, 50),
                       rng.UniformValue(0, 100)});
    }
    for (int i = 0; i < 40; ++i) {
      Query q;
      Value lo = rng.UniformValue(i % 2 == 0 ? 80000 : 0, 90000);
      q.filters = {Predicate{0, lo, lo + (i % 2 == 0 ? 1000 : 30000)}};
      q.type = i % 2;
      workload_.push_back(q);
    }
  }

  Dataset data_;
  Workload workload_;
};

TEST_F(DescribeTest, MentionsEveryRegionAndDimensionNames) {
  TsunamiOptions options;
  options.cluster_queries = false;
  TsunamiIndex index(data_, workload_, options);
  std::string text = index.Describe({"time", "value", "load"});
  EXPECT_NE(text.find("Tsunami:"), std::string::npos);
  for (int r = 0; r < index.stats().num_regions; ++r) {
    EXPECT_NE(text.find("region " + std::to_string(r)), std::string::npos)
        << text;
  }
  // Dimension names appear instead of raw indices wherever used.
  EXPECT_NE(text.find("time"), std::string::npos);
  EXPECT_EQ(text.find("d0="), std::string::npos);
}

TEST_F(DescribeTest, FallsBackToGenericDimNames) {
  TsunamiOptions options;
  options.cluster_queries = false;
  options.use_grid_tree = false;
  TsunamiIndex index(data_, workload_, options);
  std::string text = index.Describe();
  EXPECT_NE(text.find("d0"), std::string::npos);
  EXPECT_NE(text.find("skeleton"), std::string::npos);
}

TEST(GridTreeDescribeTest, EmptyTree) {
  GridTree tree;
  EXPECT_NE(tree.Describe().find("empty"), std::string::npos);
}

// --- SQL parser fuzz ----------------------------------------------------------

// Random token soup must never crash the parser, and whenever it parses,
// running the query must agree with a full scan.
TEST(SqlFuzzTest, RandomTokenSoupNeverCrashes) {
  Rng rng(77);
  Dataset data(2, {});
  for (int i = 0; i < 1000; ++i) {
    data.AppendRow({rng.UniformValue(0, 100), rng.UniformValue(0, 100)});
  }
  FullScanIndex index(data);
  TableSchema schema;
  schema.table_name = "t";
  schema.columns = {"a", "b"};
  QueryEngine engine(&index, schema);

  const char* tokens[] = {"SELECT", "COUNT",  "(",   ")",  "*",   "FROM",
                          "t",      "WHERE",  "a",   "b",  "c",   "AND",
                          "BETWEEN", "<=",    ">=",  "<",  ">",   "=",
                          "5",      "-3",     "2.5", "'x'", ";",  "SUM",
                          "AVG",    "99999999999999999999"};
  for (int trial = 0; trial < 3000; ++trial) {
    std::string sql;
    int n = 1 + static_cast<int>(rng.NextBelow(12));
    for (int i = 0; i < n; ++i) {
      sql += tokens[rng.NextBelow(std::size(tokens))];
      sql += ' ';
    }
    SqlResult result = engine.Run(sql);  // Must not crash or hang.
    if (result.ok) {
      // Whatever parsed must agree with a direct scan of the bound query.
      ColumnStore reference(data);
      QueryResult want = ExecuteFullScan(reference, result.query);
      EXPECT_EQ(result.stats.matched, want.matched) << sql;
    } else {
      EXPECT_FALSE(result.error.empty()) << sql;
    }
  }
}

// Generated well-formed statements must always parse and answer correctly.
TEST(SqlFuzzTest, GeneratedStatementsAlwaysParseAndMatchScan) {
  Rng rng(78);
  Dataset data(3, {});
  for (int i = 0; i < 5000; ++i) {
    data.AppendRow({rng.UniformValue(-500, 500), rng.UniformValue(0, 10),
                    rng.UniformValue(0, 100000)});
  }
  FullScanIndex index(data);
  TableSchema schema;
  schema.table_name = "t";
  schema.columns = {"x", "y", "z"};
  QueryEngine engine(&index, schema);
  ColumnStore reference(data);

  const char* aggs[] = {"COUNT(*)", "SUM(x)", "MIN(z)", "MAX(z)", "AVG(y)"};
  const char* ops[] = {"<", "<=", ">", ">=", "="};
  for (int trial = 0; trial < 500; ++trial) {
    std::string sql = std::string("SELECT ") + aggs[rng.NextBelow(5)] +
                      " FROM t WHERE ";
    int preds = 1 + static_cast<int>(rng.NextBelow(3));
    for (int p = 0; p < preds; ++p) {
      if (p > 0) sql += " AND ";
      const char* col = schema.columns[rng.NextBelow(3)].c_str();
      if (rng.NextBool(0.25)) {
        Value lo = rng.UniformValue(-600, 400);
        sql += std::string(col) + " BETWEEN " + std::to_string(lo) + " AND " +
               std::to_string(lo + rng.UniformValue(0, 300));
      } else {
        sql += std::string(col) + " " + ops[rng.NextBelow(5)] + " " +
               std::to_string(rng.UniformValue(-600, 600));
      }
    }
    SqlResult result = engine.Run(sql);
    ASSERT_TRUE(result.ok) << sql << " -> " << result.error;
    QueryResult want = ExecuteFullScan(reference, result.query);
    EXPECT_EQ(result.stats.matched, want.matched) << sql;
    EXPECT_DOUBLE_EQ(result.value, FinalAggValue(result.query, want)) << sql;
  }
}

}  // namespace
}  // namespace tsunami
