// Tests for the secondary-index module (§1 motivation, §7 Correlation
// Map / Hermit): the conventional sorted row-id index and the learned
// correlation index must agree with a full scan (over a store with a
// quarantined block too), the learned index must stay model-sized, and its
// outlier buffer must absorb rows that break the correlation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/secondary/secondary_index.h"
#include "src/serve/query_service.h"

namespace tsunami {
namespace {

// (ship_date, receipt_date, quantity): receipt trails ship by 1-30 days —
// the tight monotone correlation Hermit exploits.
Dataset MakeShippingData(int64_t rows, double outlier_rate, uint64_t seed) {
  Rng rng(seed);
  Dataset data(3, {});
  data.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    Value ship = rng.UniformValue(0, 3650);
    Value receipt = ship + rng.UniformValue(1, 30);
    if (rng.NextBool(outlier_rate)) {
      receipt = ship + rng.UniformValue(200, 2000);  // Lost in transit.
    }
    data.AppendRow({ship, receipt, rng.UniformValue(1, 50)});
  }
  return data;
}

Workload MakeKeyQueries(int count, uint64_t seed) {
  Rng rng(seed);
  Workload queries;
  for (int i = 0; i < count; ++i) {
    Value lo = rng.UniformValue(0, 3500);
    Query q;
    q.filters = {Predicate{1, lo, lo + static_cast<Value>(rng.NextBelow(120))}};
    if (rng.NextBool(0.3)) {
      q.filters.push_back(Predicate{2, 1, 25});
    }
    queries.push_back(q);
  }
  return queries;
}

class SecondaryKindTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<MultiDimIndex> Make(const Dataset& data) const {
    if (GetParam() == 0) {
      return std::make_unique<SortedSecondaryIndex>(data, /*host_dim=*/0,
                                                    /*key_dim=*/1);
    }
    return std::make_unique<CorrelationSecondaryIndex>(data, /*host_dim=*/0,
                                                       /*key_dim=*/1);
  }
};

TEST_P(SecondaryKindTest, MatchesFullScanOnKeyQueries) {
  Dataset data = MakeShippingData(20000, 0.01, 42);
  std::unique_ptr<MultiDimIndex> index = Make(data);
  FullScanIndex full(data);
  for (const Query& q : MakeKeyQueries(60, 7)) {
    QueryResult got = index->Execute(q);
    QueryResult want = full.Execute(q);
    ASSERT_EQ(got.matched, want.matched);
    ASSERT_EQ(got.agg, want.agg);
  }
}

TEST_P(SecondaryKindTest, HostAndFilterlessQueriesFallBack) {
  Dataset data = MakeShippingData(5000, 0.0, 43);
  std::unique_ptr<MultiDimIndex> index = Make(data);
  FullScanIndex full(data);

  Query host_only;
  host_only.filters = {Predicate{0, 1000, 1999}};
  EXPECT_EQ(index->Execute(host_only).matched,
            full.Execute(host_only).matched);

  Query no_filter;
  EXPECT_EQ(index->Execute(no_filter).matched, 5000);

  Query other_dim;
  other_dim.filters = {Predicate{2, 10, 20}};
  EXPECT_EQ(index->Execute(other_dim).matched,
            full.Execute(other_dim).matched);
}

TEST_P(SecondaryKindTest, AllAggregateKinds) {
  Dataset data = MakeShippingData(8000, 0.01, 44);
  std::unique_ptr<MultiDimIndex> index = Make(data);
  FullScanIndex full(data);
  for (AggKind agg : {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                      AggKind::kMax, AggKind::kAvg}) {
    Query q;
    q.filters = {Predicate{1, 500, 700}};
    q.SetAggregates({{agg, 2}});
    QueryResult got = index->Execute(q);
    QueryResult want = full.Execute(q);
    EXPECT_EQ(got.agg, want.agg) << static_cast<int>(agg);
    EXPECT_EQ(got.matched, want.matched);
  }
}

TEST_P(SecondaryKindTest, EmptyAndTinyDatasets) {
  Dataset empty(3, {});
  std::unique_ptr<MultiDimIndex> e = Make(empty);
  Query q;
  q.filters = {Predicate{1, 0, 100}};
  EXPECT_EQ(e->Execute(q).matched, 0);

  Dataset one(3, {5, 9, 2});
  std::unique_ptr<MultiDimIndex> o = Make(one);
  EXPECT_EQ(o->Execute(q).matched, 1);
  Query miss;
  miss.filters = {Predicate{1, 100, 200}};
  EXPECT_EQ(o->Execute(miss).matched, 0);
}

// A quarantined block is skipped and flagged by the row probes too, not
// only by the host-range scans: Execute, ExecutePlan and a QueryService
// answer all equal a full scan of the same store. The block holds a row
// that matches the key filter but breaks the correlation, so BTree probes
// it by row id and Hermit probes it as an outlier. Quarantining the key
// column also hides the key Hermit reads to decide whether to probe.
TEST_P(SecondaryKindTest, QuarantinedBlockIsSkippedByEveryPath) {
  Dataset data = MakeShippingData(20000, 0.005, 51);
  Query q;
  q.filters = {Predicate{1, 1500, 1800}};
  q.SetAggregates({{AggKind::kSum, 2}});
  for (int column : {1, 2}) {
    SCOPED_TRACE("quarantined column " + std::to_string(column));
    std::unique_ptr<MultiDimIndex> index = Make(data);
    const ColumnStore& store = index->store();
    int64_t block = -1;
    for (int64_t r = 0; r < store.size() && block < 0; ++r) {
      const Value key = store.Get(r, 1);
      if (key >= 1500 && key <= 1800 && key - store.Get(r, 0) > 100) {
        block = r / kScanBlockRows;
      }
    }
    ASSERT_GE(block, 0);
    store.encoded(column).Quarantine(block);
    const QueryResult want = ExecuteFullScan(store, q);
    ASSERT_TRUE(want.degraded);

    ExecContext ctx;
    ServiceOptions options;
    options.threads = 2;
    QueryService service(index.get(), options);
    const std::pair<std::string, QueryResult> paths[] = {
        {"Execute", index->Execute(q)},
        {"ExecutePlan", index->ExecutePlan(index->Prepare(q), ctx)},
        {"QueryService", service.Run(q)}};
    for (const auto& [path, got] : paths) {
      EXPECT_EQ(got.agg, want.agg) << path;
      EXPECT_EQ(got.matched, want.matched) << path;
      EXPECT_EQ(got.degraded, want.degraded) << path;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SecondaryKindTest, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? std::string("BTree")
                                                  : std::string("Hermit");
                         });

TEST(CorrelationSecondaryTest, ModelSizedVersusRowSized) {
  Dataset data = MakeShippingData(50000, 0.005, 45);
  SortedSecondaryIndex btree(data, 0, 1);
  CorrelationSecondaryIndex hermit(data, 0, 1);
  // The paper's Hermit claim: orders of magnitude smaller than a row-id
  // secondary index on correlated columns.
  EXPECT_LT(hermit.IndexSizeBytes() * 20, btree.IndexSizeBytes());
}

TEST(CorrelationSecondaryTest, OutlierBufferAbsorbsBrokenRows) {
  Dataset clean = MakeShippingData(20000, 0.0, 46);
  Dataset dirty = MakeShippingData(20000, 0.02, 46);
  CorrelationSecondaryIndex clean_index(clean, 0, 1);
  CorrelationSecondaryIndex dirty_index(dirty, 0, 1);
  EXPECT_GT(dirty_index.num_outliers(), clean_index.num_outliers());

  // Outliers must still be findable.
  FullScanIndex full(dirty);
  Query wide;
  wide.filters = {Predicate{1, 2000, 5000}};
  EXPECT_EQ(dirty_index.Execute(wide).matched, full.Execute(wide).matched);
}

TEST(CorrelationSecondaryTest, TightCorrelationScansNarrowHostBand) {
  Dataset data = MakeShippingData(40000, 0.0, 47);
  CorrelationSecondaryIndex hermit(data, 0, 1);
  Query q;
  q.filters = {Predicate{1, 1000, 1059}};
  QueryResult r = hermit.Execute(q);
  FullScanIndex full(data);
  ASSERT_EQ(r.matched, full.Execute(q).matched);
  // Receipt spans 60 days and the error band adds ~30: the host scan
  // should touch a small multiple of the matches, not the whole table.
  EXPECT_LT(r.scanned, data.size() / 10);
  EXPECT_GT(r.matched, 0);
}

TEST(CorrelationSecondaryTest, NegativeCorrelationWorks) {
  Rng rng(48);
  Dataset data(2, {});
  for (int i = 0; i < 20000; ++i) {
    Value x = rng.UniformValue(0, 9999);
    data.AppendRow({x, 20000 - 2 * x + rng.UniformValue(-25, 25)});
  }
  CorrelationSecondaryIndex hermit(data, 0, 1);
  FullScanIndex full(data);
  Rng qrng(49);
  for (int i = 0; i < 30; ++i) {
    Value lo = qrng.UniformValue(0, 19000);
    Query q;
    q.filters = {Predicate{1, lo, lo + 500}};
    ASSERT_EQ(hermit.Execute(q).matched, full.Execute(q).matched)
        << "query " << i;
  }
}

TEST(SortedSecondaryTest, ProbeCountTracksCandidates) {
  Dataset data = MakeShippingData(10000, 0.0, 50);
  SortedSecondaryIndex btree(data, 0, 1);
  Query narrow;
  narrow.filters = {Predicate{1, 100, 104}};
  Query wide;
  wide.filters = {Predicate{1, 100, 1099}};
  QueryResult rn = btree.Execute(narrow);
  QueryResult rw = btree.Execute(wide);
  // Every candidate is one probe (one random access).
  EXPECT_EQ(rn.scanned, rn.cell_ranges);
  EXPECT_EQ(rw.scanned, rw.cell_ranges);
  EXPECT_GT(rw.scanned, rn.scanned);
}

}  // namespace
}  // namespace tsunami
