// Tests for the learned related-work baselines (§7): the ZM-index [44]
// (Z-order + RMI, learned from data only) and the greedy qd-tree [46]
// (workload-aware block partitioning). Both must agree with a full scan on
// every evaluation dataset, and their structural claims (model-sized
// overhead, query-adapted blocks) must hold.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/baselines/qd_tree.h"
#include "src/baselines/zm_index.h"
#include "src/common/random.h"
#include "src/datasets/datasets.h"

namespace tsunami {
namespace {

using BenchIndexParam = std::tuple<int, int>;

class LearnedBaselineTest : public ::testing::TestWithParam<BenchIndexParam> {
 protected:
  Benchmark MakeBench() const {
    switch (std::get<0>(GetParam())) {
      case 0:
        return MakeTpchBenchmark(30000);
      case 1:
        return MakeTaxiBenchmark(30000);
      case 2:
        return MakePerfmonBenchmark(30000);
      default:
        return MakeStocksBenchmark(30000);
    }
  }
};

TEST_P(LearnedBaselineTest, MatchesFullScan) {
  Benchmark bench = MakeBench();
  std::unique_ptr<MultiDimIndex> index;
  if (std::get<1>(GetParam()) == 0) {
    index = std::make_unique<ZmIndex>(bench.data);
  } else {
    QdTreeIndex::Options options;
    options.min_leaf_rows = 512;
    index = std::make_unique<QdTreeIndex>(bench.data, bench.workload,
                                          options);
  }
  FullScanIndex full(bench.data);
  for (size_t i = 0; i < bench.workload.size(); i += 7) {
    const Query& q = bench.workload[i];
    QueryResult got = index->Execute(q);
    QueryResult want = full.Execute(q);
    ASSERT_EQ(got.matched, want.matched)
        << bench.name << " query " << i << " on " << index->Name();
    ASSERT_EQ(got.agg, want.agg)
        << bench.name << " query " << i << " on " << index->Name();
  }
}

std::string BenchIndexName(
    const ::testing::TestParamInfo<BenchIndexParam>& info) {
  static const char* kBench[] = {"TpcH", "Taxi", "Perfmon", "Stocks"};
  static const char* kIndex[] = {"Zm", "QdTree"};
  return std::string(kIndex[std::get<1>(info.param)]) +
         kBench[std::get<0>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, LearnedBaselineTest,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 2)),
    BenchIndexName);

// --- ZM-index structure -------------------------------------------------------

TEST(ZmIndexTest, ErrorBoundIsRespectedAndOverheadIsModelSized) {
  Rng rng(5);
  Dataset data(3, {});
  for (int i = 0; i < 20000; ++i) {
    Value x = rng.UniformValue(0, 100000);
    data.AppendRow({x, x / 3 + rng.UniformValue(-50, 50),
                    rng.UniformValue(0, 999)});
  }
  ZmIndex index(data);
  // Overhead must stay model-sized: far below one value per row.
  EXPECT_LT(index.IndexSizeBytes(), data.size() * 8 / 4);
  EXPECT_GE(index.max_error(), 0);
  EXPECT_LT(index.max_error(), data.size());
}

TEST(ZmIndexTest, EmptyAndSingleRowDatasets) {
  Dataset empty(2, {});
  ZmIndex zi(empty);
  Query q;
  q.filters = {Predicate{0, 0, 10}};
  EXPECT_EQ(zi.Execute(q).matched, 0);

  Dataset one(2, {5, 7});
  ZmIndex z1(one);
  EXPECT_EQ(z1.Execute(q).matched, 1);
  Query miss;
  miss.filters = {Predicate{0, 6, 10}};
  EXPECT_EQ(z1.Execute(miss).matched, 0);
}

TEST(ZmIndexTest, FullDomainQueryScansEverything) {
  Rng rng(6);
  Dataset data(2, {});
  for (int i = 0; i < 5000; ++i) {
    data.AppendRow({rng.UniformValue(0, 999), rng.UniformValue(0, 999)});
  }
  ZmIndex index(data);
  Query q;  // No filters.
  QueryResult r = index.Execute(q);
  EXPECT_EQ(r.matched, 5000);
}

// --- Qd-tree structure --------------------------------------------------------

TEST(QdTreeTest, AdaptsBlocksToWorkloadSkew) {
  // Uniform 2-d data; every query hits the small hot corner. The greedy
  // cuts should isolate the corner so hot queries scan far fewer rows
  // than n.
  Rng rng(7);
  Dataset data(2, {});
  constexpr int64_t kRows = 40000;
  for (int64_t i = 0; i < kRows; ++i) {
    data.AppendRow({rng.UniformValue(0, 9999), rng.UniformValue(0, 9999)});
  }
  Workload workload;
  for (int i = 0; i < 50; ++i) {
    Value x = rng.UniformValue(9000, 9800);
    Value y = rng.UniformValue(9000, 9800);
    Query q;
    q.filters = {Predicate{0, x, x + 199}, Predicate{1, y, y + 199}};
    workload.push_back(q);
  }
  QdTreeIndex::Options options;
  options.min_leaf_rows = 256;
  QdTreeIndex index(data, workload, options);
  EXPECT_GT(index.num_leaves(), 1);

  int64_t scanned = 0;
  for (const Query& q : workload) scanned += index.Execute(q).scanned;
  // The hot region is ~1% of space; without adaptation each query scans
  // all 40k rows. Expect at least a 10x improvement on average.
  EXPECT_LT(scanned / static_cast<int64_t>(workload.size()), kRows / 10);
}

TEST(QdTreeTest, DegeneratesToOneLeafWithoutUsefulCuts) {
  // Queries with no filters offer no candidate cuts.
  Rng rng(8);
  Dataset data(2, {});
  for (int i = 0; i < 2000; ++i) {
    data.AppendRow({rng.UniformValue(0, 99), rng.UniformValue(0, 99)});
  }
  Workload workload(3);  // Filterless queries.
  QdTreeIndex index(data, workload);
  EXPECT_EQ(index.num_leaves(), 1);
  EXPECT_EQ(index.Execute(workload[0]).matched, 2000);
}

TEST(QdTreeTest, RespectsDepthLimit) {
  Rng rng(9);
  Dataset data(1, {});
  for (int i = 0; i < 30000; ++i) data.AppendRow({rng.UniformValue(0, 1 << 20)});
  Workload workload;
  for (int i = 0; i < 64; ++i) {
    Value lo = rng.UniformValue(0, (1 << 20) - 1000);
    Query q;
    q.filters = {Predicate{0, lo, lo + 999}};
    workload.push_back(q);
  }
  QdTreeIndex::Options options;
  options.min_leaf_rows = 16;
  options.max_depth = 5;
  QdTreeIndex index(data, workload, options);
  EXPECT_LE(index.depth(), 5);
  FullScanIndex full(data);
  for (const Query& q : workload) {
    ASSERT_EQ(index.Execute(q).matched, full.Execute(q).matched);
  }
}

TEST(QdTreeTest, AggregatesMatchFullScan) {
  Rng rng(10);
  Dataset data(3, {});
  for (int i = 0; i < 10000; ++i) {
    data.AppendRow({rng.UniformValue(0, 999), rng.UniformValue(0, 999),
                    rng.UniformValue(-100, 100)});
  }
  Workload workload;
  for (int i = 0; i < 20; ++i) {
    Value lo = rng.UniformValue(0, 800);
    Query q;
    q.filters = {Predicate{0, lo, lo + 150}};
    workload.push_back(q);
  }
  QdTreeIndex index(data, workload);
  FullScanIndex full(data);
  for (AggKind agg :
       {AggKind::kCount, AggKind::kSum, AggKind::kMin, AggKind::kMax,
        AggKind::kAvg}) {
    Query q = workload[3];
    q.SetAggregates({{agg, 2}});
    QueryResult got = index.Execute(q);
    QueryResult want = full.Execute(q);
    EXPECT_EQ(got.agg, want.agg) << static_cast<int>(agg);
    EXPECT_EQ(got.matched, want.matched);
  }
}

}  // namespace
}  // namespace tsunami
