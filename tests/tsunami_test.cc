// End-to-end tests for TsunamiIndex and FloodIndex: correctness against a
// full scan across all four dataset emulators and all drill-down variants,
// structural sanity of the optimized index, and workload-shift rebuilds.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/datasets/datasets.h"
#include "src/flood/flood.h"

namespace tsunami {
namespace {

TsunamiOptions SmallOptions() {
  TsunamiOptions options;
  options.sample_rows = 20000;
  options.agd.max_sample_points = 512;
  options.agd.max_sample_queries = 32;
  options.agd.max_iters = 2;
  options.agd.max_cells = 1 << 12;
  return options;
}

void CheckMatchesFullScan(const MultiDimIndex& index, const Benchmark& bench,
                          const FullScanIndex& reference) {
  for (const Query& q : bench.workload) {
    QueryResult expected = reference.Execute(q);
    QueryResult got = index.Execute(q);
    ASSERT_EQ(got.agg, expected.agg)
        << index.Name() << " on " << bench.name;
    ASSERT_EQ(got.matched, expected.matched);
  }
}

class TsunamiDatasetTest : public ::testing::TestWithParam<int> {
 protected:
  Benchmark MakeBench() const {
    switch (GetParam()) {
      case 0:
        return MakeTpchBenchmark(8000, 41, 12);
      case 1:
        return MakeTaxiBenchmark(8000, 42, 12);
      case 2:
        return MakePerfmonBenchmark(8000, 43, 12);
      default:
        return MakeStocksBenchmark(8000, 44, 12);
    }
  }
};

TEST_P(TsunamiDatasetTest, TsunamiMatchesFullScan) {
  Benchmark bench = MakeBench();
  FullScanIndex reference(bench.data);
  TsunamiIndex index(bench.data, bench.workload, SmallOptions());
  CheckMatchesFullScan(index, bench, reference);
}

TEST_P(TsunamiDatasetTest, FloodMatchesFullScan) {
  Benchmark bench = MakeBench();
  FullScanIndex reference(bench.data);
  FloodOptions options;
  options.agd.max_sample_points = 512;
  options.agd.max_sample_queries = 32;
  options.agd.max_iters = 2;
  FloodIndex index(bench.data, bench.workload, options);
  CheckMatchesFullScan(index, bench, reference);
}

TEST_P(TsunamiDatasetTest, GridTreeOnlyVariantMatchesFullScan) {
  Benchmark bench = MakeBench();
  FullScanIndex reference(bench.data);
  TsunamiOptions options = SmallOptions();
  options.use_augmentation = false;
  options.name = "GridTreeOnly";
  TsunamiIndex index(bench.data, bench.workload, options);
  EXPECT_EQ(index.Name(), "GridTreeOnly");
  CheckMatchesFullScan(index, bench, reference);
}

TEST_P(TsunamiDatasetTest, AugmentedGridOnlyVariantMatchesFullScan) {
  Benchmark bench = MakeBench();
  FullScanIndex reference(bench.data);
  TsunamiOptions options = SmallOptions();
  options.use_grid_tree = false;
  TsunamiIndex index(bench.data, bench.workload, options);
  EXPECT_EQ(index.stats().num_regions, 1);
  CheckMatchesFullScan(index, bench, reference);
}

std::string DatasetName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"TpcH", "Taxi", "Perfmon", "Stocks"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Datasets, TsunamiDatasetTest,
                         ::testing::Values(0, 1, 2, 3), DatasetName);

TEST(TsunamiIndexTest, StatsAreConsistent) {
  Benchmark bench = MakeTpchBenchmark(8000, 45, 12);
  TsunamiIndex index(bench.data, bench.workload, SmallOptions());
  const TsunamiIndex::Stats& stats = index.stats();
  EXPECT_GE(stats.num_query_types, 1);
  EXPECT_GE(stats.num_regions, 1);
  EXPECT_GE(stats.tree_nodes, stats.num_regions);
  EXPECT_LE(stats.num_indexed_regions, stats.num_regions);
  EXPECT_GE(stats.total_cells, stats.num_indexed_regions);
  EXPECT_LE(stats.min_region_points, stats.median_region_points);
  EXPECT_LE(stats.median_region_points, stats.max_region_points);
  EXPECT_GT(index.IndexSizeBytes(), 0);
}

TEST(TsunamiIndexTest, RegionsPartitionAllRows) {
  Benchmark bench = MakeStocksBenchmark(6000, 46, 10);
  TsunamiIndex index(bench.data, bench.workload, SmallOptions());
  // An unfiltered COUNT(*) query must touch every row exactly once.
  Query all;
  QueryResult result = index.Execute(all);
  EXPECT_EQ(result.agg, bench.data.size());
}

TEST(TsunamiIndexTest, RebuildForShiftedWorkloadStaysCorrect) {
  Benchmark bench = MakeTpchBenchmark(8000, 47, 12);
  Workload shifted = MakeTpchShiftedWorkload(bench.data, 48, 12);
  FullScanIndex reference(bench.data);
  TsunamiIndex rebuilt(bench.data, shifted, SmallOptions());
  for (const Query& q : shifted) {
    QueryResult expected = reference.Execute(q);
    ASSERT_EQ(rebuilt.Execute(q).agg, expected.agg);
  }
  // The old workload still answers correctly (performance may differ).
  CheckMatchesFullScan(rebuilt, bench, reference);
}

TEST(TsunamiIndexTest, PreLabeledTypesAreRespected) {
  Benchmark bench = MakeTaxiBenchmark(6000, 49, 10);
  TsunamiOptions options = SmallOptions();
  options.cluster_queries = false;  // Use generator labels (6 types).
  TsunamiIndex index(bench.data, bench.workload, options);
  EXPECT_EQ(index.stats().num_query_types, 6);
  FullScanIndex reference(bench.data);
  CheckMatchesFullScan(index, bench, reference);
}

TEST(TsunamiIndexTest, EmptyWorkloadBuildsUnindexedRegions) {
  Benchmark bench = MakeUniformBenchmark(3, 2000, 50, 5);
  TsunamiIndex index(bench.data, Workload{}, SmallOptions());
  FullScanIndex reference(bench.data);
  CheckMatchesFullScan(index, bench, reference);
}

TEST(TsunamiIndexTest, RepairsQuarantinedBlocksFromDeltaFold) {
  // Initial table lives entirely in dim0 <= 10000; the folded delta rows
  // live far above, so after the fold constructor merges them in, the
  // clustered store's tail blocks hold *only* delta-origin rows — exactly
  // the blocks the fold backup can re-materialize if they go corrupt.
  Rng rng(53);
  Dataset data(2, {});
  for (int i = 0; i < 6000; ++i) {
    Value x = rng.UniformValue(0, 10000);
    data.AppendRow({x, rng.UniformValue(0, 500)});
  }
  Workload workload;
  for (int i = 0; i < 12; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 9000);
    q.filters.push_back(Predicate{0, lo, lo + 800});
    workload.push_back(q);
  }
  TsunamiIndex initial(data, workload, SmallOptions());
  Dataset delta(2, {});
  for (int i = 0; i < 3000; ++i) {
    delta.AppendRow(
        {rng.UniformValue(100000, 110000), rng.UniformValue(0, 500)});
  }
  TsunamiIndex rebuilt(initial, delta, workload, SmallOptions());

  Query over_new;
  over_new.filters.push_back(Predicate{0, 100000, 110000});
  over_new.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
  QueryResult want = rebuilt.Execute(over_new);
  EXPECT_EQ(want.matched, 3000);
  EXPECT_FALSE(want.degraded);

  // Find the wholly-delta blocks (every row's dim0 is in the insert
  // range — only delta rows live there) and quarantine them in both dims.
  const ColumnStore& store = rebuilt.store();
  std::vector<int64_t> delta_blocks;
  for (int64_t b = 0; b * kScanBlockRows < store.size(); ++b) {
    const int64_t lo = b * kScanBlockRows;
    const int64_t hi = std::min(store.size(), lo + kScanBlockRows);
    bool all_delta = true;
    for (int64_t r = lo; r < hi && all_delta; ++r) {
      all_delta = store.Get(r, 0) >= 100000;
    }
    if (all_delta) delta_blocks.push_back(b);
  }
  ASSERT_GE(delta_blocks.size(), 1u);  // 3000 tail rows span >= 1 block.
  for (int64_t b : delta_blocks) {
    store.encoded(0).Quarantine(b);
    store.encoded(1).Quarantine(b);
  }
  const int64_t quarantined = static_cast<int64_t>(delta_blocks.size()) * 2;
  EXPECT_EQ(store.QuarantinedBlocks(), quarantined);
  QueryResult degraded = rebuilt.Execute(over_new);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_LT(degraded.matched, want.matched);

  // Repair from the fold backup, on a copy: every quarantined block was
  // wholly delta-origin, so every one heals and the copy is exact again,
  // while the original stays degraded.
  int64_t repaired = 0;
  std::unique_ptr<TsunamiIndex> copy = rebuilt.RepairedCopy(&repaired);
  EXPECT_EQ(repaired, quarantined);
  EXPECT_EQ(copy->store().QuarantinedBlocks(), 0);
  QueryResult healed = copy->Execute(over_new);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.agg, want.agg);
  EXPECT_EQ(healed.matched, want.matched);
  EXPECT_EQ(store.QuarantinedBlocks(), quarantined);
  QueryResult original = rebuilt.Execute(over_new);
  EXPECT_TRUE(original.degraded);
  EXPECT_EQ(original.matched, degraded.matched);
}

TEST(FloodIndexTest, ReportsCellsAndTimings) {
  Benchmark bench = MakeTpchBenchmark(6000, 51, 10);
  FloodOptions options;
  options.agd.max_sample_points = 512;
  options.agd.max_sample_queries = 32;
  FloodIndex index(bench.data, bench.workload, options);
  EXPECT_GE(index.num_cells(), 1);
  EXPECT_GE(index.optimize_seconds(), 0.0);
  EXPECT_GE(index.sort_seconds(), 0.0);
  // Flood never uses augmentation.
  EXPECT_EQ(index.grid().skeleton().NumMapped(), 0);
  EXPECT_EQ(index.grid().skeleton().NumConditional(), 0);
}

}  // namespace
}  // namespace tsunami
