// Unit and property tests for Skeleton and AugmentedGrid: structural
// validation rules, and query correctness against a full scan across
// skeleton shapes, partition counts, and datasets.
#include <numeric>

#include <gtest/gtest.h>

#include "src/baselines/full_scan.h"
#include "src/core/augmented_grid.h"
#include "src/core/skeleton.h"
#include "src/datasets/synthetic.h"
#include "src/datasets/taxi.h"

namespace tsunami {
namespace {

TEST(SkeletonTest, AllIndependentValidates) {
  Skeleton s = Skeleton::AllIndependent(4);
  EXPECT_TRUE(s.Validate());
  EXPECT_EQ(s.GridDims().size(), 4u);
  EXPECT_EQ(s.NumMapped(), 0);
  EXPECT_EQ(s.NumConditional(), 0);
}

TEST(SkeletonTest, EmptySkeletonInvalid) {
  Skeleton s;
  std::string error;
  EXPECT_FALSE(s.Validate(&error));
  EXPECT_FALSE(error.empty());
}

TEST(SkeletonTest, MappedTargetCannotBeMapped) {
  Skeleton s = Skeleton::AllIndependent(3);
  s.dims[0] = {PartitionStrategy::kMapped, 1};
  s.dims[1] = {PartitionStrategy::kMapped, 2};
  EXPECT_FALSE(s.Validate());
  s.dims[0] = {PartitionStrategy::kMapped, 2};
  EXPECT_TRUE(s.Validate());
}

TEST(SkeletonTest, ConditionalBaseMustBeIndependent) {
  Skeleton s = Skeleton::AllIndependent(3);
  s.dims[1] = {PartitionStrategy::kConditional, 0};
  EXPECT_TRUE(s.Validate());
  // Base becomes conditional itself: invalid.
  s.dims[0] = {PartitionStrategy::kConditional, 2};
  EXPECT_FALSE(s.Validate());
  // Base becomes mapped: invalid ("a base dimension cannot be mapped").
  s.dims[0] = {PartitionStrategy::kMapped, 2};
  EXPECT_FALSE(s.Validate());
}

TEST(SkeletonTest, OtherMustBeDistinctInRange) {
  Skeleton s = Skeleton::AllIndependent(2);
  s.dims[0] = {PartitionStrategy::kMapped, 0};
  EXPECT_FALSE(s.Validate());
  s.dims[0] = {PartitionStrategy::kMapped, 5};
  EXPECT_FALSE(s.Validate());
}

TEST(SkeletonTest, AtLeastOneGridDim) {
  Skeleton s = Skeleton::AllIndependent(2);
  s.dims[0] = {PartitionStrategy::kMapped, 1};
  EXPECT_TRUE(s.Validate());
  s.dims[1] = {PartitionStrategy::kMapped, 0};
  EXPECT_FALSE(s.Validate());  // Also violates target-not-mapped.
}

TEST(SkeletonTest, ToStringNotation) {
  Skeleton s = Skeleton::AllIndependent(3);
  s.dims[1] = {PartitionStrategy::kConditional, 0};
  s.dims[2] = {PartitionStrategy::kMapped, 0};
  EXPECT_EQ(s.ToString(), "[d0, d1|d0, d2->d0]");
}

// --- AugmentedGrid correctness ---

// Builds a grid over the whole benchmark dataset and checks every query's
// aggregate against the full-scan reference.
void CheckGridMatchesFullScan(const Benchmark& bench,
                              const Skeleton& skeleton,
                              const std::vector<int>& partitions) {
  FullScanIndex reference(bench.data);
  std::vector<uint32_t> rows(bench.data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  AugmentedGrid grid;
  grid.Build(bench.data, &rows, skeleton, partitions, {});
  ColumnStore store(bench.data, rows);
  grid.Attach(&store, 0);
  for (const Query& q : bench.workload) {
    QueryResult expected = reference.Execute(q);
    QueryResult got;
    grid.Execute(q, &got);
    ASSERT_EQ(got.agg, expected.agg) << skeleton.ToString();
    ASSERT_EQ(got.matched, expected.matched);
  }
}

TEST(AugmentedGridTest, IndependentSkeletonMatchesFullScanUniform) {
  Benchmark bench = MakeUniformBenchmark(3, 4000, 21, 10);
  CheckGridMatchesFullScan(bench, Skeleton::AllIndependent(3), {4, 5, 3});
}

TEST(AugmentedGridTest, SinglePartitionGridIsOneCell) {
  Benchmark bench = MakeUniformBenchmark(2, 500, 22, 5);
  std::vector<uint32_t> rows(bench.data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  AugmentedGrid grid;
  grid.Build(bench.data, &rows, Skeleton::AllIndependent(2), {1, 1}, {});
  EXPECT_EQ(grid.num_cells(), 1);
}

TEST(AugmentedGridTest, MappedSkeletonMatchesFullScanCorrelated) {
  Benchmark bench = MakeScalingBenchmark(4, 4000, /*correlated=*/true, 23, 10);
  Skeleton s = Skeleton::AllIndependent(4);
  s.dims[2] = {PartitionStrategy::kMapped, 0};  // dim2 ~ dim0 (±1%).
  CheckGridMatchesFullScan(bench, s, {8, 4, 1, 4});
}

TEST(AugmentedGridTest, ConditionalSkeletonMatchesFullScanCorrelated) {
  Benchmark bench = MakeScalingBenchmark(4, 4000, /*correlated=*/true, 24, 10);
  Skeleton s = Skeleton::AllIndependent(4);
  s.dims[3] = {PartitionStrategy::kConditional, 1};  // dim3 ~ dim1 (±10%).
  CheckGridMatchesFullScan(bench, s, {6, 6, 4, 5});
}

TEST(AugmentedGridTest, MixedSkeletonMatchesFullScanTaxi) {
  Benchmark bench = MakeTaxiBenchmark(5000, 25, 8);
  Skeleton s = Skeleton::AllIndependent(9);
  s.dims[1] = {PartitionStrategy::kMapped, 0};       // dropoff ~ pickup.
  s.dims[6] = {PartitionStrategy::kMapped, 4};       // total ~ fare.
  s.dims[3] = {PartitionStrategy::kConditional, 4};  // distance | fare.
  ASSERT_TRUE(s.Validate());
  CheckGridMatchesFullScan(bench, s, {8, 1, 3, 4, 6, 2, 1, 4, 4});
}

TEST(AugmentedGridTest, EmptyRegionExecutesToZero) {
  Dataset empty(3, {});
  std::vector<uint32_t> rows;
  AugmentedGrid grid;
  grid.Build(empty, &rows, Skeleton::AllIndependent(3), {2, 2, 2}, {});
  ColumnStore store(empty);
  grid.Attach(&store, 0);
  Query q;
  q.filters = {Predicate{0, 0, 100}};
  QueryResult result;
  grid.Execute(q, &result);
  EXPECT_EQ(result.agg, 0);
}

TEST(AugmentedGridTest, CellCapIsEnforced) {
  Benchmark bench = MakeUniformBenchmark(4, 2000, 26, 5);
  std::vector<uint32_t> rows(bench.data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  AugmentedGrid grid;
  AugmentedGrid::BuildOptions options;
  options.max_cells = 64;
  grid.Build(bench.data, &rows, Skeleton::AllIndependent(4), {16, 16, 16, 16},
             options);
  EXPECT_LE(grid.num_cells(), 64);
}

TEST(AugmentedGridTest, SumAggregationMatches) {
  Benchmark bench = MakeUniformBenchmark(3, 3000, 27, 10);
  FullScanIndex reference(bench.data);
  std::vector<uint32_t> rows(bench.data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  AugmentedGrid grid;
  grid.Build(bench.data, &rows, Skeleton::AllIndependent(3), {5, 4, 3}, {});
  ColumnStore store(bench.data, rows);
  grid.Attach(&store, 0);
  for (Query q : bench.workload) {
    q.SetAggregates({{AggKind::kSum, 2}});
    QueryResult expected = reference.Execute(q);
    QueryResult got;
    grid.Execute(q, &got);
    ASSERT_EQ(got.agg, expected.agg);
  }
}

// Parameterized sweep: partition-count shapes on the correlated dataset
// with a conditional dimension must stay correct.
class GridPartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(GridPartitionSweep, ConditionalCorrectAtAllPartitionCounts) {
  int p = GetParam();
  Benchmark bench = MakeScalingBenchmark(4, 3000, /*correlated=*/true, 29, 6);
  Skeleton s = Skeleton::AllIndependent(4);
  s.dims[2] = {PartitionStrategy::kConditional, 0};
  CheckGridMatchesFullScan(bench, s, {p, 3, p, 3});
}

INSTANTIATE_TEST_SUITE_P(Partitions, GridPartitionSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 33));

// Exhaustive skeleton sweep: EVERY valid 3-d skeleton (all combinations of
// independent / mapped / conditional with all `other` choices that pass
// Validate) must build a correct grid on correlated data. This covers
// interactions the named tests above cannot, e.g. two dimensions mapped to
// the same target, or a conditional dimension whose base is also a
// mapping target.
TEST(AugmentedGridTest, EveryValidThreeDimSkeletonMatchesFullScan) {
  Benchmark bench = MakeScalingBenchmark(3, 2500, /*correlated=*/true, 31, 8);
  const int d = 3;
  int checked = 0;
  int64_t combos = 1;
  for (int i = 0; i < d; ++i) combos *= 1 + 2 * d;
  for (int64_t code = 0; code < combos; ++code) {
    Skeleton s;
    s.dims.resize(d);
    int64_t c = code;
    for (int i = 0; i < d; ++i) {
      int choice = static_cast<int>(c % (1 + 2 * d));
      c /= 1 + 2 * d;
      if (choice == 0) {
        s.dims[i] = DimSpec{PartitionStrategy::kIndependent, -1};
      } else if (choice <= d) {
        s.dims[i] = DimSpec{PartitionStrategy::kMapped, choice - 1};
      } else {
        s.dims[i] = DimSpec{PartitionStrategy::kConditional, choice - d - 1};
      }
    }
    if (!s.Validate()) continue;
    std::vector<int> partitions(d, 4);
    CheckGridMatchesFullScan(bench, s, partitions);
    ++checked;
  }
  // 3 dims admit a few dozen valid skeletons; make sure the sweep ran.
  EXPECT_GT(checked, 20);
}

}  // namespace
}  // namespace tsunami
