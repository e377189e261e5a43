// Tests for the skew tree (§4.3.2) and query-type clustering (§4.3.1).
#include <gtest/gtest.h>

#include "src/core/query_clustering.h"
#include "src/core/skew.h"
#include "src/datasets/synthetic.h"
#include "src/datasets/taxi.h"

namespace tsunami {
namespace {

Workload MakeRangeQueries(int dim, std::vector<std::pair<Value, Value>> ranges,
                          int type) {
  Workload w;
  for (auto [lo, hi] : ranges) {
    Query q;
    q.type = type;
    q.filters = {Predicate{dim, lo, hi}};
    w.push_back(q);
  }
  return w;
}

TEST(TypeHistogramTest, QueriesWithoutFilterSpreadUniformly) {
  Workload w(3);  // Three unfiltered queries of type 0.
  for (Query& q : w) q.type = 0;
  auto hists = BuildTypeHistograms(w, 1, 0, 0, 999, 10);
  ASSERT_EQ(hists.size(), 1u);
  for (double m : hists[0].mass()) EXPECT_NEAR(m, 0.3, 1e-12);
}

TEST(TypeHistogramTest, TypesAreSeparated) {
  Workload w = MakeRangeQueries(0, {{0, 99}, {0, 99}}, 0);
  Workload w2 = MakeRangeQueries(0, {{900, 999}}, 1);
  w.insert(w.end(), w2.begin(), w2.end());
  auto hists = BuildTypeHistograms(w, 2, 0, 0, 999, 10);
  ASSERT_EQ(hists.size(), 2u);
  EXPECT_DOUBLE_EQ(hists[0].total_mass(), 2.0);
  EXPECT_DOUBLE_EQ(hists[1].total_mass(), 1.0);
  EXPECT_GT(hists[0].mass()[0], 0.0);
  EXPECT_DOUBLE_EQ(hists[0].mass()[9], 0.0);
  EXPECT_GT(hists[1].mass()[9], 0.0);
}

TEST(SkewTreeTest, UniformWorkloadNeedsNoSplit) {
  // Queries evenly spread over the domain: no split should be proposed.
  std::vector<std::pair<Value, Value>> ranges;
  for (Value v = 0; v < 1000; v += 50) ranges.push_back({v, v + 49});
  auto hists =
      BuildTypeHistograms(MakeRangeQueries(0, ranges, 0), 1, 0, 0, 999, 128);
  SplitChoice choice = FindBestSplit(hists);
  EXPECT_LT(choice.reduction, 0.05 * 20);
}

TEST(SkewTreeTest, FindsTheSkewBoundary) {
  // The Fig. 2 scenario in one dimension: many narrow queries over the last
  // fifth of the domain, a few wide queries everywhere.
  std::vector<std::pair<Value, Value>> narrow, wide;
  for (int i = 0; i < 40; ++i) {
    Value start = 800 + (i * 5) % 195;
    narrow.push_back({start, start + 4});
  }
  for (int i = 0; i < 5; ++i) narrow.push_back({0, 999});
  Workload w = MakeRangeQueries(0, narrow, 0);
  auto hists = BuildTypeHistograms(w, 1, 0, 0, 999, 128);
  SplitChoice choice = FindBestSplit(hists);
  ASSERT_FALSE(choice.split_values.empty());
  EXPECT_GT(choice.reduction, 0.05 * w.size());
  // The main boundary should sit near 800.
  bool near_800 = false;
  for (Value v : choice.split_values) near_800 |= v >= 700 && v <= 900;
  EXPECT_TRUE(near_800);
}

TEST(SkewTreeTest, CancellingTypesRequireSeparation) {
  // Two mirrored skewed types: together they look uniform, so skew is only
  // visible per type (the motivation for clustering, §4.3.1).
  std::vector<std::pair<Value, Value>> low, high;
  for (int i = 0; i < 20; ++i) {
    low.push_back({0, 99});
    high.push_back({900, 999});
  }
  Workload merged_one_type = MakeRangeQueries(0, low, 0);
  for (Query& q : MakeRangeQueries(0, high, 0)) merged_one_type.push_back(q);
  Workload split_types = MakeRangeQueries(0, low, 0);
  for (Query& q : MakeRangeQueries(0, high, 1)) split_types.push_back(q);

  auto hists_merged = BuildTypeHistograms(merged_one_type, 1, 0, 0, 999, 128);
  auto hists_split = BuildTypeHistograms(split_types, 2, 0, 0, 999, 128);
  // Both workloads want splitting here (mass is at the extremes), but the
  // per-type skew is strictly larger than the merged skew.
  EXPECT_GT(CombinedSkew(hists_split, 0, 128),
            CombinedSkew(hists_merged, 0, 128) - 1e-9);
}

TEST(SkewTreeTest, MergeRegularizerRemovesSuperfluousSplits) {
  // A workload with a single hot region: a high merge factor collapses to
  // fewer split values than a zero merge factor.
  std::vector<std::pair<Value, Value>> ranges;
  for (int i = 0; i < 30; ++i) ranges.push_back({500, 549});
  for (int i = 0; i < 5; ++i) ranges.push_back({0, 999});
  auto hists =
      BuildTypeHistograms(MakeRangeQueries(0, ranges, 0), 1, 0, 0, 999, 128);
  SplitChoice strict = FindBestSplit(hists, /*merge_factor=*/1.0);
  SplitChoice merged = FindBestSplit(hists, /*merge_factor=*/1.5);
  EXPECT_LE(merged.split_values.size(), strict.split_values.size());
}

TEST(SkewTreeTest, PerUniqueValueBinsGiveExactBoundaries) {
  // Only 4 unique values: bins per value, skew boundaries on exact values.
  std::vector<Value> unique = {10, 20, 30, 40};
  Workload w = MakeRangeQueries(0, {{40, 40}, {40, 40}, {40, 40}, {40, 40},
                                    {10, 40}},
                                0);
  auto hists = BuildTypeHistograms(w, 1, 0, 10, 40, 128, &unique);
  EXPECT_EQ(hists[0].bins(), 4);
  SplitChoice choice = FindBestSplit(hists);
  if (!choice.split_values.empty()) {
    for (Value v : choice.split_values) {
      EXPECT_TRUE(v == 20 || v == 30 || v == 40);
    }
  }
}

TEST(DbscanTest, SeparatesObviousClusters) {
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 10; ++i) points.push_back({0.01 * i, 0.0});
  for (int i = 0; i < 10; ++i) points.push_back({0.9 + 0.01 * i, 0.9});
  int clusters = 0;
  std::vector<int> labels = Dbscan(points, 0.2, 4, &clusters);
  EXPECT_EQ(clusters, 2);
  for (int i = 1; i < 10; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (int i = 11; i < 20; ++i) EXPECT_EQ(labels[i], labels[10]);
  EXPECT_NE(labels[0], labels[10]);
}

TEST(DbscanTest, NoisePointsGetACatchAllCluster) {
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 8; ++i) points.push_back({0.0});
  points.push_back({10.0});  // Lone outlier.
  int clusters = 0;
  std::vector<int> labels = Dbscan(points, 0.1, 4, &clusters);
  EXPECT_EQ(clusters, 2);
  EXPECT_NE(labels[8], labels[0]);
}

TEST(QueryClusteringTest, DifferentDimSetsAreDifferentTypes) {
  Benchmark bench = MakeUniformBenchmark(4, 2000, 101, 5);
  Workload w;
  for (int i = 0; i < 10; ++i) {
    Query a;
    a.filters = {Predicate{0, 0, 100}};
    w.push_back(a);
    Query b;
    b.filters = {Predicate{1, 0, 100}};
    w.push_back(b);
  }
  int num_types = 0;
  std::vector<int> types =
      ClusterQueryTypes(SortedSample(bench.data), w, ClusteringOptions{},
                        &num_types);
  EXPECT_EQ(num_types, 2);
  EXPECT_NE(types[0], types[1]);
  EXPECT_EQ(types[0], types[2]);
}

TEST(QueryClusteringTest, SelectivitySeparatesTypesWithinDimSet) {
  Benchmark bench = MakeUniformBenchmark(2, 20000, 102, 5);
  constexpr Value kDomain = 1'000'000'000;
  Workload w;
  for (int i = 0; i < 20; ++i) {
    Query narrow;  // ~1% selective on dim 0.
    narrow.filters = {Predicate{0, 0, kDomain / 100}};
    w.push_back(narrow);
    Query wide;  // ~80% selective on dim 0.
    wide.filters = {Predicate{0, 0, kDomain * 4 / 5}};
    w.push_back(wide);
  }
  int num_types = 0;
  std::vector<int> types =
      ClusterQueryTypes(SortedSample(bench.data), w, ClusteringOptions{},
                        &num_types);
  EXPECT_EQ(num_types, 2);
  EXPECT_NE(types[0], types[1]);
}

TEST(QueryClusteringTest, GeneratorLabelsRecovered) {
  // The taxi workload's six generator types filter distinct dimension sets
  // or clearly different selectivities; clustering should find >= 4 types.
  Benchmark bench = MakeTaxiBenchmark(20000, 103, 20);
  int num_types = 0;
  LabelQueryTypes(SortedSample(bench.data), bench.workload, ClusteringOptions{},
                  &num_types);
  EXPECT_GE(num_types, 4);
  EXPECT_LE(num_types, 12);
}

}  // namespace
}  // namespace tsunami
