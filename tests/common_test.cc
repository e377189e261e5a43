// Tests for src/common: RNG determinism and distributions, summary stats,
// mass histograms, Earth Mover's Distance, bounded linear regression,
// sorted-sample selectivities, and per-dimension filter merging.
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "src/baselines/full_scan.h"
#include "src/common/emd.h"
#include "src/common/histogram.h"
#include "src/common/linear_model.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/workload_stats.h"
#include "src/datasets/tpch.h"

namespace tsunami {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.Next(), b.Next());
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t n = 1 + rng.Next() % 1000;
    EXPECT_LT(rng.NextBelow(n), n);
  }
}

TEST(RngTest, UniformValueCoversInclusiveRange) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    Value v = rng.UniformValue(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(4);
  int64_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(1000, 1.2) < 100) ++low;
  }
  // A zipf(1.2) draw over [0,1000) lands in the first decile far more than
  // uniformly.
  EXPECT_GT(low, n / 4);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 2.5);
}

TEST(StatsTest, PearsonDetectsPerfectAndNoCorrelation) {
  std::vector<double> xs, ys, zs;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    double x = rng.NextDouble();
    xs.push_back(x);
    ys.push_back(3.0 * x + 1.0);
    zs.push_back(rng.NextDouble());
  }
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-9);
  EXPECT_NEAR(PearsonCorrelation(xs, zs), 0.0, 0.05);
  EXPECT_EQ(PearsonCorrelation(xs, std::vector<double>(xs.size(), 2.0)), 0.0);
}

TEST(HistogramTest, RangeMassSpreadsOverBins) {
  MassHistogram h(0, 99, 10);  // Bins of width 10.
  h.AddRangeMass(0, 29);       // Bins 0..2, 1/3 each.
  EXPECT_NEAR(h.mass()[0], 1.0 / 3, 1e-12);
  EXPECT_NEAR(h.mass()[2], 1.0 / 3, 1e-12);
  EXPECT_NEAR(h.mass()[3], 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(h.total_mass(), 1.0);
}

TEST(HistogramTest, MassConservedUnderClipping) {
  MassHistogram h(0, 99, 10);
  h.AddRangeMass(-50, 9);  // Clipped to bin 0.
  EXPECT_DOUBLE_EQ(h.mass()[0], 1.0);
  h.AddRangeMass(200, 300);  // Entirely outside: contributes no mass.
  EXPECT_DOUBLE_EQ(h.total_mass(), 1.0);
  EXPECT_DOUBLE_EQ(h.MassInBins(0, 10), 1.0);
}

TEST(HistogramTest, PerUniqueValueBins) {
  MassHistogram h(std::vector<Value>{5, 10, 20});
  EXPECT_EQ(h.bins(), 3);
  EXPECT_TRUE(h.per_unique_value());
  EXPECT_EQ(h.BinOf(5), 0);
  EXPECT_EQ(h.BinOf(12), 1);  // Falls into the bin starting at 10.
  EXPECT_EQ(h.BinOf(20), 2);
  EXPECT_EQ(h.BinLo(1), 10);
}

TEST(HistogramTest, BinBoundariesPartitionDomain) {
  MassHistogram h(0, 1000, 7);
  for (int b = 0; b < h.bins(); ++b) {
    EXPECT_LT(h.BinLo(b), h.BinHi(b));
    if (b > 0) EXPECT_EQ(h.BinLo(b), h.BinHi(b - 1));
    for (Value v = h.BinLo(b); v < h.BinHi(b); v += 37) {
      EXPECT_EQ(h.BinOf(v), b);
    }
  }
}

TEST(EmdTest, IdenticalDistributionsHaveZeroDistance) {
  std::vector<double> p = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Emd(p, p), 0.0);
}

TEST(EmdTest, KnownTransport) {
  // Move unit mass across 3 of 4 bins: work = 1 * (3/4).
  std::vector<double> p = {1, 0, 0, 0};
  std::vector<double> q = {0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(Emd(p, q), 0.75);
  EXPECT_DOUBLE_EQ(Emd(q, p), 0.75);  // Symmetry.
}

TEST(EmdTest, RescalesUnbalancedMass) {
  std::vector<double> p = {2, 0};
  std::vector<double> q = {0, 1};  // Scaled to {0, 2}.
  EXPECT_DOUBLE_EQ(Emd(p, q), 1.0);  // 2 units across half the range.
}

TEST(SkewTest, UniformMassHasZeroSkew) {
  std::vector<double> uniform(16, 0.5);
  EXPECT_DOUBLE_EQ(SkewOfMass(uniform), 0.0);
}

TEST(SkewTest, ConcentratedMassHasHighSkew) {
  std::vector<double> pdf(16, 0.0);
  pdf[15] = 8.0;
  double skew = SkewOfMass(pdf);
  EXPECT_GT(skew, 3.0);   // Almost all mass moved across the range.
  EXPECT_LE(skew, 8.0);   // Bounded by total mass.
}

TEST(SkewTest, SingleBinRangeHasZeroSkew) {
  std::vector<double> pdf = {5.0, 1.0};
  EXPECT_DOUBLE_EQ(SkewOfMassRange(pdf, 0, 1), 0.0);
}

TEST(SkewTest, SplittingSkewedRangeReducesSkew) {
  // Two internally-uniform halves at different levels: splitting at the
  // midpoint removes all skew.
  std::vector<double> pdf = {4, 4, 4, 4, 1, 1, 1, 1};
  double whole = SkewOfMass(pdf);
  double parts = SkewOfMassRange(pdf, 0, 4) + SkewOfMassRange(pdf, 4, 8);
  EXPECT_GT(whole, 0.0);
  EXPECT_DOUBLE_EQ(parts, 0.0);
}

TEST(LinearModelTest, ExactFitHasZeroErrorBand) {
  std::vector<Value> ys, xs;
  for (Value y = 0; y < 100; ++y) {
    ys.push_back(y);
    xs.push_back(2 * y + 5);
  }
  BoundedLinearModel m = BoundedLinearModel::Fit(ys, xs);
  EXPECT_NEAR(m.slope(), 2.0, 1e-9);
  EXPECT_NEAR(m.intercept(), 5.0, 1e-9);
  EXPECT_NEAR(m.ErrorBandWidth(), 0.0, 1e-6);
}

TEST(LinearModelTest, BoundsCoverAllTrainingPoints) {
  Rng rng(6);
  std::vector<Value> ys, xs;
  for (int i = 0; i < 2000; ++i) {
    Value y = rng.UniformValue(0, 1000000);
    ys.push_back(y);
    xs.push_back(y / 3 + rng.UniformValue(-500, 500));
  }
  BoundedLinearModel m = BoundedLinearModel::Fit(ys, xs);
  for (size_t i = 0; i < ys.size(); ++i) {
    auto [lo, hi] = m.MapRange(ys[i], ys[i]);
    EXPECT_LE(lo, xs[i]);
    EXPECT_GE(hi, xs[i]);
  }
}

TEST(LinearModelTest, NegativeSlopeRangeMapping) {
  std::vector<Value> ys, xs;
  for (Value y = 0; y < 50; ++y) {
    ys.push_back(y);
    xs.push_back(100 - 2 * y);
  }
  BoundedLinearModel m = BoundedLinearModel::Fit(ys, xs);
  auto [lo, hi] = m.MapRange(10, 20);
  EXPECT_LE(lo, 60);  // x(20) = 60.
  EXPECT_GE(hi, 80);  // x(10) = 80.
}

TEST(LinearModelTest, ConstantYPredictsMeanX) {
  std::vector<Value> ys(10, 7), xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  BoundedLinearModel m = BoundedLinearModel::Fit(ys, xs);
  EXPECT_DOUBLE_EQ(m.slope(), 0.0);
  EXPECT_NEAR(m.Predict(7), 5.5, 1e-9);
  auto [lo, hi] = m.MapRange(7, 7);
  EXPECT_LE(lo, 1);
  EXPECT_GE(hi, 10);
}

// The linear count SortedSample::Selectivity replaces: one pass over the
// sample per predicate.
double LinearSelectivity(const Dataset& sample, const Predicate& p) {
  const int64_t n = sample.size();
  if (n == 0) return 1.0;
  int64_t hits = 0;
  for (int64_t r = 0; r < n; ++r) hits += p.Matches(sample.at(r, p.dim));
  return static_cast<double>(hits) / n;
}

TEST(SortedSampleTest, SelectivityEqualsLinearCount) {
  // Dim 0 repeats values; dim 1 holds both extremes of the value domain.
  Dataset sample(2, {});
  const std::vector<Value> dim0 = {5, 3, 5, 9, 5, 1, 3, 9};
  const std::vector<Value> dim1 = {kValueMin, -7, 0, 4, kValueMax, 12, -7, 4};
  for (size_t i = 0; i < dim0.size(); ++i) sample.AppendRow({dim0[i], dim1[i]});
  const SortedSample sorted(sample);
  const std::vector<Predicate> cases = {
      {0, 9, 3},                   // lo > hi.
      {0, 5, 5},                   // lo == hi on a value seen three times.
      {0, 3, 3},                   // lo == hi on a duplicated value.
      {0, 4, 4},                   // lo == hi between sample values.
      {0, 3, 9},                   // Inclusive at both ends.
      {0, kValueMin, kValueMax},   // The whole domain.
      {0, kValueMin, 4},           // Open below.
      {0, 6, kValueMax},           // Open above.
      {0, -100, 0},                // Entirely below the sample.
      {0, 10, 100},                // Entirely above the sample.
      {1, kValueMin, kValueMin},   // Exactly the domain's minimum.
      {1, kValueMax, kValueMax},   // Exactly the domain's maximum.
      {1, kValueMin, -7},          // Minimum through a duplicate.
      {1, 4, kValueMax},           // Duplicate through the maximum.
      {1, kValueMax, kValueMin},   // lo > hi at the extremes.
  };
  for (const Predicate& p : cases) {
    EXPECT_EQ(sorted.Selectivity(p), LinearSelectivity(sample, p))
        << "dim " << p.dim << " [" << p.lo << ", " << p.hi << "]";
  }
}

TEST(SortedSampleTest, OneRowAndEmptySamples) {
  Dataset one(1, {42});
  const SortedSample sorted_one(one);
  for (const Predicate& p :
       {Predicate{0, 42, 42}, Predicate{0, 0, 41}, Predicate{0, 43, 50},
        Predicate{0, kValueMin, kValueMax}, Predicate{0, 50, 0}}) {
    EXPECT_EQ(sorted_one.Selectivity(p), LinearSelectivity(one, p));
  }
  Dataset empty(1, {});
  const SortedSample sorted_empty(empty);
  for (const Predicate& p : {Predicate{0, 1, 2}, Predicate{0, 2, 1}}) {
    EXPECT_EQ(sorted_empty.Selectivity(p), 1.0);
    EXPECT_EQ(sorted_empty.Selectivity(p), LinearSelectivity(empty, p));
  }
}

TEST(SortedSampleTest, AvgSelectivityEqualsLinearOnTpch) {
  Benchmark bench = MakeTpchBenchmark(20000, 151, 40);
  const SortedSample sorted(bench.data);
  const int dims = bench.data.dims();
  // The linear per-dimension averages, summed in the same order.
  std::vector<double> sum(dims, 0.0);
  std::vector<int64_t> count(dims, 0);
  for (const Query& q : bench.workload) {
    for (const Predicate& p : q.filters) {
      sum[p.dim] += LinearSelectivity(bench.data, p);
      ++count[p.dim];
    }
  }
  std::vector<double> linear(dims, 1.0);
  for (int d = 0; d < dims; ++d) {
    if (count[d] > 0) linear[d] = sum[d] / count[d];
  }
  const std::vector<double> avg =
      AvgSelectivityPerDim(sorted, bench.workload, dims);
  EXPECT_EQ(avg, linear);
  std::vector<int> order(dims);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return linear[a] < linear[b]; });
  EXPECT_EQ(DimsBySelectivity(sorted, bench.workload, dims), order);
  EXPECT_EQ(DimsBySelectivity(avg), order);
}

void ExpectPredicate(const Predicate& got, int dim, Value lo, Value hi) {
  EXPECT_EQ(got.dim, dim);
  EXPECT_EQ(got.lo, lo);
  EXPECT_EQ(got.hi, hi);
}

TEST(MergedFiltersTest, IntersectsEachDimensionInFirstOccurrenceOrder) {
  const std::vector<Predicate> filters = {
      {2, 0, 100}, {0, -5, 50}, {2, 10, 200}, {1, 7, 7},
      {0, 0, 40},  {2, 20, 90}, {0, 3, 60}};
  const std::vector<Predicate> merged = MergedFilters(filters);
  ASSERT_EQ(merged.size(), 3u);
  ExpectPredicate(merged[0], 2, 20, 90);
  ExpectPredicate(merged[1], 0, 3, 40);
  ExpectPredicate(merged[2], 1, 7, 7);
  // NormalizedFilters is the same merge, sorted by dimension.
  const std::vector<Predicate> rect = NormalizedFilters(Query(filters, {}));
  ASSERT_EQ(rect.size(), 3u);
  ExpectPredicate(rect[0], 0, 3, 40);
  ExpectPredicate(rect[1], 1, 7, 7);
  ExpectPredicate(rect[2], 2, 20, 90);
  EXPECT_TRUE(MergedFilters({}).empty());
}

TEST(MergedFiltersTest, EmptyIntersectionMatchesNothing) {
  const std::vector<Predicate> merged =
      MergedFilters({{0, 0, 10}, {1, 0, 5}, {0, 20, 30}});
  ASSERT_EQ(merged.size(), 2u);
  ExpectPredicate(merged[0], 0, 20, 10);
  for (Value v = -5; v <= 40; ++v) EXPECT_FALSE(merged[0].Matches(v)) << v;

  // Answer-equivalent to the unmerged conjunction, empty or not.
  Rng rng(61);
  Dataset data(2, {});
  for (int i = 0; i < 3000; ++i) {
    data.AppendRow({rng.UniformValue(0, 40), rng.UniformValue(0, 10)});
  }
  FullScanIndex index(data);
  const std::vector<std::vector<Predicate>> cases = {
      {{0, 0, 10}, {1, 0, 5}, {0, 20, 30}},
      {{0, 0, 30}, {1, 2, 9}, {0, 5, 35}, {1, 0, 6}, {0, 5, 25}}};
  for (const std::vector<Predicate>& filters : cases) {
    const std::vector<AggregateSpec> aggs = {{AggKind::kCount, 0},
                                             {AggKind::kSum, 1}};
    const QueryResult want = index.Execute(Query(filters, aggs));
    const QueryResult got = index.Execute(Query(MergedFilters(filters), aggs));
    EXPECT_EQ(got.matched, want.matched);
    EXPECT_EQ(got.agg, want.agg);
    EXPECT_EQ(got.extra, want.extra);
  }
  EXPECT_EQ(index.Execute(Query(MergedFilters(cases[0]), {})).matched, 0);
}

}  // namespace
}  // namespace tsunami
