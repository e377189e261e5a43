// Tests for the cost model evaluator and the AGD/GD/BlackBox optimizers
// (§5.3, §6.6).
#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "src/core/augmented_grid.h"
#include "src/core/cost_model.h"
#include "src/core/optimizer.h"
#include "src/datasets/synthetic.h"
#include "src/datasets/tpch.h"
#include "tests/cost_oracle.h"

namespace tsunami {
namespace {

std::vector<uint32_t> AllRows(const Dataset& data) {
  std::vector<uint32_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

AgdOptions FastOptions() {
  AgdOptions options;
  options.max_sample_points = 1024;
  options.max_sample_queries = 48;
  options.max_iters = 3;
  options.max_cells = 1 << 14;
  return options;
}

TEST(CostModelTest, MorePartitionsReduceScanCost) {
  Benchmark bench = MakeUniformBenchmark(3, 30000, 121, 30);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 2048, 48, 7);
  Skeleton s = Skeleton::AllIndependent(3);
  CostWeights w;
  double coarse = eval.Cost(s, {1, 1, 1}, w);
  double fine = eval.Cost(s, {8, 8, 8}, w);
  EXPECT_LT(fine, coarse);
}

TEST(CostModelTest, TooManyPartitionsRaiseLookupCost) {
  Benchmark bench = MakeUniformBenchmark(3, 20000, 122, 30);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 2048, 48, 7);
  Skeleton s = Skeleton::AllIndependent(3);
  CostWeights w;
  w.w0 = 100000.0;  // Make lookups dominate.
  double few = eval.Cost(s, {2, 2, 2}, w);
  double many = eval.Cost(s, {64, 64, 64}, w);
  EXPECT_LT(few, many);
}

TEST(CostModelTest, DetectsTightCorrelationForFm) {
  Benchmark bench = MakeScalingBenchmark(4, 20000, true, 123, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 2048, 48, 7);
  // dim2 = dim0 ± 1%: tight; dim3 = dim1 ± 10%: loose.
  EXPECT_LT(eval.FmErrorBandRatio(2, 0), 0.05);
  EXPECT_GT(eval.FmErrorBandRatio(3, 1), 0.15);
  EXPECT_GT(eval.FmErrorBandRatio(1, 0), 0.5);  // Uncorrelated.
  EXPECT_GT(eval.correlation(2, 0), 0.99);
}

TEST(CostModelTest, EmptyCellFractionSeesCorrelation) {
  Benchmark bench = MakeScalingBenchmark(4, 20000, true, 124, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 4096, 48, 7);
  // Correlated pair concentrates mass near the diagonal of the hyperplane.
  EXPECT_GT(eval.EmptyCellFraction(3, 1), 0.25);
  EXPECT_LT(eval.EmptyCellFraction(1, 0), 0.25);  // Independent pair.
}

TEST(CostModelTest, PredictionTracksActualCounters) {
  // The model's feature estimates (ranges, scanned) should land within a
  // small factor of the real execution counters on a built grid.
  Benchmark bench = MakeUniformBenchmark(3, 40000, 125, 40);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 4096, 64, 7);
  Skeleton s = Skeleton::AllIndependent(3);
  std::vector<int> partitions = {8, 8, 4};
  CostWeights w;
  w.w0 = 0.0;
  w.w1 = 1.0;  // Cost == scanned * filtered_dims.

  AugmentedGrid grid;
  grid.Build(bench.data, &rows, s, partitions, {});
  ColumnStore store(bench.data, rows);
  grid.Attach(&store, 0);
  double predicted = 0.0, actual = 0.0;
  for (const Query& q : bench.workload) {
    predicted += eval.PredictQueryNanos(s, partitions, w, q);
    QueryResult result;
    grid.Execute(q, &result);
    actual += static_cast<double>(result.scanned) * q.filters.size();
  }
  ASSERT_GT(actual, 0.0);
  EXPECT_GT(predicted / actual, 0.5);
  EXPECT_LT(predicted / actual, 2.0);
}

// --- Cost-model oracle (tests/cost_oracle.h) ---------------------------
//
// Cost and PredictQueryNanos build one layout per candidate and evaluate
// every query against it; the oracle rebuilds everything per query. Every
// prediction must be bit-identical (==, no tolerance).

// The sample value at quantile `q` of one dimension.
Value SampleQuantile(const GridCostEvaluator& eval, int dim, double q) {
  std::vector<Value> vals = eval.sample_column(dim);
  std::sort(vals.begin(), vals.end());
  const size_t i = std::min(vals.size() - 1,
                            static_cast<size_t>(q * (vals.size() - 1)));
  return vals[i];
}

// A candidate for the sweep: all-independent, one mapped dimension, one
// conditional dimension, and both at once.
struct OracleCase {
  Skeleton skeleton;
  std::vector<int> partitions;
};

std::vector<OracleCase> OracleCases(int dims, int mapped, int target,
                                    int cond, int base) {
  std::vector<OracleCase> cases;
  Skeleton indep = Skeleton::AllIndependent(dims);
  Skeleton fm = indep;
  fm.dims[mapped] = DimSpec{PartitionStrategy::kMapped, target};
  Skeleton cc = indep;
  cc.dims[cond] = DimSpec{PartitionStrategy::kConditional, base};
  Skeleton both = fm;
  both.dims[cond] = DimSpec{PartitionStrategy::kConditional, base};
  for (const Skeleton& s : {indep, fm, cc, both}) {
    EXPECT_TRUE(s.Validate());
    for (int scale : {1, 3}) {
      std::vector<int> p(dims);
      for (int d = 0; d < dims; ++d) p[d] = 1 + (d * 5 + scale * 3) % 11;
      cases.push_back(OracleCase{s, p});
    }
  }
  return cases;
}

// Sweeps every case, every sort dimension (-1, each valid one, and the
// invalid ones that fall back), and uncalibrated plus per-width weights.
void ExpectMatchesOracle(const GridCostEvaluator& eval,
                         const std::vector<OracleCase>& cases,
                         const Workload& extra_queries) {
  const CostOracle oracle(eval);
  CostWeights calibrated;
  calibrated.w1_u8 = 0.4;
  calibrated.w1_u16 = 0.7;
  calibrated.w1_u32 = 1.1;
  for (const CostWeights& w : {CostWeights(), calibrated}) {
    for (const OracleCase& c : cases) {
      for (int sort_dim = -1; sort_dim < eval.dims(); ++sort_dim) {
        EXPECT_EQ(eval.Cost(c.skeleton, c.partitions, w, sort_dim),
                  oracle.Cost(c.skeleton, c.partitions, w, sort_dim))
            << "sort_dim " << sort_dim;
        for (const Query& q : extra_queries) {
          EXPECT_EQ(
              eval.PredictQueryNanos(c.skeleton, c.partitions, w, q, sort_dim),
              oracle.PredictQueryNanos(c.skeleton, c.partitions, w, q,
                                       sort_dim))
              << "sort_dim " << sort_dim;
        }
      }
    }
  }
}

// Edge-case queries over `dim` (and a mapped pair): two filters on one
// dimension, contradictory filters, and a mapped filter whose induced range
// on its target misses the target's own filter.
Workload EdgeQueries(const GridCostEvaluator& eval, int dim, int mapped,
                     int target) {
  const Value q10 = SampleQuantile(eval, dim, 0.1);
  const Value q40 = SampleQuantile(eval, dim, 0.4);
  const Value q60 = SampleQuantile(eval, dim, 0.6);
  const Value q90 = SampleQuantile(eval, dim, 0.9);
  Workload w;
  Query two_filters;
  two_filters.filters = {Predicate{dim, q10, q60}, Predicate{dim, q40, q90}};
  w.push_back(two_filters);
  Query disjoint;
  disjoint.filters = {Predicate{dim, q10, q40}, Predicate{dim, q60, q90}};
  w.push_back(disjoint);
  Query inverted;
  inverted.filters = {Predicate{dim, q90, q10}};
  w.push_back(inverted);
  Query empty_mapping;
  empty_mapping.filters = {
      Predicate{mapped, SampleQuantile(eval, mapped, 0.9),
                SampleQuantile(eval, mapped, 0.95)},
      Predicate{target, SampleQuantile(eval, target, 0.05),
                SampleQuantile(eval, target, 0.1)}};
  w.push_back(empty_mapping);
  Query wide;
  wide.filters = {Predicate{dim, kValueMin, kValueMax},
                  Predicate{mapped, q10, q90}};
  w.push_back(wide);
  return w;
}

TEST(CostOracleTest, TpchMatchesOracle) {
  Benchmark bench = MakeTpchBenchmark(20000, 141, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 1024, 32, 7);
  // receipt_date (7) maps onto ship_date (5); ext_price (1) conditions on
  // quantity (0).
  const std::vector<OracleCase> cases = OracleCases(8, 7, 5, 1, 0);
  const Workload edges = EdgeQueries(eval, 5, 7, 5);
  ExpectMatchesOracle(eval, cases, edges);
  // The mapped filter's induced ship-date range misses the ship-date
  // filter: the grid gives up after one lookup.
  CostWeights w;
  EXPECT_EQ(eval.PredictQueryNanos(cases[2].skeleton, cases[2].partitions, w,
                                   edges[3]),
            w.w0);
}

TEST(CostOracleTest, CorrelatedMatchesOracle) {
  Benchmark bench = MakeScalingBenchmark(6, 20000, true, 142, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 1024, 32, 9);
  // Dim 3 tracks dim 0 within 1% (mapped); dim 4 tracks dim 1 within 10%
  // (conditional).
  ExpectMatchesOracle(eval, OracleCases(6, 3, 0, 4, 1),
                      EdgeQueries(eval, 0, 3, 0));
}

TEST(CostOracleTest, RegionSmallerThanSampleMatchesOracle) {
  Benchmark bench = MakeTpchBenchmark(20000, 143, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  rows.resize(700);  // Fewer rows than max_sample_points: every row is used.
  GridCostEvaluator eval(bench.data, rows, bench.workload, 1024, 32, 7);
  ASSERT_EQ(eval.sample_points(), 700);
  ExpectMatchesOracle(eval, OracleCases(8, 7, 5, 1, 0),
                      EdgeQueries(eval, 5, 7, 5));
}

TEST(OptimizerTest, ImprovesOverInitialCost) {
  Benchmark bench = MakeTpchBenchmark(30000, 126, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  AgdOptions options = FastOptions();
  GridCostEvaluator eval(bench.data, rows, bench.workload,
                         options.max_sample_points,
                         options.max_sample_queries, options.seed);
  GridPlan agd = OptimizeGridWithEvaluator(eval, OptimizeMethod::kAgd, options);
  // Compare against the naive one-cell grid.
  double naive = eval.Cost(Skeleton::AllIndependent(8),
                           std::vector<int>(8, 1), options.weights);
  EXPECT_LT(agd.predicted_cost, naive);
  EXPECT_TRUE(agd.skeleton.Validate());
}

TEST(OptimizerTest, AgdFindsAugmentationOnCorrelatedData) {
  Benchmark bench = MakeScalingBenchmark(8, 30000, true, 127, 30);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridPlan plan = OptimizeGrid(bench.data, rows, bench.workload,
                               OptimizeMethod::kAgd, FastOptions());
  // Half the dimensions are (anti-)correlated copies: AGD should map or
  // condition at least one of them.
  EXPECT_GE(plan.skeleton.NumMapped() + plan.skeleton.NumConditional(), 1);
}

TEST(OptimizerTest, IndependentOnlyNeverAugments) {
  Benchmark bench = MakeScalingBenchmark(6, 20000, true, 128, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  AgdOptions options = FastOptions();
  options.independent_only = true;
  GridPlan plan = OptimizeGrid(bench.data, rows, bench.workload,
                               OptimizeMethod::kAgd, options);
  EXPECT_EQ(plan.skeleton.NumMapped(), 0);
  EXPECT_EQ(plan.skeleton.NumConditional(), 0);
}

TEST(OptimizerTest, MethodOrderingOnCorrelatedData) {
  // §6.6 expectation: AGD <= GD (same init, strictly more moves) and AGD
  // generally beats black-box basin hopping.
  Benchmark bench = MakeScalingBenchmark(6, 30000, true, 129, 30);
  std::vector<uint32_t> rows = AllRows(bench.data);
  AgdOptions options = FastOptions();
  GridCostEvaluator eval(bench.data, rows, bench.workload,
                         options.max_sample_points,
                         options.max_sample_queries, options.seed);
  GridPlan agd = OptimizeGridWithEvaluator(eval, OptimizeMethod::kAgd, options);
  GridPlan gd = OptimizeGridWithEvaluator(eval, OptimizeMethod::kGd, options);
  GridPlan ni =
      OptimizeGridWithEvaluator(eval, OptimizeMethod::kAgdNaiveInit, options);
  EXPECT_LE(agd.predicted_cost, gd.predicted_cost + 1e-9);
  // AGD-NI must be able to escape the naive skeleton into something valid.
  EXPECT_TRUE(ni.skeleton.Validate());
}

TEST(OptimizerTest, EmptyWorkloadYieldsTrivialPlan) {
  Benchmark bench = MakeUniformBenchmark(3, 1000, 130, 5);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridPlan plan = OptimizeGrid(bench.data, rows, Workload{},
                               OptimizeMethod::kAgd, FastOptions());
  EXPECT_EQ(plan.partitions, std::vector<int>(3, 1));
}

TEST(OptimizerTest, PartitionsRespectCellCap) {
  Benchmark bench = MakeTpchBenchmark(20000, 131, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  AgdOptions options = FastOptions();
  options.max_cells = 256;
  GridPlan plan = OptimizeGrid(bench.data, rows, bench.workload,
                               OptimizeMethod::kAgd, options);
  int64_t cells = 1;
  for (int d : plan.skeleton.GridDims()) cells *= plan.partitions[d];
  EXPECT_LE(cells, 256);
}

TEST(CalibrationTest, WeightsArePlausible) {
  CostWeights w = CalibrateCostWeights();
  EXPECT_GT(w.w0, 10.0);
  EXPECT_LT(w.w0, 100000.0);
  EXPECT_GT(w.w1, 0.1);
  EXPECT_LT(w.w1, 1000.0);
  // Per-code-width scan terms are calibrated (non-zero) when narrowing is
  // on, and stay 0 — falling back to w1 — when it is disabled, so the
  // model always prices the kernel execution actually runs.
  if (EncodingEnabledByDefault()) {
    for (double term : {w.w1_u8, w.w1_u16, w.w1_u32}) {
      EXPECT_GT(term, 0.05);
      EXPECT_LT(term, 1000.0);
    }
    EXPECT_EQ(w.ScanCostForSpan(100.0), w.w1_u8);
    EXPECT_EQ(w.ScanCostForSpan(1000.0), w.w1_u16);
    EXPECT_EQ(w.ScanCostForSpan(100000.0), w.w1_u32);
  } else {
    EXPECT_EQ(w.w1_u8, 0.0);
    EXPECT_EQ(w.ScanCostForSpan(100.0), w.w1);
  }
  EXPECT_EQ(w.ScanCostForSpan(-1.0), w.w1);   // Unknown span.
  EXPECT_EQ(w.ScanCostForSpan(1e18), w.w1);   // Raw 64-bit blocks.
  CostWeights defaults;
  EXPECT_EQ(defaults.ScanCostForSpan(100.0), defaults.w1);
}

}  // namespace
}  // namespace tsunami
