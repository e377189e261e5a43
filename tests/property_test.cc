// Cross-cutting property tests: every index type must agree with the
// full-scan reference on randomized box queries over randomized datasets —
// including adversarial shapes (duplicates, constant dimensions, equality
// filters, empty results, unfiltered queries).
#include <memory>

#include <gtest/gtest.h>

#include "src/baselines/full_scan.h"
#include "src/baselines/kdtree.h"
#include "src/baselines/octree.h"
#include "src/baselines/single_dim.h"
#include "src/baselines/zorder.h"
#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/flood/flood.h"

namespace tsunami {
namespace {

// Datasets with awkward value distributions.
Dataset MakeAdversarialData(int kind, int dims, int64_t rows, uint64_t seed) {
  Rng rng(seed);
  Dataset data(dims, {});
  data.Reserve(rows);
  std::vector<Value> row(dims);
  for (int64_t i = 0; i < rows; ++i) {
    for (int d = 0; d < dims; ++d) {
      switch (kind) {
        case 0:  // Uniform.
          row[d] = rng.UniformValue(0, 1000000);
          break;
        case 1:  // Heavy duplicates: few distinct values.
          row[d] = static_cast<Value>(rng.NextBelow(8));
          break;
        case 2:  // One constant dimension, others clustered.
          row[d] = d == 0 ? 42
                          : static_cast<Value>(rng.NextGaussian() * 100) +
                                (rng.NextBool(0.5) ? 0 : 100000);
          break;
        case 3:  // Correlated pair + extremes near int64 bounds.
          if (d == 0) {
            row[d] = rng.UniformValue(-1000000, 1000000);
          } else if (d == 1) {
            row[d] = row[0] * 2 + rng.UniformValue(-10, 10);
          } else {
            row[d] = rng.NextBool(0.01) ? kValueMax / 2
                                        : rng.UniformValue(0, 100);
          }
          break;
        default:  // Exponential skew.
          row[d] = static_cast<Value>(rng.NextExponential(1e-4));
          break;
      }
    }
    data.AppendRow(row);
  }
  return data;
}

Workload MakeRandomQueries(const Dataset& data, int count, uint64_t seed) {
  Rng rng(seed);
  DimBounds bounds = ComputeBounds(data);
  Workload w;
  for (int i = 0; i < count; ++i) {
    Query q;
    int nfilters = 1 + static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < nfilters; ++f) {
      int dim = static_cast<int>(rng.NextBelow(data.dims()));
      Value lo = rng.UniformValue(bounds.lo[dim], bounds.hi[dim]);
      Value hi;
      switch (rng.NextBelow(4)) {
        case 0:  // Equality.
          hi = lo;
          break;
        case 1:  // Empty-ish range below lo (tests empty results).
          hi = lo;
          lo = hi - rng.UniformValue(0, 10);
          break;
        default:
          hi = rng.UniformValue(lo, bounds.hi[dim]);
          break;
      }
      q.filters.push_back(Predicate{dim, lo, hi});
    }
    if (rng.NextBool(0.2)) q.filters.clear();  // Unfiltered COUNT(*).
    if (rng.NextBool(0.3)) {
      q.SetAggregates(
          {{AggKind::kSum, static_cast<int>(rng.NextBelow(data.dims()))}});
    }
    w.push_back(q);
  }
  return w;
}

std::unique_ptr<MultiDimIndex> MakeIndex(int kind, const Dataset& data,
                                         const Workload& workload) {
  switch (kind) {
    case 0:
      return std::make_unique<SingleDimIndex>(data, workload);
    case 1: {
      ZOrderIndex::Options options;
      options.page_size = 256;
      return std::make_unique<ZOrderIndex>(data, options);
    }
    case 2: {
      HyperOctree::Options options;
      options.page_size = 256;
      return std::make_unique<HyperOctree>(data, options);
    }
    case 3: {
      KdTree::Options options;
      options.page_size = 256;
      return std::make_unique<KdTree>(data, workload, options);
    }
    case 4: {
      FloodOptions options;
      options.agd.max_sample_points = 512;
      options.agd.max_sample_queries = 16;
      options.agd.max_iters = 2;
      return std::make_unique<FloodIndex>(data, workload, options);
    }
    default: {
      TsunamiOptions options;
      options.sample_rows = 5000;
      options.agd.max_sample_points = 512;
      options.agd.max_sample_queries = 16;
      options.agd.max_iters = 2;
      options.agd.max_cells = 1 << 10;
      return std::make_unique<TsunamiIndex>(data, workload, options);
    }
  }
}

constexpr const char* kIndexNames[] = {"SingleDim", "ZOrder", "Octree",
                                       "KdTree",    "Flood",  "Tsunami"};
constexpr const char* kDataNames[] = {"Uniform", "Duplicates", "ConstDim",
                                      "CorrExtreme", "ExpSkew"};

class IndexDataSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IndexDataSweep, AgreesWithFullScanOnRandomQueries) {
  auto [index_kind, data_kind] = GetParam();
  int dims = 3 + data_kind % 3;
  Dataset data = MakeAdversarialData(data_kind, dims, 4000,
                                     1000 + data_kind);
  Workload build_workload = MakeRandomQueries(data, 30, 2000 + data_kind);
  Workload probe_workload =
      MakeRandomQueries(data, 60, 3000 + data_kind * 7 + index_kind);
  FullScanIndex reference(data);
  std::unique_ptr<MultiDimIndex> index =
      MakeIndex(index_kind, data, build_workload);
  // Both the build workload and unseen queries must be answered exactly.
  for (const Workload* w : {&build_workload, &probe_workload}) {
    for (const Query& q : *w) {
      QueryResult expected = reference.Execute(q);
      QueryResult got = index->Execute(q);
      ASSERT_EQ(got.agg, expected.agg)
          << kIndexNames[index_kind] << " on " << kDataNames[data_kind];
    }
  }
}

std::string SweepName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  return std::string(kIndexNames[std::get<0>(info.param)]) + "_" +
         kDataNames[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllIndexesAllData, IndexDataSweep,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Range(0, 5)),
                         SweepName);

// Seeded repetition of the Tsunami end-to-end path, since it exercises the
// most machinery (clustering, tree, AGD, grids).
class TsunamiSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(TsunamiSeedSweep, RandomizedEndToEnd) {
  int seed = GetParam();
  Rng rng(seed);
  int dims = 2 + static_cast<int>(rng.NextBelow(6));
  int kind = static_cast<int>(rng.NextBelow(5));
  Dataset data = MakeAdversarialData(kind, dims, 3000, seed * 31);
  Workload workload = MakeRandomQueries(data, 40, seed * 37);
  FullScanIndex reference(data);
  std::unique_ptr<MultiDimIndex> index = MakeIndex(5, data, workload);
  for (const Query& q : workload) {
    ASSERT_EQ(index->Execute(q).agg, reference.Execute(q).agg)
        << "seed " << seed << " dims " << dims << " kind " << kind;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsunamiSeedSweep, ::testing::Range(1, 21));

}  // namespace
}  // namespace tsunami
