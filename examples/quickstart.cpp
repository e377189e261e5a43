// Quickstart: build a Tsunami index over a small synthetic table and run
// range-aggregation queries against it.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "src/core/tsunami.h"
#include "src/datasets/synthetic.h"

using tsunami::AggKind;
using tsunami::Benchmark;
using tsunami::Predicate;
using tsunami::Query;
using tsunami::QueryResult;
using tsunami::TsunamiIndex;

int main() {
  // 1. Get a dataset. Real applications fill a tsunami::Dataset with their
  // own rows (one int64 value per dimension; encode strings/floats first).
  // Here we generate a 4-dimensional synthetic table plus a workload.
  Benchmark bench = tsunami::MakeUniformBenchmark(/*dims=*/4, /*rows=*/100000);
  std::printf("dataset: %lld rows x %d dims\n",
              static_cast<long long>(bench.data.size()), bench.data.dims());

  // 2. Build the index. Tsunami self-optimizes for the sample workload:
  // it clusters query types, carves the space into low-skew regions with a
  // Grid Tree, and fits an Augmented Grid per region.
  TsunamiIndex index(bench.data, bench.workload);
  const TsunamiIndex::Stats& stats = index.stats();
  std::printf(
      "built Tsunami: %d query types, %d regions (tree depth %d), "
      "%lld grid cells, %.1f KiB index, %.2fs optimize + %.2fs sort\n",
      stats.num_query_types, stats.num_regions, stats.tree_depth,
      static_cast<long long>(stats.total_cells),
      index.IndexSizeBytes() / 1024.0, stats.optimize_seconds,
      stats.sort_seconds);

  // 3. Run queries: conjunctions of inclusive range filters + COUNT or SUM.
  Query count_query;
  count_query.filters = {Predicate{0, 100000000, 200000000},
                         Predicate{2, 0, 500000000}};
  QueryResult count = index.Execute(count_query);
  std::printf("COUNT(*) WHERE d0 in [1e8, 2e8] AND d2 <= 5e8  ->  %lld "
              "(scanned %lld points over %lld ranges)\n",
              static_cast<long long>(count.agg),
              static_cast<long long>(count.scanned),
              static_cast<long long>(count.cell_ranges));

  Query sum_query = count_query;
  sum_query.SetAggregates({{AggKind::kSum, 3}});
  QueryResult sum = index.Execute(sum_query);
  std::printf("SUM(d3) over the same filter  ->  %lld\n",
              static_cast<long long>(sum.agg));
  return 0;
}
