// Cross-index consistency: every index in the library — learned and
// non-learned, including the related-work baselines — must return identical
// answers to a full scan on the same randomized data and queries, for every
// aggregate kind. This is the library's strongest end-to-end invariant. The
// full scan runs the same block kernel as every index, so it is itself
// checked against the row-at-a-time oracle (tests/scan_oracle.h), which
// shares none of the kernel's code. Every index's batch path must plan
// coalesced range tasks and execute them to the same answer and counters.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/baselines/grid_file.h"
#include "src/baselines/kdtree.h"
#include "src/baselines/octree.h"
#include "src/baselines/qd_tree.h"
#include "src/baselines/rtree.h"
#include "src/baselines/single_dim.h"
#include "src/baselines/ub_tree.h"
#include "src/baselines/zm_index.h"
#include "src/baselines/zorder.h"
#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/flood/flood.h"
#include "src/secondary/secondary_index.h"
#include "tests/scan_oracle.h"

namespace tsunami {
namespace {

/// Dataset with a mix of correlation patterns: d0 uniform, d1 tightly
/// linear in d0, d2 loosely correlated with d0, d3 low-cardinality, d4
/// heavy-tailed. Exercises every partitioning strategy.
Benchmark MakeMixedBenchmark(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  Benchmark bench;
  bench.name = "mixed";
  bench.data = Dataset(5, {});
  bench.data.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    Value d0 = rng.UniformValue(0, 1000000);
    Value d1 = 3 * d0 + rng.UniformValue(-500, 500);
    Value d2 = d0 / 2 + rng.UniformValue(-200000, 200000);
    Value d3 = rng.UniformValue(0, 8);
    Value d4 = static_cast<Value>(rng.NextExponential(1e-4));
    bench.data.AppendRow({d0, d1, d2, d3, d4});
  }
  // Two skewed query types plus one uniform type.
  for (int i = 0; i < 90; ++i) {
    Query q;
    switch (i % 3) {
      case 0: {  // Narrow recent-d0 ranges.
        Value lo = rng.UniformValue(900000, 990000);
        q.filters = {Predicate{0, lo, lo + 10000}};
        break;
      }
      case 1: {  // Equality on the categorical dim + a d1 range.
        Value lo = rng.UniformValue(0, 2500000);
        q.filters = {Predicate{3, rng.UniformValue(0, 8),
                               rng.UniformValue(0, 8)},
                     Predicate{1, lo, lo + 400000}};
        break;
      }
      default: {  // Wide ranges over the loose/heavy dims.
        Value lo = rng.UniformValue(0, 500000);
        q.filters = {Predicate{2, lo, lo + 250000},
                     Predicate{4, 0, rng.UniformValue(1000, 60000)}};
        break;
      }
    }
    if (q.filters.front().lo > q.filters.front().hi) {
      std::swap(q.filters.front().lo, q.filters.front().hi);
    }
    q.type = i % 3;
    bench.workload.push_back(q);
  }
  return bench;
}

std::vector<std::unique_ptr<MultiDimIndex>> BuildAll(const Benchmark& bench) {
  std::vector<std::unique_ptr<MultiDimIndex>> indexes;
  indexes.push_back(std::make_unique<FullScanIndex>(bench.data));
  indexes.push_back(
      std::make_unique<SingleDimIndex>(bench.data, bench.workload));
  {
    ZOrderIndex::Options options;
    options.page_size = 1024;
    indexes.push_back(std::make_unique<ZOrderIndex>(bench.data, options));
  }
  {
    HyperOctree::Options options;
    options.page_size = 1024;
    indexes.push_back(std::make_unique<HyperOctree>(bench.data, options));
  }
  {
    KdTree::Options options;
    options.page_size = 1024;
    indexes.push_back(
        std::make_unique<KdTree>(bench.data, bench.workload, options));
  }
  {
    RTreeIndex::Options options;
    options.page_size = 1024;
    indexes.push_back(std::make_unique<RTreeIndex>(bench.data, options));
  }
  {
    GridFileIndex::Options options;
    options.target_cell_rows = 1024;
    indexes.push_back(std::make_unique<GridFileIndex>(bench.data, options));
  }
  {
    UbTreeIndex::Options options;
    options.page_size = 1024;
    indexes.push_back(std::make_unique<UbTreeIndex>(bench.data, options));
  }
  indexes.push_back(std::make_unique<ZmIndex>(bench.data));
  {
    QdTreeIndex::Options options;
    options.min_leaf_rows = 1024;
    indexes.push_back(
        std::make_unique<QdTreeIndex>(bench.data, bench.workload, options));
  }
  // Secondary indexes over the d0-clustered table, keyed on correlated d1.
  indexes.push_back(std::make_unique<SortedSecondaryIndex>(
      bench.data, /*host_dim=*/0, /*key_dim=*/1));
  indexes.push_back(std::make_unique<CorrelationSecondaryIndex>(
      bench.data, /*host_dim=*/0, /*key_dim=*/1));
  {
    FloodOptions options;
    options.agd.max_iters = 2;
    indexes.push_back(
        std::make_unique<FloodIndex>(bench.data, bench.workload, options));
  }
  {
    TsunamiOptions options;
    options.cluster_queries = false;
    options.agd.max_iters = 2;
    indexes.push_back(
        std::make_unique<TsunamiIndex>(bench.data, bench.workload, options));
  }
  return indexes;
}

class ConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

// A coalesced plan: no empty task, and no task that starts where the
// previous one ends with the same exactness (it would have extended it).
void ExpectCoalesced(const QueryPlan& plan, const std::string& index) {
  for (size_t i = 0; i < plan.tasks.size(); ++i) {
    const RangeTask& task = plan.tasks[i];
    ASSERT_LT(task.begin, task.end) << index << " task " << i;
    if (i == 0) continue;
    const RangeTask& prev = plan.tasks[i - 1];
    ASSERT_FALSE(prev.end == task.begin && prev.exact == task.exact)
        << index << " tasks " << i - 1 << " and " << i << " meet at "
        << task.begin;
  }
}

TEST_P(ConsistencyTest, AllIndexesAgreeWithFullScanOnAllAggregates) {
  Benchmark bench = MakeMixedBenchmark(20000, GetParam());
  std::vector<std::unique_ptr<MultiDimIndex>> indexes = BuildAll(bench);
  ColumnStore reference(bench.data);

  // Workload queries plus adversarial ones: empty ranges, full-domain
  // ranges, point queries outside the domain.
  Workload probes = bench.workload;
  {
    Query q;
    q.filters = {Predicate{0, 500, 400}};  // Empty range.
    probes.push_back(q);
    q.filters = {Predicate{0, kValueMin, kValueMax}};  // Everything.
    probes.push_back(q);
    q.filters = {Predicate{4, -100, -1}};  // Entirely below the domain.
    probes.push_back(q);
    q.filters.clear();  // No filters at all.
    probes.push_back(q);
  }

  ExecContext ctx;
  for (Query q : probes) {
    for (AggKind agg : {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                        AggKind::kMax, AggKind::kAvg}) {
      q.SetAggregates({{agg, 2}});
      QueryResult want = ExecuteFullScan(reference, q);
      QueryResult oracle = InitResult(q);
      OracleScan(reference, 0, reference.size(), q, /*exact=*/false, &oracle);
      ASSERT_EQ(want.agg, oracle.agg)
          << "full scan disagrees with the row-at-a-time oracle (agg kind "
          << static_cast<int>(agg) << ")";
      ASSERT_EQ(want.matched, oracle.matched);
      ASSERT_EQ(want.scanned, oracle.scanned);
      for (const auto& index : indexes) {
        QueryResult got = index->Execute(q);
        ASSERT_EQ(got.agg, want.agg)
            << index->Name() << " disagrees (agg kind "
            << static_cast<int>(agg) << ")";
        ASSERT_EQ(got.matched, want.matched) << index->Name();
        ASSERT_GE(got.scanned, 0) << index->Name();
        const QueryPlan plan = index->Prepare(q);
        ExpectCoalesced(plan, index->Name());
        const QueryResult planned = index->ExecutePlan(plan, ctx);
        ASSERT_EQ(planned.agg, want.agg) << index->Name() << " plan";
        ASSERT_EQ(planned.matched, want.matched) << index->Name() << " plan";
        ASSERT_EQ(planned.scanned, got.scanned) << index->Name() << " plan";
        ASSERT_EQ(planned.cell_ranges, got.cell_ranges)
            << index->Name() << " plan";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace tsunami
