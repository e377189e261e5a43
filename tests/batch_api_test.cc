// Randomized equivalence suite for the batched, multi-aggregate query API:
//  * ExecuteBatch over shuffled batches is bit-identical to per-query
//    Execute for every index (all baselines, Flood, Tsunami, the secondary
//    indexes, and the access-path router), across thread counts and SIMD
//    tiers;
//  * Prepare + ExecutePlan equals Execute;
//  * one multi-aggregate pass equals N single-aggregate runs, down at the
//    scan-kernel level too, where it also equals the row-at-a-time oracle;
//  * cancellation skips the remaining work and batch stats add up;
//  * the SQL engine's Prepare/RunBatch surface matches per-statement Run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
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
#include "src/exec/runner.h"
#include "src/exec/task_scheduler.h"
#include "src/flood/flood.h"
#include "src/ingest/ingest_store.h"
#include "src/query/engine.h"
#include "src/query/router.h"
#include "src/secondary/secondary_index.h"
#include "tests/scan_oracle.h"

namespace tsunami {
namespace {

void ExpectBitIdentical(const QueryResult& got, const QueryResult& want,
                        const std::string& context) {
  EXPECT_EQ(got.agg, want.agg) << context;
  EXPECT_EQ(got.scanned, want.scanned) << context;
  EXPECT_EQ(got.matched, want.matched) << context;
  EXPECT_EQ(got.cell_ranges, want.cell_ranges) << context;
  ASSERT_EQ(got.extra.size(), want.extra.size()) << context;
  for (size_t i = 0; i < got.extra.size(); ++i) {
    EXPECT_EQ(got.extra[i], want.extra[i]) << context << " extra " << i;
  }
}

class BatchApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(71);
    const int64_t n = 16000;
    data_ = Dataset(3, {});
    data_.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      Value x = rng.UniformValue(0, 40000);
      data_.AppendRow(
          {x, x + rng.UniformValue(-300, 300), rng.UniformValue(0, 1000)});
    }
    // Mixed workload: varying filtered dimensions, aggregates, and
    // selectivities, including unfiltered and multi-aggregate queries.
    for (int i = 0; i < 48; ++i) {
      Query q;
      if (i % 5 != 4) {
        Value lo = rng.UniformValue(0, 36000);
        q.filters.push_back(Predicate{0, lo, lo + 3000});
      }
      if (i % 3 == 0) {
        q.filters.push_back(Predicate{2, 0, rng.UniformValue(100, 900)});
      }
      switch (i % 4) {
        case 0:
          q.SetAggregates({{AggKind::kCount, 0}});
          break;
        case 1:
          q.SetAggregates({{AggKind::kSum, 1}});
          break;
        case 2:
          q.SetAggregates({{AggKind::kMin, 2}});
          break;
        case 3:
          q.SetAggregates({{AggKind::kSum, 2},
                           {AggKind::kCount, 0},
                           {AggKind::kMin, 1},
                           {AggKind::kMax, 0}});
          break;
      }
      q.type = i % 2;
      workload_.push_back(q);
    }
  }

  struct Roster {
    std::vector<std::unique_ptr<MultiDimIndex>> indexes;
    std::unique_ptr<AccessPathRouter> router;

    std::vector<const MultiDimIndex*> All() const {
      std::vector<const MultiDimIndex*> all;
      for (const auto& index : indexes) all.push_back(index.get());
      if (router != nullptr) all.push_back(router.get());
      return all;
    }
  };

  Roster BuildRoster() const {
    Roster roster;
    auto& xs = roster.indexes;
    xs.push_back(std::make_unique<FullScanIndex>(data_));
    xs.push_back(std::make_unique<SingleDimIndex>(data_, workload_));
    xs.push_back(std::make_unique<ZOrderIndex>(data_, ZOrderIndex::Options()));
    xs.push_back(std::make_unique<HyperOctree>(data_, HyperOctree::Options()));
    xs.push_back(std::make_unique<KdTree>(data_, workload_));
    xs.push_back(
        std::make_unique<GridFileIndex>(data_, GridFileIndex::Options()));
    xs.push_back(std::make_unique<RTreeIndex>(data_, RTreeIndex::Options()));
    xs.push_back(std::make_unique<UbTreeIndex>(data_, UbTreeIndex::Options()));
    xs.push_back(std::make_unique<QdTreeIndex>(data_, workload_));
    xs.push_back(std::make_unique<ZmIndex>(data_, ZmIndex::Options()));
    xs.push_back(std::make_unique<FloodIndex>(data_, workload_));
    TsunamiOptions options;
    options.cluster_queries = false;
    xs.push_back(std::make_unique<TsunamiIndex>(data_, workload_, options));
    xs.push_back(std::make_unique<SortedSecondaryIndex>(data_, /*host_dim=*/0,
                                                        /*key_dim=*/2));
    xs.push_back(std::make_unique<CorrelationSecondaryIndex>(
        data_, /*host_dim=*/0, /*key_dim=*/1));
    roster.router = std::make_unique<AccessPathRouter>(
        std::vector<const MultiDimIndex*>{xs[0].get(), xs[1].get(),
                                          xs[12].get()},
        data_, workload_);
    return roster;
  }

  Dataset data_;
  Workload workload_;
};

TEST_F(BatchApiTest, ExecuteBatchMatchesPerQueryExecuteShuffled) {
  Roster roster = BuildRoster();
  Rng rng(72);
  for (const MultiDimIndex* index : roster.All()) {
    Workload shuffled = workload_;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
    }
    for (int threads : {0, 4}) {
      TaskScheduler scheduler(threads);
      for (SimdTier tier : {SimdTier::kAuto, SimdTier::kNone}) {
        ExecContext ctx(&scheduler, ScanOptions{tier});
        std::vector<QueryResult> batch = RunWorkload(*index, shuffled, ctx);
        ASSERT_EQ(batch.size(), shuffled.size());
        for (size_t i = 0; i < shuffled.size(); ++i) {
          ExpectBitIdentical(batch[i], index->Execute(shuffled[i]),
                             index->Name() + " query " + std::to_string(i) +
                                 " threads " + std::to_string(threads));
        }
        EXPECT_EQ(ctx.stats.queries, static_cast<int64_t>(shuffled.size()));
      }
    }
  }
}

TEST_F(BatchApiTest, PrepareThenExecutePlanMatchesExecute) {
  Roster roster = BuildRoster();
  TaskScheduler scheduler(2);
  for (const MultiDimIndex* index : roster.All()) {
    ExecContext ctx(&scheduler);
    for (size_t i = 0; i < workload_.size(); ++i) {
      QueryPlan plan = index->Prepare(workload_[i]);
      ExpectBitIdentical(index->ExecutePlan(plan, ctx),
                         index->Execute(workload_[i]),
                         index->Name() + " plan " + std::to_string(i));
    }
  }
}

TEST_F(BatchApiTest, MultiAggregateMatchesSingleAggregateRuns) {
  Roster roster = BuildRoster();
  std::vector<AggregateSpec> specs = {{AggKind::kSum, 1},
                                      {AggKind::kCount, 0},
                                      {AggKind::kMin, 0},
                                      {AggKind::kMax, 2},
                                      {AggKind::kAvg, 2}};
  Rng rng(73);
  for (const MultiDimIndex* index : roster.All()) {
    for (int trial = 0; trial < 6; ++trial) {
      Query multi;
      if (trial % 3 != 2) {
        Value lo = rng.UniformValue(0, 30000);
        multi.filters.push_back(Predicate{0, lo, lo + 5000});
      }
      if (trial % 2 == 0) {
        multi.filters.push_back(Predicate{2, 100, 800});
      }
      multi.SetAggregates(specs);
      QueryResult got = index->Execute(multi);
      for (size_t a = 0; a < specs.size(); ++a) {
        Query single = multi;
        single.SetAggregates({specs[a]});
        QueryResult want = index->Execute(single);
        EXPECT_EQ(got.agg_value(static_cast<int>(a)), want.agg)
            << index->Name() << " trial " << trial << " agg " << a;
        EXPECT_EQ(got.matched, want.matched) << index->Name();
      }
    }
  }
}

// Acceptance check at the kernel level: one scan pass produces
// SUM+COUNT+MIN+MAX simultaneously, equal to four single-aggregate passes
// and to the row-at-a-time oracle, at every SIMD tier.
TEST_F(BatchApiTest, KernelSinglePassComputesFourAggregates) {
  ColumnStore store(data_);
  Rng rng(74);
  std::vector<AggregateSpec> specs = {{AggKind::kSum, 1},
                                      {AggKind::kCount, 0},
                                      {AggKind::kMin, 2},
                                      {AggKind::kMax, 1}};
  for (int trial = 0; trial < 8; ++trial) {
    Query multi;
    Value lo = rng.UniformValue(0, 30000);
    multi.filters.push_back(Predicate{0, lo, lo + 8000});
    multi.SetAggregates(specs);
    int64_t begin = rng.NextBelow(store.size() / 2);
    int64_t end = begin + 1 + rng.NextBelow(store.size() - begin - 1);
    for (SimdTier tier : {SimdTier::kAuto, SimdTier::kNone, SimdTier::kNeon,
                          SimdTier::kAvx2, SimdTier::kAvx512}) {
      for (bool exact : {false, true}) {
        QueryResult got = InitResult(multi);
        store.ScanRange(begin, end, multi, exact, &got, ScanOptions{tier});
        QueryResult oracle = InitResult(multi);
        OracleScan(store, begin, end, multi, exact, &oracle);
        EXPECT_EQ(got.agg, oracle.agg) << SimdTierName(tier);
        EXPECT_EQ(got.extra, oracle.extra) << SimdTierName(tier);
        EXPECT_EQ(got.matched, oracle.matched) << SimdTierName(tier);
        EXPECT_EQ(got.scanned, oracle.scanned) << SimdTierName(tier);
        for (size_t a = 0; a < specs.size(); ++a) {
          Query single = multi;
          single.SetAggregates({specs[a]});
          QueryResult want = InitResult(single);
          store.ScanRange(begin, end, single, exact, &want,
                          ScanOptions{tier});
          EXPECT_EQ(got.agg_value(static_cast<int>(a)), want.agg)
              << SimdTierName(tier) << " exact " << exact << " agg " << a;
          EXPECT_EQ(got.matched, want.matched);
        }
      }
    }
  }
}

TEST_F(BatchApiTest, MinFirstAggregateListInitsAndMergesByKind) {
  // The first aggregate's kind, not the default COUNT's, sets the primary
  // accumulator's identity and its merge rule.
  Query q({}, {{AggKind::kMin, 1}, {AggKind::kSum, 2}});
  QueryResult init = InitResult(q);
  EXPECT_EQ(init.agg, kValueMax);  // MIN identity, not COUNT's 0.

  FloodIndex index(data_, workload_);
  QueryResult want = FullScanIndex(data_).Execute(q);
  QueryResult got = index.Execute(q);
  EXPECT_EQ(got.agg, want.agg);
  ASSERT_EQ(got.extra.size(), want.extra.size());
  EXPECT_EQ(got.extra[0], want.extra[0]);

  // The parallel partial-merge path (MergeQueryResults over MIN) too: the
  // unfiltered 16k-row scan exceeds a 2-worker scheduler's inline
  // threshold.
  TaskScheduler scheduler(2);
  ExecContext ctx(&scheduler);
  QueryResult parallel = index.ExecutePlan(index.Prepare(q), ctx);
  EXPECT_EQ(parallel.agg, want.agg);
  EXPECT_EQ(parallel.extra[0], want.extra[0]);
}

TEST_F(BatchApiTest, CancelledContextSkipsRemainingQueries) {
  FullScanIndex index(data_);
  std::atomic<bool> cancel{true};  // Cancelled before the batch starts.
  ExecContext ctx;
  ctx.cancel = &cancel;
  std::vector<QueryResult> results = RunWorkload(index, workload_, ctx);
  ASSERT_EQ(results.size(), workload_.size());
  EXPECT_EQ(ctx.stats.queries, 0);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectBitIdentical(results[i], InitResult(workload_[i]), "cancelled");
  }
}

TEST_F(BatchApiTest, DeadlineStopsBatchAndSurvivesForking) {
  FullScanIndex index(data_);
  ExecContext ctx;
  ctx.deadline_seconds = 1e-9;  // Expires before the first query.
  std::vector<QueryResult> results = RunWorkload(index, workload_, ctx);
  ASSERT_EQ(results.size(), workload_.size());
  // The deadline must stop the batch early (executing every query would
  // mean ShouldStop never fired).
  EXPECT_LT(ctx.stats.queries, static_cast<int64_t>(workload_.size()));
  // Forked children inherit the *remaining* deadline — an expired parent
  // must hand out an immediately-expiring child, never 0 ("no deadline"),
  // so forwarding layers (engine statements, batch items on scheduler
  // workers) cannot restart the clock.
  EXPECT_TRUE(ctx.ShouldStop());
  ExecContext child = ctx.Fork();
  EXPECT_GT(child.deadline_seconds, 0.0);
  EXPECT_LE(child.deadline_seconds, ctx.deadline_seconds);
  // A deadline-free parent forks deadline-free children.
  ExecContext free_ctx;
  EXPECT_EQ(free_ctx.Fork().deadline_seconds, 0.0);
}

TEST_F(BatchApiTest, BatchStatsMatchPerQueryCounters) {
  FloodIndex index(data_, workload_);
  TaskScheduler scheduler(3);
  ExecContext ctx(&scheduler);
  std::vector<QueryResult> results = RunWorkload(index, workload_, ctx);
  int64_t scanned = 0, matched = 0, ranges = 0;
  for (const QueryResult& r : results) {
    scanned += r.scanned;
    matched += r.matched;
    ranges += r.cell_ranges;
  }
  EXPECT_EQ(ctx.stats.queries, static_cast<int64_t>(workload_.size()));
  EXPECT_EQ(ctx.stats.scanned, scanned);
  EXPECT_EQ(ctx.stats.matched, matched);
  EXPECT_EQ(ctx.stats.cell_ranges, ranges);
  EXPECT_GE(ctx.stats.seconds, 0.0);
}

TEST_F(BatchApiTest, BatchSubmitsExactlyOneSchedulerJob) {
  // ExecuteBatch runs as one job of one chunk per query, each query's scans
  // inline on its worker. TaskScheduler::Run waits without helping run
  // chunks, so a batch item that submitted a nested job could deadlock
  // once every worker waited on one; this pins that items never do. The
  // store is large enough that an unfiltered query would split into its
  // own job if its context still carried the scheduler.
  Rng rng(75);
  Dataset data(3, {});
  for (int64_t i = 0; i < 4 * 16384; ++i) {
    Value x = rng.UniformValue(0, 40000);
    data.AppendRow(
        {x, x + rng.UniformValue(-300, 300), rng.UniformValue(0, 1000)});
  }
  FloodIndex index(data, workload_);
  const std::span<const Query> batch(workload_.data(), 24);
  TaskScheduler scheduler(4);
  ExecContext ctx(&scheduler);
  const TaskScheduler::Stats before = scheduler.stats();
  std::vector<QueryResult> results = index.ExecuteBatch(batch, ctx);
  const TaskScheduler::Stats after = scheduler.stats();
  EXPECT_EQ(after.jobs - before.jobs, 1);
  EXPECT_EQ(after.chunks - before.chunks, 24);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectBitIdentical(results[i], index.Execute(batch[i]),
                       "query " + std::to_string(i));
  }
}

TEST_F(BatchApiTest, DeltaBufferCoveredByBatchPath) {
  // Unfolded rows live in the store's delta chunks, which only FinishPlan
  // scans: the scheduled batch path must run it after the range scans.
  ingest::IngestOptions options;
  options.index.cluster_queries = false;
  options.background_compaction = false;
  ingest::IngestStore store(data_, workload_, options);
  store.Insert({100, 150, 500});
  store.Insert({35000, 34800, 200});
  const auto snapshot = store.CurrentSnapshot();  // Owns the sorted index.
  const TsunamiIndex& sorted = snapshot->index();
  TaskScheduler scheduler(2);
  ExecContext ctx(&scheduler);
  std::vector<QueryResult> batch = RunWorkload(store, workload_, ctx);
  for (size_t i = 0; i < workload_.size(); ++i) {
    ExpectBitIdentical(batch[i], store.Execute(workload_[i]),
                       "delta query " + std::to_string(i));
    EXPECT_EQ(batch[i].scanned, sorted.Execute(workload_[i]).scanned + 2);
  }
}

TEST_F(BatchApiTest, EngineMultiAggregateAndRunBatch) {
  FullScanIndex index(data_);
  TableSchema schema;
  schema.table_name = "t";
  schema.columns = {"a", "b", "c"};
  QueryEngine engine(&index, schema);

  // Multi-aggregate SELECT list: one pass equals the four single runs.
  SqlResult multi = engine.Run(
      "SELECT SUM(b), COUNT(*), MIN(a), MAX(c) FROM t WHERE a BETWEEN 1000 "
      "AND 20000 AND c <= 700");
  ASSERT_TRUE(multi.ok) << multi.error;
  ASSERT_EQ(multi.values.size(), 4u);
  const char* singles[] = {"SELECT SUM(b)", "SELECT COUNT(*)",
                           "SELECT MIN(a)", "SELECT MAX(c)"};
  for (int a = 0; a < 4; ++a) {
    SqlResult one = engine.Run(
        std::string(singles[a]) +
        " FROM t WHERE a BETWEEN 1000 AND 20000 AND c <= 700");
    ASSERT_TRUE(one.ok) << one.error;
    EXPECT_DOUBLE_EQ(multi.values[a], one.value) << a;
  }
  EXPECT_DOUBLE_EQ(multi.value, multi.values[0]);

  // Prepared batch equals per-statement Run, including disjunctive and
  // unsatisfiable statements.
  std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM t WHERE a < 5000",
      "SELECT SUM(c), AVG(c) FROM t WHERE b > 10000",
      "SELECT COUNT(*) FROM t WHERE a < 1000 OR c > 900",
      "SELECT MIN(b) FROM t WHERE a > 20000 AND a < 1000",
  };
  std::vector<PreparedStatement> stmts;
  for (const std::string& sql : sqls) stmts.push_back(engine.Prepare(sql));
  TaskScheduler scheduler(2);
  ExecContext ctx(&scheduler);
  std::vector<SqlResult> batch = engine.RunBatch(stmts, ctx);
  ASSERT_EQ(batch.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    SqlResult want = engine.Run(sqls[i]);
    ASSERT_EQ(batch[i].ok, want.ok) << sqls[i];
    EXPECT_DOUBLE_EQ(batch[i].value, want.value) << sqls[i];
    EXPECT_EQ(batch[i].stats.matched, want.stats.matched) << sqls[i];
  }

  // Too many aggregates is a parse error, not a crash.
  PreparedStatement overflow = engine.Prepare(
      "SELECT COUNT(*), COUNT(*), COUNT(*), COUNT(*), COUNT(*), COUNT(*), "
      "COUNT(*), COUNT(*), COUNT(*) FROM t");
  EXPECT_FALSE(overflow.ok);
}

TEST_F(BatchApiTest, CalibrationAcceptsForcedTier) {
  // The calibration path must honor forced scan options (the ScanOptions
  // plumbing gap): a forced-tier calibration runs that kernel and still
  // produces sane positive weights.
  CostWeights simd = CalibrateCostWeights(ScanOptions{SimdTier::kAuto});
  CostWeights scalar = CalibrateCostWeights(ScanOptions{SimdTier::kNone});
  EXPECT_GT(simd.w0, 0.0);
  EXPECT_GT(simd.w1, 0.0);
  EXPECT_GT(scalar.w0, 0.0);
  EXPECT_GT(scalar.w1, 0.0);
  ExecContext ctx;
  ctx.scan = ScanOptions{SimdTier::kNone};
  CostWeights forced = CalibrateCostWeights(ctx);
  EXPECT_GT(forced.w1, 0.0);
  // Every per-point term the probe measured is positive and finite; the
  // per-width terms are measured only when narrowing is on (else 0, and
  // ScanCostForSpan falls back to w1).
  for (const CostWeights& w : {simd, scalar, forced}) {
    for (double term : {w.w1, w.w1_u8, w.w1_u16, w.w1_u32}) {
      if (term == 0.0 && !EncodingEnabledByDefault()) continue;
      EXPECT_GT(term, 0.0);
      EXPECT_TRUE(std::isfinite(term));
    }
  }
}

}  // namespace
}  // namespace tsunami
