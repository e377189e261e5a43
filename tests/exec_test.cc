// Tests for parallel execution on the task scheduler: intra-query and batch
// runs bit-identical to serial execution, parallel index builds
// bit-identical to serial builds, and (with fault injection) a failed
// scheduler job surfacing as an exception instead of a wrong answer.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/exec/runner.h"
#include "src/exec/task_scheduler.h"
#include "src/flood/flood.h"
#include "src/ingest/ingest_store.h"

namespace tsunami {
namespace {

void ExpectSameResult(const QueryResult& got, const QueryResult& want,
                      const std::string& context) {
  EXPECT_EQ(got.agg, want.agg) << context;
  EXPECT_EQ(got.matched, want.matched) << context;
  EXPECT_EQ(got.scanned, want.scanned) << context;
  EXPECT_EQ(got.cell_ranges, want.cell_ranges) << context;
  EXPECT_EQ(got.extra, want.extra) << context;
}

// --- Parallel workload execution ---------------------------------------------

class ParallelRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    data_ = Dataset(3, {});
    const int64_t n = 25000;
    data_.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      Value x = rng.UniformValue(0, 50000);
      data_.AppendRow(
          {x, x + rng.UniformValue(-200, 200), rng.UniformValue(0, 1000)});
    }
    for (int i = 0; i < 80; ++i) {
      Query q;
      Value lo = rng.UniformValue(0, 45000);
      q.filters = {Predicate{0, lo, lo + 2000},
                   Predicate{2, 0, rng.UniformValue(100, 900)}};
      q.type = i % 2;
      workload_.push_back(q);
    }
  }

  Dataset data_;
  Workload workload_;
};

TEST_F(ParallelRunTest, IntraQueryParallelismMatchesSerialExecute) {
  TsunamiOptions options;
  options.cluster_queries = false;
  TsunamiIndex index(data_, workload_, options);
  // A query spanning many regions, plus the regular workload, must return
  // identical results and counters for every worker count (regions are
  // disjoint, so partial merges are exact). The plan's row-balanced chunks
  // run as one job on the scheduler's deques; that is only legal from
  // outside its workers (see ExecContext::scheduler).
  Workload probes = workload_;
  Query wide;
  wide.filters = {Predicate{0, 0, 50000}};
  probes.push_back(wide);
  Query everything;
  probes.push_back(everything);
  const std::vector<std::vector<AggregateSpec>> aggregate_lists = {
      {{AggKind::kCount, 1}},
      {{AggKind::kSum, 1}},
      {{AggKind::kMin, 1}},
      {{AggKind::kSum, 1}, {AggKind::kCount, 0}}};
  for (int threads : {0, 1, 2, 4}) {
    TaskScheduler scheduler(threads);
    ExecContext ctx(&scheduler);
    for (Query q : probes) {
      for (const std::vector<AggregateSpec>& aggs : aggregate_lists) {
        q.SetAggregates(aggs);
        QueryResult serial = index.Execute(q);
        QueryResult parallel = index.ExecutePlan(index.Prepare(q), ctx);
        ExpectSameResult(parallel, serial,
                         std::to_string(threads) + " workers");
        if (HasFailure()) return;
      }
    }
  }
}

TEST_F(ParallelRunTest, IntraQueryParallelismCoversDeltaBuffer) {
  // Unfolded rows live in the store's delta chunks, which only FinishPlan
  // scans: the scheduled plan path must run it after the range scans.
  ingest::IngestOptions options;
  options.index.cluster_queries = false;
  options.background_compaction = false;
  ingest::IngestStore store(data_, workload_, options);
  store.Insert({100, 100, 100});
  store.Insert({200, 250, 500});
  TaskScheduler scheduler(2);
  ExecContext ctx(&scheduler);
  Query q;
  q.filters = {Predicate{0, 0, 50000}};
  QueryResult serial = store.Execute(q);
  QueryResult parallel = store.ExecutePlan(store.Prepare(q), ctx);
  EXPECT_EQ(parallel.agg, serial.agg);
  EXPECT_EQ(parallel.matched, serial.matched);
  EXPECT_EQ(parallel.scanned, serial.scanned);
  EXPECT_EQ(parallel.cell_ranges, serial.cell_ranges);
  EXPECT_EQ(parallel.matched,
            store.CurrentSnapshot()->index().Execute(q).matched + 2);
}

TEST_F(ParallelRunTest, ParallelResultsEqualSerial) {
  TsunamiOptions options;
  options.cluster_queries = false;
  TsunamiIndex index(data_, workload_, options);
  std::vector<QueryResult> serial = RunWorkload(index, workload_);
  TaskScheduler scheduler(4);
  ExecContext ctx(&scheduler);
  std::vector<QueryResult> parallel = RunWorkload(index, workload_, ctx);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSameResult(parallel[i], serial[i], "query " + std::to_string(i));
  }
}

TEST_F(ParallelRunTest, MeasureWorkloadCountersMatchResults) {
  FloodIndex index(data_, workload_, FloodOptions());
  std::vector<QueryResult> results = RunWorkload(index, workload_);
  WorkloadRunStats stats = MeasureWorkload(index, workload_);
  int64_t scanned = 0, matched = 0;
  for (const QueryResult& r : results) {
    scanned += r.scanned;
    matched += r.matched;
  }
  EXPECT_EQ(stats.total_scanned, scanned);
  EXPECT_EQ(stats.total_matched, matched);
  EXPECT_GT(stats.avg_query_micros, 0.0);
}

// --- Parallel index construction ----------------------------------------------

TEST_F(ParallelRunTest, ParallelBuildProducesIdenticalIndex) {
  TsunamiOptions serial_options;
  serial_options.cluster_queries = false;
  serial_options.build_threads = 1;
  TsunamiIndex serial(data_, workload_, serial_options);

  TsunamiOptions parallel_options = serial_options;
  parallel_options.build_threads = 4;
  TsunamiIndex parallel(data_, workload_, parallel_options);

  // Structure must be identical, not merely equivalent.
  EXPECT_EQ(parallel.stats().num_regions, serial.stats().num_regions);
  EXPECT_EQ(parallel.stats().total_cells, serial.stats().total_cells);
  EXPECT_EQ(parallel.IndexSizeBytes(), serial.IndexSizeBytes());
  // Build times are thread-time sums, so overlapping regions can never
  // drive either one negative.
  EXPECT_GE(parallel.stats().optimize_seconds, 0.0);
  EXPECT_GE(parallel.stats().sort_seconds, 0.0);
  ASSERT_EQ(parallel.store().size(), serial.store().size());
  for (int d = 0; d < serial.store().dims(); ++d) {
    EXPECT_EQ(parallel.store().DecodeColumn(d), serial.store().DecodeColumn(d))
        << "clustered layout differs in dimension " << d;
  }
  // The parallel build encodes one column per scheduler chunk: every
  // zone-map entry and every column's code-width mix must match too.
  const ZoneMaps& zs = serial.store().zone_maps();
  const ZoneMaps& zp = parallel.store().zone_maps();
  ASSERT_EQ(zp.num_blocks(), zs.num_blocks());
  for (int d = 0; d < serial.store().dims(); ++d) {
    for (int64_t b = 0; b < zs.num_blocks(); ++b) {
      ASSERT_EQ(zp.Min(d, b), zs.Min(d, b)) << "dim " << d << " block " << b;
      ASSERT_EQ(zp.Max(d, b), zs.Max(d, b)) << "dim " << d << " block " << b;
      ASSERT_EQ(zp.Sum(d, b), zs.Sum(d, b)) << "dim " << d << " block " << b;
    }
    int64_t ws[4] = {0, 0, 0, 0};
    int64_t wp[4] = {0, 0, 0, 0};
    serial.store().encoded(d).WidthHistogram(ws);
    parallel.store().encoded(d).WidthHistogram(wp);
    EXPECT_EQ(std::vector<int64_t>(wp, wp + 4), std::vector<int64_t>(ws, ws + 4))
        << "code widths differ in dimension " << d;
  }
  // And answers + work done must match query by query.
  for (const Query& q : workload_) {
    QueryResult a = serial.Execute(q);
    QueryResult b = parallel.Execute(q);
    EXPECT_EQ(a.agg, b.agg);
    EXPECT_EQ(a.scanned, b.scanned);
    EXPECT_EQ(a.cell_ranges, b.cell_ranges);
  }
}

class BuildThreadSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(BuildThreadSweepTest, AnyThreadCountMatchesFullScan) {
  Rng rng(31);
  Dataset data(2, {});
  for (int64_t i = 0; i < 8000; ++i) {
    Value x = rng.UniformValue(0, 10000);
    data.AppendRow({x, rng.UniformValue(0, 10000)});
  }
  Workload workload;
  for (int i = 0; i < 30; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 9000);
    q.filters = {Predicate{i % 2, lo, lo + 500}};
    q.type = i % 2;
    workload.push_back(q);
  }
  TsunamiOptions options;
  options.cluster_queries = false;
  options.build_threads = GetParam();
  TsunamiIndex index(data, workload, options);
  ColumnStore reference(data);
  for (const Query& q : workload) {
    EXPECT_EQ(index.Execute(q).agg, ExecuteFullScan(reference, q).agg);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BuildThreadSweepTest,
                         ::testing::Values(1, 2, 3, 8));

// --- Failed scheduler jobs ---------------------------------------------------
//
// The scheduler swallows a chunk's exception and marks its job failed; the
// failed chunk's partial is left empty. Every blocking client (the range
// executor, the batch loop, the parallel build) must throw rather than
// consume such a job. sched.task_throw fires before the chunk body runs.

class SchedulerFaultTest : public ParallelRunTest {
 protected:
  void TearDown() override {
#if defined(TSUNAMI_FAULT_INJECTION)
    fault::DisarmAll();
#endif
  }

#if defined(TSUNAMI_FAULT_INJECTION)
  /// Arms sched.task_throw to fire on exactly the next chunk to run.
  static void FailNextChunk() {
    fault::FaultSpec spec;
    spec.max_fires = 1;
    fault::Arm("sched.task_throw", spec);
  }
#endif
};

TEST_F(SchedulerFaultTest, ExecutePlanThrowsInsteadOfMergingFailedChunk) {
#if !defined(TSUNAMI_FAULT_INJECTION)
  GTEST_SKIP() << "built without TSUNAMI_FAULT_INJECTION";
#else
  // ~24k planned rows split across 4 workers. Merging around the failed
  // chunk's empty partial would drop its rows and fold its zero into MIN;
  // with several aggregates the empty partial has no extra accumulators at
  // all.
  FloodIndex index(data_, workload_, FloodOptions());
  TaskScheduler scheduler(4);
  ExecContext ctx(&scheduler);
  Query min_only;
  min_only.filters = {Predicate{0, 1000, 50000}};
  min_only.SetAggregates({{AggKind::kMin, 0}});
  Query three = min_only;
  three.SetAggregates(
      {{AggKind::kMin, 0}, {AggKind::kSum, 1}, {AggKind::kMax, 2}});
  for (const Query& q : {min_only, three}) {
    const QueryPlan plan = index.Prepare(q);
    FailNextChunk();
    EXPECT_THROW(index.ExecutePlan(plan, ctx), std::runtime_error);
    EXPECT_EQ(fault::FireCount("sched.task_throw"), 1);
    fault::DisarmAll();
    ExpectSameResult(index.ExecutePlan(plan, ctx), index.Execute(q),
                     "after the fault");
  }
#endif
}

TEST_F(SchedulerFaultTest, ExecuteBatchThrowsOnFailedItem) {
#if !defined(TSUNAMI_FAULT_INJECTION)
  GTEST_SKIP() << "built without TSUNAMI_FAULT_INJECTION";
#else
  FloodIndex index(data_, workload_, FloodOptions());
  TaskScheduler scheduler(4);
  ExecContext ctx(&scheduler);
  FailNextChunk();
  EXPECT_THROW(RunWorkload(index, workload_, ctx), std::runtime_error);
  EXPECT_EQ(fault::FireCount("sched.task_throw"), 1);
#endif
}

TEST_F(SchedulerFaultTest, ParallelEncodeThrowsOnFailedColumn) {
#if !defined(TSUNAMI_FAULT_INJECTION)
  GTEST_SKIP() << "built without TSUNAMI_FAULT_INJECTION";
#else
  // The column store's per-column chunks fail like region chunks: the
  // constructor throws instead of returning a store missing a column.
  std::vector<uint32_t> perm(data_.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<uint32_t>(perm.size() - 1 - i);
  }
  TaskScheduler scheduler(2);
  FailNextChunk();
  EXPECT_THROW(ColumnStore(data_, perm, EncodingEnabledByDefault(), &scheduler),
               std::runtime_error);
  EXPECT_EQ(fault::FireCount("sched.task_throw"), 1);
#endif
}

TEST_F(SchedulerFaultTest, ParallelBuildThrowsSerialBuildNeverSchedules) {
#if !defined(TSUNAMI_FAULT_INJECTION)
  GTEST_SKIP() << "built without TSUNAMI_FAULT_INJECTION";
#else
  TsunamiOptions options;
  options.cluster_queries = false;
  options.build_threads = 2;
  FailNextChunk();
  EXPECT_THROW(TsunamiIndex parallel(data_, workload_, options),
               std::runtime_error);
  EXPECT_EQ(fault::FireCount("sched.task_throw"), 1);

  // A serial build runs its regions on the calling thread, so the armed
  // site is never reached.
  FailNextChunk();
  options.build_threads = 1;
  TsunamiIndex serial(data_, workload_, options);
  EXPECT_EQ(fault::FireCount("sched.task_throw"), 0);
  ColumnStore reference(data_);
  for (const Query& q : workload_) {
    EXPECT_EQ(serial.Execute(q).agg, ExecuteFullScan(reference, q).agg);
  }
#endif
}

TEST_F(SchedulerFaultTest, FailedFoldBuildFailsCompactionClosed) {
#if !defined(TSUNAMI_FAULT_INJECTION)
  GTEST_SKIP() << "built without TSUNAMI_FAULT_INJECTION";
#else
  ingest::IngestOptions options;
  options.index.cluster_queries = false;
  options.index.build_threads = 2;
  options.background_compaction = false;
  ingest::IngestStore store(data_, workload_, options);
  Dataset expect = data_;
  Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    Value x = rng.UniformValue(0, 50000);
    std::vector<Value> row = {x, x + rng.UniformValue(-200, 200),
                              rng.UniformValue(0, 1000)};
    store.Insert(row);
    expect.AppendRow(row);
  }
  store.ForceRoll();
  const uint64_t version = store.version();
  const int64_t failed = store.stats().failed_compactions;

  FailNextChunk();
  EXPECT_EQ(store.CompactNow(), version);
  EXPECT_EQ(fault::FireCount("sched.task_throw"), 1);
  EXPECT_EQ(store.stats().failed_compactions, failed + 1);
  ColumnStore reference(expect);
  for (const Query& q : workload_) {
    QueryResult got = store.Execute(q);
    QueryResult want = ExecuteFullScan(reference, q);
    EXPECT_EQ(got.agg, want.agg);
    EXPECT_EQ(got.matched, want.matched);
  }
#endif
}

}  // namespace
}  // namespace tsunami
