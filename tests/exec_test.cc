// Tests for the parallel execution substrate: thread pool semantics,
// parallel workload runs, and parallel index builds being bit-identical to
// serial builds.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/exec/runner.h"
#include "src/exec/task_scheduler.h"
#include "src/exec/thread_pool.h"
#include "src/flood/flood.h"
#include "src/ingest/ingest_store.h"

namespace tsunami {
namespace {

TEST(ThreadPoolTest, InlinePoolRunsOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.Submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
  }  // Destructor joins after draining.
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10000);
  pool.ParallelFor(0, 10000, 16, [&](int64_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(7, 8, 1, [&](int64_t i) {
    ++calls;
    EXPECT_EQ(i, 7);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForUsesMultipleThreads) {
  ThreadPool pool(4);
  std::atomic<int> distinct{0};
  std::mutex mu;
  std::vector<std::thread::id> seen;
  pool.ParallelFor(0, 64, 1, [&](int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    auto id = std::this_thread::get_id();
    if (std::find(seen.begin(), seen.end(), id) == seen.end()) {
      seen.push_back(id);
      distinct.fetch_add(1);
    }
  });
  EXPECT_GE(distinct.load(), 2);
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
  // identical results and counters for every pool size (regions are
  // disjoint, so partial merges are exact).
  Workload probes = workload_;
  Query wide;
  wide.filters = {Predicate{0, 0, 50000}};
  probes.push_back(wide);
  Query everything;
  probes.push_back(everything);
  for (int threads : {0, 1, 2, 4}) {
    ThreadPool pool(threads);
    ExecContext ctx(&pool);
    for (Query q : probes) {
      for (AggKind agg : {AggKind::kCount, AggKind::kSum, AggKind::kMin}) {
        q.agg = agg;
        q.agg_dim = 1;
        QueryResult serial = index.Execute(q);
        QueryResult parallel = index.ExecutePlan(index.Prepare(q), ctx);
        ASSERT_EQ(parallel.agg, serial.agg) << threads << " threads";
        ASSERT_EQ(parallel.matched, serial.matched);
        ASSERT_EQ(parallel.scanned, serial.scanned);
        ASSERT_EQ(parallel.cell_ranges, serial.cell_ranges);
      }
    }
  }
}

TEST_F(ParallelRunTest, SchedulerBackedExecuteRangeTasksMatchesSerial) {
  // A pool-less context with a work-stealing scheduler attached: the
  // runner submits its row-balanced chunks to the shared deques instead of
  // ParallelFor. Must be bit-identical to serial Execute for every worker
  // count. (Only legal from outside the scheduler's workers — the runner
  // blocks in Wait; see ExecContext::scheduler.)
  TsunamiOptions options;
  options.cluster_queries = false;
  TsunamiIndex index(data_, workload_, options);
  Workload probes = workload_;
  Query wide;
  wide.filters = {Predicate{0, 0, 50000}};
  probes.push_back(wide);
  for (int threads : {1, 2, 4}) {
    TaskScheduler scheduler(threads);
    ExecContext ctx;
    ctx.scheduler = &scheduler;
    for (Query q : probes) {
      q.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
      QueryResult serial = index.Execute(q);
      QueryResult stolen = index.ExecutePlan(index.Prepare(q), ctx);
      ASSERT_EQ(stolen.agg, serial.agg) << threads << " workers";
      ASSERT_EQ(stolen.matched, serial.matched);
      ASSERT_EQ(stolen.scanned, serial.scanned);
      ASSERT_EQ(stolen.cell_ranges, serial.cell_ranges);
      for (size_t i = 0; i < stolen.extra.size(); ++i) {
        ASSERT_EQ(stolen.extra[i], serial.extra[i]);
      }
    }
  }
}

TEST_F(ParallelRunTest, IntraQueryParallelismCoversDeltaBuffer) {
  // Unfolded rows live in the store's delta chunks, which only FinishPlan
  // scans: the pooled plan path must run it after the range scans.
  ingest::IngestOptions options;
  options.index.cluster_queries = false;
  options.background_compaction = false;
  ingest::IngestStore store(data_, workload_, options);
  store.Insert({100, 100, 100});
  store.Insert({200, 250, 500});
  ThreadPool pool(2);
  ExecContext ctx(&pool);
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
  ThreadPool pool(4);
  std::vector<QueryResult> parallel = RunWorkload(index, workload_, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].agg, serial[i].agg);
    EXPECT_EQ(parallel[i].matched, serial[i].matched);
    EXPECT_EQ(parallel[i].scanned, serial[i].scanned);
    EXPECT_EQ(parallel[i].cell_ranges, serial[i].cell_ranges);
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

}  // namespace
}  // namespace tsunami
