// Tests for the §8 extensions: workload-shift detection and incremental
// re-optimization through the fold constructor. Inserts are IngestStore's
// (tests/ingest_test.cc).
#include <gtest/gtest.h>

#include "src/baselines/full_scan.h"
#include "src/core/query_clustering.h"
#include "src/core/tsunami.h"
#include "src/core/workload_monitor.h"
#include "src/datasets/datasets.h"

namespace tsunami {
namespace {

TsunamiOptions SmallOptions() {
  TsunamiOptions options;
  options.sample_rows = 20000;
  options.agd.max_sample_points = 512;
  options.agd.max_sample_queries = 32;
  options.agd.max_iters = 2;
  options.agd.max_cells = 1 << 12;
  return options;
}

class WorkloadMonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_ = MakeTpchBenchmark(20000, 406, 20);
    int num_types = 0;
    typed_ = LabelQueryTypes(SortedSample(bench_.data), bench_.workload, {},
                             &num_types);
  }
  Benchmark bench_;
  Workload typed_;
};

TEST_F(WorkloadMonitorTest, SteadyWorkloadDoesNotTrigger) {
  WorkloadMonitorOptions options;
  options.window = 100;
  WorkloadMonitor monitor(bench_.data, typed_, options);
  for (int rep = 0; rep < 4; ++rep) {
    for (const Query& q : typed_) monitor.Observe(q);
  }
  EXPECT_GE(monitor.observed(), 100);
  EXPECT_FALSE(monitor.ShouldReoptimize()) << monitor.Reason();
  EXPECT_LT(monitor.unknown_fraction(), 0.2);
}

TEST_F(WorkloadMonitorTest, ShiftedWorkloadTriggersNewType) {
  WorkloadMonitorOptions options;
  options.window = 100;
  WorkloadMonitor monitor(bench_.data, typed_, options);
  Workload shifted = MakeTpchShiftedWorkload(bench_.data, 407, 30);
  for (const Query& q : shifted) monitor.Observe(q);
  EXPECT_TRUE(monitor.ShouldReoptimize());
  EXPECT_FALSE(monitor.Reason().empty());
  EXPECT_GT(monitor.unknown_fraction(), 0.2);
}

TEST_F(WorkloadMonitorTest, FrequencyDriftTriggers) {
  WorkloadMonitorOptions options;
  options.window = 100;
  WorkloadMonitor monitor(bench_.data, typed_, options);
  // Only ever observe queries of one build-time type.
  int count = 0;
  for (int rep = 0; rep < 20 && count < 150; ++rep) {
    for (const Query& q : typed_) {
      if (q.type == 0) {
        monitor.Observe(q);
        ++count;
      }
    }
  }
  EXPECT_TRUE(monitor.ShouldReoptimize());
  // One type dominating means the others disappeared (or drifted).
  EXPECT_TRUE(monitor.Reason() == "type disappeared" ||
              monitor.Reason() == "frequency drift")
      << monitor.Reason();
}

TEST_F(WorkloadMonitorTest, ResetClearsTheWindow) {
  WorkloadMonitorOptions options;
  options.window = 50;
  WorkloadMonitor monitor(bench_.data, typed_, options);
  Workload shifted = MakeTpchShiftedWorkload(bench_.data, 408, 20);
  for (const Query& q : shifted) monitor.Observe(q);
  ASSERT_TRUE(monitor.ShouldReoptimize());
  monitor.Reset();
  EXPECT_EQ(monitor.observed(), 0);
  EXPECT_FALSE(monitor.ShouldReoptimize());
}

TEST_F(WorkloadMonitorTest, WindowGatesDetection) {
  WorkloadMonitorOptions options;
  options.window = 1000;  // Larger than what we feed it.
  WorkloadMonitor monitor(bench_.data, typed_, options);
  Workload shifted = MakeTpchShiftedWorkload(bench_.data, 409, 20);
  for (const Query& q : shifted) monitor.Observe(q);
  EXPECT_FALSE(monitor.ShouldReoptimize());  // Not enough evidence yet.
}

TEST(IncrementalReoptTest, SameWorkloadReusesEveryRegionPlan) {
  Benchmark bench = MakeTpchBenchmark(12000, 410, 12);
  TsunamiIndex first(bench.data, bench.workload, SmallOptions());
  TsunamiIndex second(first, Dataset(), bench.workload, SmallOptions());
  EXPECT_EQ(second.stats().regions_reused,
            second.stats().num_indexed_regions);
  // The reused index keeps the previous tree.
  EXPECT_EQ(second.stats().num_regions, first.stats().num_regions);
  FullScanIndex reference(bench.data);
  for (const Query& q : bench.workload) {
    ASSERT_EQ(second.Execute(q).agg, reference.Execute(q).agg);
  }
}

TEST(IncrementalReoptTest, ShiftedWorkloadReoptimizesSomeRegions) {
  Benchmark bench = MakeTpchBenchmark(12000, 411, 12);
  Workload shifted = MakeTpchShiftedWorkload(bench.data, 412, 12);
  TsunamiIndex first(bench.data, bench.workload, SmallOptions());
  TsunamiIndex second(first, Dataset(), shifted, SmallOptions());
  // A hard shift must re-optimize at least one region, and the result must
  // stay correct on both workloads.
  EXPECT_LT(second.stats().regions_reused,
            second.stats().num_indexed_regions);
  FullScanIndex reference(bench.data);
  for (const Workload* w : {&shifted, &bench.workload}) {
    for (const Query& q : *w) {
      ASSERT_EQ(second.Execute(q).agg, reference.Execute(q).agg);
    }
  }
}

TEST(IncrementalReoptTest, FoldsExtraRowsIntoRebuild) {
  Benchmark bench = MakeUniformBenchmark(3, 5000, 413, 10);
  TsunamiIndex first(bench.data, bench.workload, SmallOptions());
  Dataset extra(3, {1, 2, 3, 4, 5, 6});
  TsunamiIndex second(first, extra, bench.workload, SmallOptions());
  Query all;
  EXPECT_EQ(first.Execute(all).agg, 5000);
  EXPECT_EQ(second.Execute(all).agg, 5002);
}

TEST(IncrementalReoptTest, FullBuildReportsZeroReuse) {
  Benchmark bench = MakeUniformBenchmark(3, 3000, 414, 10);
  TsunamiIndex index(bench.data, bench.workload, SmallOptions());
  EXPECT_EQ(index.stats().regions_reused, 0);
}

}  // namespace
}  // namespace tsunami
