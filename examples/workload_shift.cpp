// Workload shift (§6.4 / Fig. 9a): a warehouse whose query workload changes
// at midnight. The old index degrades on the new workload; rebuilding
// (re-optimization + data re-organization) restores performance within
// seconds at this scale.
//
//   $ ./build/examples/workload_shift
#include <cstdio>

#include "src/common/stats.h"
#include "src/core/query_clustering.h"
#include "src/core/tsunami.h"
#include "src/core/workload_monitor.h"
#include "src/datasets/tpch.h"
#include "src/datasets/workload_builder.h"

using namespace tsunami;

namespace {

double AvgMicros(const MultiDimIndex& index, const Workload& workload) {
  Timer timer;
  int64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const Query& q : workload) sink += index.Execute(q).agg;
  }
  if (sink < 0) return 0.0;
  return timer.ElapsedNanos() / (3.0 * workload.size()) / 1000.0;
}

}  // namespace

int main() {
  Benchmark bench = MakeTpchBenchmark(RowsFromEnv(200000));
  Workload night_workload = MakeTpchShiftedWorkload(bench.data);

  std::printf("daytime: building Tsunami for the daytime workload...\n");
  TsunamiIndex day_index(bench.data, bench.workload);
  std::printf("  daytime queries:   %7.1f us/query\n",
              AvgMicros(day_index, bench.workload));

  // A workload monitor (§8) watches the query stream for shift.
  int num_types = 0;
  Workload typed = LabelQueryTypes(SortedSample(bench.data), bench.workload,
                                   {}, &num_types);
  WorkloadMonitorOptions monitor_options;
  monitor_options.window = 200;
  WorkloadMonitor monitor(bench.data, typed, monitor_options);
  for (const Query& q : bench.workload) monitor.Observe(q);
  std::printf("  monitor after daytime traffic: reoptimize=%s\n",
              monitor.ShouldReoptimize() ? "yes" : "no");
  monitor.Reset();

  std::printf("midnight: workload shifts to five new query types.\n");
  double degraded = AvgMicros(day_index, night_workload);
  std::printf("  nighttime queries: %7.1f us/query on the old layout\n",
              degraded);
  for (const Query& q : night_workload) monitor.Observe(q);
  std::printf("  monitor flags: reoptimize=%s (%s)\n",
              monitor.ShouldReoptimize() ? "yes" : "no",
              monitor.Reason().c_str());

  std::printf("re-optimizing for the new workload...\n");
  Timer rebuild;
  TsunamiIndex night_index(bench.data, night_workload);
  double rebuild_seconds = rebuild.ElapsedSeconds();
  double restored = AvgMicros(night_index, night_workload);
  std::printf(
      "  rebuilt in %.2fs (%.2fs optimize + %.2fs re-organize)\n",
      rebuild_seconds, night_index.stats().optimize_seconds,
      night_index.stats().sort_seconds);
  std::printf("  nighttime queries: %7.1f us/query after re-optimization "
              "(%.1fx faster)\n",
              restored, degraded / restored);
  return 0;
}
