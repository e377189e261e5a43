// Reproduces Fig. 7: average query time / throughput of Tsunami vs Flood vs
// the optimally-tuned non-learned indexes on all four datasets. The paper's
// shape: Tsunami fastest everywhere, up to ~6x over Flood and ~11x over the
// best non-learned index.
//
// Workloads are driven through the batch API (one ExecuteBatch per repeat,
// queries spread over the task scheduler) so throughput reflects the
// serving path; a per-query Execute column keeps the legacy dispatch
// comparable.
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace tsunami;
  int64_t rows = RowsFromEnv(200000);
  TaskScheduler scheduler(TaskScheduler::DefaultThreads());
  bench::PrintHeader("Fig 7: Query throughput (higher is better)");
  for (const Benchmark& b : MakeAllBenchmarks(rows)) {
    std::printf("\n%s (%lld rows, %zu queries)\n", b.name.c_str(),
                static_cast<long long>(b.data.size()), b.workload.size());
    std::printf("  %-12s %14s %14s %14s %10s %12s\n", "index",
                "batch query(us)", "queries/sec", "per-query(us)", "vs Flood",
                "scan/query");
    std::vector<bench::BuiltIndex> built = bench::BuildAllIndexes(b);
    const int kReps = 3;
    // Each index is timed once; "vs Flood" divides by Flood's time from the
    // same loop, so the column is a ratio of one measurement each.
    std::vector<double> nanos, serial_nanos;
    std::vector<int64_t> scanned;
    double flood_nanos = 0.0;
    for (const auto& bi : built) {
      ExecContext ctx(&scheduler);
      nanos.push_back(bench::MeasureAvgQueryNanosBatch(*bi.index, b.workload,
                                                       ctx, kReps));
      serial_nanos.push_back(
          bench::MeasureAvgQueryNanos(*bi.index, b.workload));
      scanned.push_back(ctx.stats.scanned / kReps);  // Stats add per repeat.
      if (bi.name == "Flood") flood_nanos = nanos.back();
    }
    for (size_t i = 0; i < built.size(); ++i) {
      std::printf("  %-12s %14.1f %14.0f %14.1f %9.2fx %12lld\n",
                  built[i].name.c_str(), nanos[i] / 1000.0,
                  bench::ThroughputQps(nanos[i]), serial_nanos[i] / 1000.0,
                  flood_nanos > 0 ? flood_nanos / nanos[i] : 0.0,
                  static_cast<long long>(scanned[i] /
                                         static_cast<int64_t>(
                                             b.workload.size())));
    }
  }
  std::printf(
      "\nshape check: Tsunami fastest on every dataset; learned indexes\n"
      "(Flood, Tsunami) well ahead of the tuned non-learned baselines.\n");
  return 0;
}
