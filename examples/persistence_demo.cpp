// Persistence demo (§8 "Persistence"): build a Tsunami index, snapshot it
// to disk, reopen it, and show that (a) reopening skips optimization and
// data sorting entirely, and (b) the reopened index answers queries
// identically while touching identical physical ranges.
//
//   $ ./build/examples/persistence_demo
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "src/common/stats.h"
#include "src/core/tsunami.h"
#include "src/datasets/tpch.h"
#include "src/datasets/workload_builder.h"
#include "src/exec/runner.h"
#include "src/exec/task_scheduler.h"

using namespace tsunami;

int main() {
  Benchmark bench = MakeTpchBenchmark(RowsFromEnv(200000));
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsunami_demo.snapshot")
          .string();

  // 1. Cold build: optimize + sort (regions in parallel, §6.1).
  TsunamiOptions options;
  options.build_threads = TaskScheduler::DefaultThreads();
  Timer timer;
  TsunamiIndex index(bench.data, bench.workload, options);
  double build_seconds = timer.ElapsedSeconds();
  std::printf("cold build over %lld rows: %.2fs (%.2fs optimize, %.2fs sort)\n",
              static_cast<long long>(bench.data.size()), build_seconds,
              index.stats().optimize_seconds, index.stats().sort_seconds);

  // 2. Snapshot.
  timer.Reset();
  std::string error;
  if (!index.SaveToFile(path, &error)) {
    std::fprintf(stderr, "save failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("snapshot written in %.2fs: %s (%lld bytes; raw data is %lld)\n",
              timer.ElapsedSeconds(), path.c_str(),
              static_cast<long long>(std::filesystem::file_size(path)),
              static_cast<long long>(index.store().DataSizeBytes()));

  // 3. Reopen: no optimizer, no sort — just decode and attach.
  timer.Reset();
  std::unique_ptr<TsunamiIndex> reopened =
      TsunamiIndex::LoadFromFile(path, &error);
  double load_seconds = timer.ElapsedSeconds();
  if (reopened == nullptr) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("reopened in %.2fs (%.1fx faster than the cold build)\n",
              load_seconds, build_seconds / load_seconds);

  // 4. Equivalence + performance of the reopened index.
  WorkloadRunStats original = MeasureWorkload(index, bench.workload);
  WorkloadRunStats restored = MeasureWorkload(*reopened, bench.workload);
  std::printf("original: %.1f us/query, scanned %lld rows total\n",
              original.avg_query_micros,
              static_cast<long long>(original.total_scanned));
  std::printf("reopened: %.1f us/query, scanned %lld rows total\n",
              restored.avg_query_micros,
              static_cast<long long>(restored.total_scanned));
  bool identical = restored.total_scanned == original.total_scanned &&
                   restored.total_matched == original.total_matched &&
                   restored.total_cell_ranges == original.total_cell_ranges;
  std::printf("identical execution profile: %s\n", identical ? "yes" : "NO");

  std::remove(path.c_str());
  return identical ? 0 : 1;
}
