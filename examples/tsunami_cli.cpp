// tsunami_cli: a small command-line tool exercising the whole public API —
// dataset generation, index construction (optionally parallel), EXPLAIN
// output, SQL execution, and snapshot save/load.
//
//   $ tsunami_cli explain taxi
//   $ tsunami_cli sql stocks "SELECT COUNT(*) FROM stocks WHERE volume > 900"
//   $ tsunami_cli save tpch /tmp/tpch.snapshot
//   $ tsunami_cli load /tmp/tpch.snapshot "SELECT COUNT(*) FROM t"
//   $ tsunami_cli bench perfmon
//
// Row count defaults to 200000; override with TSUNAMI_SCALE_ROWS.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/common/stats.h"
#include "src/core/tsunami.h"
#include "src/datasets/datasets.h"
#include "src/exec/runner.h"
#include "src/exec/task_scheduler.h"
#include "src/query/engine.h"

using namespace tsunami;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tsunami_cli stats   <tpch|taxi|perfmon|stocks>\n"
      "  tsunami_cli explain <dataset>\n"
      "  tsunami_cli sql     <dataset> \"<statement>\"\n"
      "  tsunami_cli save    <dataset> <path>\n"
      "  tsunami_cli load    <path> [\"<statement>\"]\n"
      "  tsunami_cli bench   <dataset>\n");
  return 2;
}

bool MakeBenchmarkByName(const std::string& name, int64_t rows,
                         Benchmark* out) {
  if (name == "tpch") {
    *out = MakeTpchBenchmark(rows);
  } else if (name == "taxi") {
    *out = MakeTaxiBenchmark(rows);
  } else if (name == "perfmon") {
    *out = MakePerfmonBenchmark(rows);
  } else if (name == "stocks") {
    *out = MakeStocksBenchmark(rows);
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
    return false;
  }
  return true;
}

TsunamiIndex BuildIndex(const Benchmark& bench) {
  TsunamiOptions options;
  options.build_threads = TaskScheduler::DefaultThreads();
  return TsunamiIndex(bench.data, bench.workload, options);
}

int RunSql(const QueryEngine& engine, const std::string& sql) {
  SqlResult result = engine.Run(sql);
  if (!result.ok) {
    std::fprintf(stderr, "error: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("%.4f\n", result.value);
  std::printf("(matched %lld, scanned %lld, %lld ranges)\n",
              static_cast<long long>(result.stats.matched),
              static_cast<long long>(result.stats.scanned),
              static_cast<long long>(result.stats.cell_ranges));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const int64_t rows = RowsFromEnv(200000);

  if (command == "load") {
    std::string error;
    std::unique_ptr<TsunamiIndex> index =
        TsunamiIndex::LoadFromFile(argv[2], &error);
    if (index == nullptr) {
      std::fprintf(stderr, "load failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("loaded %s: %lld rows, %lld B index\n", argv[2],
                static_cast<long long>(index->store().size()),
                static_cast<long long>(index->IndexSizeBytes()));
    if (argc >= 4) {
      // Snapshots do not carry schemas; bind generic column names c0..cN
      // and table name "t".
      TableSchema schema;
      schema.table_name = "t";
      for (int d = 0; d < index->store().dims(); ++d) {
        schema.columns.push_back("c" + std::to_string(d));
      }
      return RunSql(QueryEngine(index.get(), schema), argv[3]);
    }
    return 0;
  }

  Benchmark bench;
  if (!MakeBenchmarkByName(argv[2], rows, &bench)) return Usage();

  if (command == "stats") {
    TsunamiIndex index = BuildIndex(bench);
    const TsunamiIndex::Stats& stats = index.stats();
    std::printf("dataset           %s\n", bench.name.c_str());
    std::printf("rows              %lld\n",
                static_cast<long long>(bench.data.size()));
    std::printf("dimensions        %d\n", bench.data.dims());
    std::printf("query types       %d\n", stats.num_query_types);
    std::printf("tree nodes        %d\n", stats.tree_nodes);
    std::printf("tree depth        %d\n", stats.tree_depth);
    std::printf("regions           %d (%d indexed)\n", stats.num_regions,
                stats.num_indexed_regions);
    std::printf("cells             %lld\n",
                static_cast<long long>(stats.total_cells));
    std::printf("avg FMs/region    %.2f\n", stats.avg_fms_per_region);
    std::printf("avg CCDFs/region  %.2f\n", stats.avg_ccdfs_per_region);
    std::printf("index size        %lld B\n",
                static_cast<long long>(index.IndexSizeBytes()));
    std::printf("build             %.2fs optimize + %.2fs sort\n",
                stats.optimize_seconds, stats.sort_seconds);
    return 0;
  }
  if (command == "explain") {
    TsunamiIndex index = BuildIndex(bench);
    std::fputs(index.Describe(bench.dim_names).c_str(), stdout);
    return 0;
  }
  if (command == "sql") {
    if (argc < 4) return Usage();
    TsunamiIndex index = BuildIndex(bench);
    TableSchema schema;
    schema.table_name = argv[2];
    schema.columns = bench.dim_names;
    return RunSql(QueryEngine(&index, schema), argv[3]);
  }
  if (command == "save") {
    if (argc < 4) return Usage();
    TsunamiIndex index = BuildIndex(bench);
    std::string error;
    if (!index.SaveToFile(argv[3], &error)) {
      std::fprintf(stderr, "save failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("saved %s snapshot to %s\n", bench.name.c_str(), argv[3]);
    return 0;
  }
  if (command == "bench") {
    Timer timer;
    TsunamiIndex index = BuildIndex(bench);
    double build = timer.ElapsedSeconds();
    WorkloadRunStats serial = MeasureWorkload(index, bench.workload);
    TaskScheduler scheduler(TaskScheduler::DefaultThreads());
    ExecContext ctx(&scheduler);
    WorkloadRunStats parallel = MeasureWorkload(index, bench.workload, ctx);
    std::printf("build: %.2fs (%d threads)\n", build,
                TaskScheduler::DefaultThreads());
    std::printf("serial:   %8.1f us/query  (%.0f q/s)\n",
                serial.avg_query_micros, 1e6 / serial.avg_query_micros);
    std::printf("parallel: %8.1f us/query  (%.0f q/s on %d threads)\n",
                parallel.avg_query_micros, 1e6 / parallel.avg_query_micros,
                scheduler.num_threads());
    return 0;
  }
  return Usage();
}
