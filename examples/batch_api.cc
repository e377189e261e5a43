// Demo of the batched, multi-aggregate query API:
//   1. build Tsunami over a synthetic workload;
//   2. ExecuteBatch the workload on a task scheduler (one chunk per query)
//      and check it against per-query Execute;
//   3. one multi-aggregate query (SUM+COUNT+MIN+MAX in a single pass);
//   4. the SQL front-end's Prepare / RunBatch with a multi-aggregate
//      SELECT list;
//   5. cooperative cancellation via the ExecContext flag.
#include <atomic>
#include <cstdio>

#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/exec/runner.h"
#include "src/exec/task_scheduler.h"
#include "src/query/engine.h"

using namespace tsunami;

int main() {
  // A small correlated 3-column table and a mixed range workload.
  Rng rng(7);
  const int64_t n = 200000;
  Dataset data(3, {});
  data.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    Value x = rng.UniformValue(0, 1000000);
    data.AppendRow(
        {x, x + rng.UniformValue(-5000, 5000), rng.UniformValue(0, 10000)});
  }
  Workload workload;
  for (int i = 0; i < 256; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 900000);
    q.filters.push_back(Predicate{0, lo, lo + 50000});
    q.type = i % 2;
    workload.push_back(q);
  }

  TsunamiOptions options;
  options.cluster_queries = false;
  TsunamiIndex index(data, workload, options);
  std::printf("built %s over %lld rows\n", index.Name().c_str(),
              static_cast<long long>(data.size()));

  // --- Batched execution on a shared task scheduler ------------------------
  TaskScheduler scheduler(TaskScheduler::DefaultThreads());
  ExecContext ctx(&scheduler);
  Timer timer;
  std::vector<QueryResult> batch = RunWorkload(index, workload, ctx);
  double batch_seconds = timer.ElapsedSeconds();
  timer.Reset();
  int64_t mismatches = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    QueryResult serial = index.Execute(workload[i]);
    mismatches += serial.agg != batch[i].agg ||
                  serial.matched != batch[i].matched;
  }
  double serial_seconds = timer.ElapsedSeconds();
  std::printf(
      "batch of %zu queries: %.2f ms on %d threads vs %.2f ms per-query "
      "(%.2fx), %lld mismatches\n",
      workload.size(), batch_seconds * 1e3, scheduler.num_threads(),
      serial_seconds * 1e3,
      batch_seconds > 0 ? serial_seconds / batch_seconds : 0.0,
      static_cast<long long>(mismatches));
  std::printf("batch stats: %lld queries, %lld scanned, %lld matched, "
              "%lld ranges\n",
              static_cast<long long>(ctx.stats.queries),
              static_cast<long long>(ctx.stats.scanned),
              static_cast<long long>(ctx.stats.matched),
              static_cast<long long>(ctx.stats.cell_ranges));

  // --- One pass, four aggregates --------------------------------------------
  Query multi;
  multi.filters.push_back(Predicate{0, 100000, 600000});
  multi.SetAggregates({{AggKind::kSum, 2},
                       {AggKind::kCount, 0},
                       {AggKind::kMin, 1},
                       {AggKind::kMax, 1}});
  QueryResult r = index.Execute(multi);
  std::printf(
      "single pass: SUM(c)=%lld COUNT(*)=%lld MIN(b)=%lld MAX(b)=%lld "
      "(%lld rows matched)\n",
      static_cast<long long>(r.agg_value(0)),
      static_cast<long long>(r.agg_value(1)),
      static_cast<long long>(r.agg_value(2)),
      static_cast<long long>(r.agg_value(3)),
      static_cast<long long>(r.matched));

  // --- SQL front-end: Prepare once, run as a batch --------------------------
  TableSchema schema;
  schema.table_name = "t";
  schema.columns = {"a", "b", "c"};
  QueryEngine engine(&index, schema);
  std::vector<PreparedStatement> stmts = {
      engine.Prepare("SELECT SUM(c), COUNT(*), AVG(c) FROM t "
                     "WHERE a BETWEEN 100000 AND 600000"),
      engine.Prepare("SELECT COUNT(*) FROM t WHERE b < 0 OR b > 990000"),
  };
  ExecContext sql_ctx(&scheduler);
  std::vector<SqlResult> sql_results = engine.RunBatch(stmts, sql_ctx);
  for (const SqlResult& result : sql_results) {
    if (!result.ok) {
      std::printf("sql error: %s\n", result.error.c_str());
      continue;
    }
    std::printf("sql:");
    for (double v : result.values) std::printf(" %.2f", v);
    std::printf("\n");
  }

  // --- Cooperative cancellation ---------------------------------------------
  std::atomic<bool> cancel{true};
  ExecContext cancelled(&scheduler);
  cancelled.cancel = &cancel;
  std::vector<QueryResult> skipped = RunWorkload(index, workload, cancelled);
  std::printf("cancelled batch executed %lld of %zu queries\n",
              static_cast<long long>(cancelled.stats.queries),
              skipped.size());
  return mismatches == 0 ? 0 : 1;
}
