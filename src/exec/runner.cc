#include "src/exec/runner.h"

#include <algorithm>

#include "src/common/stats.h"
#include "src/exec/task_scheduler.h"

namespace tsunami {

namespace {

/// Times `run()` and sums the counters of the results it returns.
template <typename RunFn>
WorkloadRunStats Measure(size_t num_queries, const RunFn& run) {
  WorkloadRunStats stats;
  Timer timer;
  std::vector<QueryResult> results = run();
  stats.total_seconds = timer.ElapsedSeconds();
  if (num_queries > 0) {
    stats.avg_query_micros = stats.total_seconds * 1e6 / num_queries;
  }
  for (const QueryResult& r : results) {
    stats.total_scanned += r.scanned;
    stats.total_matched += r.matched;
    stats.total_cell_ranges += r.cell_ranges;
  }
  return stats;
}

}  // namespace

std::vector<QueryResult> RunWorkload(const MultiDimIndex& index,
                                     const Workload& workload) {
  std::vector<QueryResult> results(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    results[i] = index.Execute(workload[i]);
  }
  return results;
}

std::vector<std::vector<RangeTask>> ChunkRangeTasks(
    std::span<const RangeTask> tasks, int64_t target_rows) {
  const int64_t target = std::max<int64_t>(target_rows, kScanBlockRows);
  std::vector<std::vector<RangeTask>> chunks;
  chunks.emplace_back();
  int64_t chunk_rows = 0;
  auto emit = [&](RangeTask task) {
    while (task.end - task.begin + chunk_rows > target) {
      int64_t take = target - chunk_rows;
      // Round the split point down to a block boundary (but always make
      // progress) so neither side scans a partial block unnecessarily.
      int64_t split = task.begin + take;
      split -= split % kScanBlockRows;
      if (split <= task.begin) split = task.begin + take;
      chunks.back().push_back(RangeTask{task.begin, split, task.exact});
      chunks.emplace_back();
      chunk_rows = 0;
      task.begin = split;
    }
    chunks.back().push_back(task);
    chunk_rows += task.end - task.begin;
    if (chunk_rows >= target) {
      chunks.emplace_back();
      chunk_rows = 0;
    }
  };
  for (const RangeTask& task : tasks) {
    if (task.begin < task.end) emit(task);
  }
  if (chunks.back().empty()) chunks.pop_back();
  return chunks;
}

QueryResult ExecuteRangeTasks(const ColumnStore& store,
                              std::span<const RangeTask> tasks,
                              const Query& query, ExecContext& ctx) {
  QueryResult total = InitResult(query);
  int64_t total_rows = 0;
  for (const RangeTask& task : tasks) total_rows += task.end - task.begin;
  const int threads =
      ctx.scheduler != nullptr ? ctx.scheduler->num_threads() : 0;
  // Below ~4 blocks per thread the merge and dispatch overhead exceeds the
  // scan itself; run the batch inline. The stop probe rides in the scan
  // options, so cancellation lands between tasks and mid-task.
  if (threads <= 1 || total_rows < threads * 4 * kScanBlockRows) {
    store.ScanRanges(tasks, query, &total, ctx.CancellableScan());
    return total;
  }
  // Row-balanced chunks, ~4 per thread. Chunks cover disjoint rows, so
  // partials merge exactly.
  const int64_t target = (total_rows + threads * 4 - 1) / (threads * 4);
  std::vector<std::vector<RangeTask>> chunks = ChunkRangeTasks(tasks, target);
  std::vector<QueryResult> partials(chunks.size());
  // The chunks join the shared work-stealing deques, so a concurrent
  // caller's idle workers pick them up too. Run throws when a chunk failed:
  // its partial is missing, so none of them may be merged.
  ctx.scheduler->Run(
      static_cast<int64_t>(chunks.size()),
      [&](int64_t i, int) {
        partials[i] = InitResult(query);
        // Cancellation boundary: whole chunks are skipped once the flag is
        // seen (partials stay exact for the chunks that did run); inside a
        // chunk the probe stops at the next block-aligned slice.
        if (ctx.ShouldStop()) return;
        store.ScanRanges(chunks[i], query, &partials[i],
                         ctx.CancellableScan());
      },
      ctx.priority);
  for (const QueryResult& partial : partials) {
    MergeQueryResults(query, partial, &total);
  }
  return total;
}

std::vector<QueryResult> RunWorkload(const MultiDimIndex& index,
                                     const Workload& workload,
                                     ExecContext& ctx) {
  return index.ExecuteBatch(
      std::span<const Query>(workload.data(), workload.size()), ctx);
}

WorkloadRunStats MeasureWorkload(const MultiDimIndex& index,
                                 const Workload& workload, ExecContext& ctx) {
  return Measure(workload.size(),
                 [&] { return RunWorkload(index, workload, ctx); });
}

WorkloadRunStats MeasureWorkload(const MultiDimIndex& index,
                                 const Workload& workload) {
  return Measure(workload.size(), [&] { return RunWorkload(index, workload); });
}

}  // namespace tsunami
