// Batch workload execution over any index, optionally in parallel on the
// task scheduler. Built indexes are immutable and their Execute() paths are
// thread-safe, so queries parallelize without coordination.
#ifndef TSUNAMI_EXEC_RUNNER_H_
#define TSUNAMI_EXEC_RUNNER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

/// Per-run aggregate counters.
struct WorkloadRunStats {
  double total_seconds = 0.0;
  double avg_query_micros = 0.0;
  int64_t total_scanned = 0;
  int64_t total_matched = 0;
  int64_t total_cell_ranges = 0;
};

/// Executes every query with per-query Execute(), serially and in workload
/// order: the reference the batch paths are checked against.
std::vector<QueryResult> RunWorkload(const MultiDimIndex& index,
                                     const Workload& workload);

/// Batch-API variant: executes the workload through the index's
/// ExecuteBatch with `ctx` (scheduler, scan options, cancellation, stats).
std::vector<QueryResult> RunWorkload(const MultiDimIndex& index,
                                     const Workload& workload,
                                     ExecContext& ctx);

/// Executes (serially, per query) and times the workload, returning
/// aggregate counters.
WorkloadRunStats MeasureWorkload(const MultiDimIndex& index,
                                 const Workload& workload);

/// Batch-API variant of MeasureWorkload: times one ExecuteBatch call.
WorkloadRunStats MeasureWorkload(const MultiDimIndex& index,
                                 const Workload& workload, ExecContext& ctx);

/// Splits a RangeTask batch into row-balanced chunks of roughly
/// `target_rows` rows each, cutting oversized tasks at zone-map block
/// boundaries (so full-block fast paths stay aligned and any re-split is
/// bit-identical). Chunks cover disjoint rows in submission order — the
/// shared decomposition for ExecuteRangeTasks below and for QueryService's
/// per-query scheduler jobs.
std::vector<std::vector<RangeTask>> ChunkRangeTasks(
    std::span<const RangeTask> tasks, int64_t target_rows);

/// Batched multi-range executor: scans every planned RangeTask against the
/// store with ctx's scan options. With a multi-worker ctx.scheduler the
/// batch is split into row-balanced chunks (large tasks cut at zone-map
/// block boundaries) and run as one job on the shared work-stealing deques
/// — chunks of concurrent callers interleave and idle workers steal. Each
/// chunk accumulates a private partial QueryResult; partials are merged
/// exactly once, so the result is bit-identical to a serial ScanRanges for
/// any worker count, and a failed job throws std::runtime_error instead of
/// merging. Honors cooperative cancellation: the deadline/flag is probed
/// between chunks *and* mid-chunk at block-aligned slices
/// (ScanOptions::stop_probe), so even one giant scan stops promptly — a
/// cancelled call returns the partial accumulated so far. Does not touch
/// cell_ranges (the planner counts runs).
QueryResult ExecuteRangeTasks(const ColumnStore& store,
                              std::span<const RangeTask> tasks,
                              const Query& query, ExecContext& ctx);

}  // namespace tsunami

#endif  // TSUNAMI_EXEC_RUNNER_H_
