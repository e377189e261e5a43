// The common interface implemented by every clustered multi-dimensional
// index in this library (baselines, Flood, Tsunami, secondary indexes, the
// access-path router).
//
// Every index answers a query the same way: it plans the physical row
// ranges to scan (§5.3.1 charges w0 per range and w1 per scanned point),
// scans them, and runs whatever non-range work is left (FinishPlan). Two
// execution surfaces share that one plan shape:
//  * the per-query path — Execute(query) — one synchronous query;
//  * the batch path — Prepare(query) -> QueryPlan, then
//    ExecutePlan(plan, ctx) or ExecuteBatch(queries, ctx) — which amortizes
//    planning, runs scans on the task scheduler and forced SIMD tier
//    carried by the ExecContext, and computes every aggregate of a
//    multi-aggregate query in one pass.
// Both surfaces are bit-identical: ExecuteBatch over any permutation of a
// workload returns exactly what per-query Execute returns.
#ifndef TSUNAMI_COMMON_INDEX_H_
#define TSUNAMI_COMMON_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

class TaskScheduler;

/// A prepared query: the bound query plus the physical row ranges to scan.
/// Plans borrow nothing but are only executable by the index that produced
/// them (the tasks address that index's clustered store). A plan may carry
/// no tasks at all, when its whole answer is FinishPlan work (a secondary
/// index's key probes) or no row can match.
struct QueryPlan {
  Query query;
  /// Physical ranges to scan against PlanTarget(plan).store(), in
  /// submission order.
  std::vector<RangeTask> tasks;
  /// Plan-time counters: initialized accumulators plus the cell_ranges
  /// visited during planning. Execution merges scan counters into a copy.
  QueryResult counters;
  /// Position of the owning access path within a routing layer; set by
  /// AccessPathRouter::Prepare so replays skip re-routing. -1 = not routed.
  int routed_index = -1;
  /// Snapshot pin for versioned stores (src/ingest): an opaque owning
  /// reference that keeps the store version the tasks address alive for
  /// the plan's lifetime; PlanTarget resolves through it. Null for static
  /// indexes, which borrow nothing.
  std::shared_ptr<const void> pin;
  /// The producing index's StoreVersion() at Prepare time. The plan cache
  /// treats a mismatch with the current version as a miss, so cached plans
  /// never scan a superseded snapshot.
  uint64_t store_version = 0;
};

/// Aggregate counters for one ExecuteBatch call (accumulated across calls
/// when the same context is reused).
struct BatchStats {
  int64_t queries = 0;       // Queries actually executed (not skipped).
  int64_t scanned = 0;
  int64_t matched = 0;
  int64_t cell_ranges = 0;
  double seconds = 0.0;      // Wall time inside ExecuteBatch.

  /// Folds one executed query's counters in.
  void AddResult(const QueryResult& r) {
    scanned += r.scanned;
    matched += r.matched;
    cell_ranges += r.cell_ranges;
  }
};

/// Execution context for the batch path. Carries the resources a batch
/// shares — the task scheduler, scan options (forced SIMD tier) — plus
/// cooperative cancellation (an external flag and/or a deadline, both
/// checked between range tasks and between queries) and per-batch stats.
/// Copyable: forwarding layers fork a context per slice of work.
class ExecContext {
 public:
  ExecContext() = default;
  explicit ExecContext(TaskScheduler* scheduler, const ScanOptions& scan = {})
      : scheduler(scheduler), scan(scan) {}

  /// Borrowed work-stealing scheduler (src/exec/task_scheduler.h); null =
  /// run inline. ExecuteBatch spreads its queries over the workers (each
  /// query's scans inline on its worker), and a lone ExecutePlan spreads
  /// its row-balanced chunks, so chunks of concurrent callers interleave
  /// and idle workers steal. Only set this on contexts executed from
  /// OUTSIDE the scheduler's own workers: the executors block in
  /// TaskScheduler::Run without helping, so a worker submitting its own
  /// chunks would deadlock the deques. (This is why batch items and
  /// QueryService's chunk closures keep their contexts scheduler-free and
  /// the service decomposes plans itself.)
  TaskScheduler* scheduler = nullptr;
  ScanOptions scan;             // SIMD tier for every scan.
  /// External cancellation flag (borrowed, may be null). Once set, the
  /// remaining work is skipped and unexecuted queries return their
  /// initialized (identity) results.
  const std::atomic<bool>* cancel = nullptr;
  /// Soft deadline in seconds from the last StartBatch(); 0 disables.
  double deadline_seconds = 0.0;
  /// Priority (higher = sooner) of the scheduler jobs that run this
  /// context's work: a high-priority job's chunks queue ahead of backlog.
  int priority = 0;

  BatchStats stats;             // Filled by ExecuteBatch.

  /// Restarts the deadline clock; ExecuteBatch calls this on entry.
  void StartBatch() { timer_.Reset(); }

  /// True when the batch should stop issuing further work (flag set or
  /// deadline passed). Safe to call concurrently.
  bool ShouldStop() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    return deadline_seconds > 0.0 &&
           timer_.ElapsedSeconds() >= deadline_seconds;
  }

  /// True when this context can stop work early at all — i.e. whether scan
  /// paths must bother wiring the stop probe.
  bool Cancellable() const {
    return cancel != nullptr || deadline_seconds > 0.0;
  }

  /// This context's scan options with the cooperative stop probe bound to
  /// ShouldStop(), so ColumnStore::ScanRanges checks the deadline/flag
  /// between block-aligned slices and a single giant scan cancels
  /// mid-flight. The probe borrows `this`: the context must outlive the
  /// scan (every executor here owns its context for the call's duration).
  ScanOptions CancellableScan() const {
    ScanOptions options = scan;
    if (Cancellable()) {
      options.stop_probe = [](const void* self) {
        return static_cast<const ExecContext*>(self)->ShouldStop();
      };
      options.stop_arg = this;
    }
    return options;
  }

  /// A child context for running a slice of this batch elsewhere (one
  /// worker's query, one statement): same scheduler, scan options, and
  /// cancel flag; fresh stats; deadline clipped to this batch's *remaining*
  /// time, so the child's StartBatch cannot extend the parent's deadline.
  /// Forwarding layers must fork rather than copy.
  ExecContext Fork() const {
    ExecContext child(scheduler, scan);
    child.cancel = cancel;
    child.priority = priority;
    if (deadline_seconds > 0.0) {
      double remaining = deadline_seconds - timer_.ElapsedSeconds();
      // An expired parent leaves a child that stops immediately (0 would
      // mean "no deadline").
      child.deadline_seconds = remaining > 1e-9 ? remaining : 1e-9;
    }
    return child;
  }

 private:
  Timer timer_;
};

/// A clustered in-memory multi-dimensional index over a column store.
///
/// Indexes are built from a Dataset (choosing their own clustered row order)
/// and answer conjunctive range-filter aggregation queries.
class MultiDimIndex {
 public:
  virtual ~MultiDimIndex() = default;

  /// Human-readable index name for benchmark output.
  virtual std::string Name() const = 0;

  /// Executes one query and returns its aggregate(s) plus execution
  /// counters. Multi-aggregate queries get every aggregate in one pass.
  virtual QueryResult Execute(const Query& query) const = 0;

  /// Plans `query` without scanning row data: the range tasks Execute()
  /// would scan plus the plan-time counters, so batches and the service
  /// amortize planning and split the scans across workers.
  virtual QueryPlan Prepare(const Query& query) const = 0;

  /// Executes a prepared plan: scans its tasks through the context's
  /// scheduler and scan options (one job, row-balanced across workers) and
  /// then runs FinishPlan(). Bit-identical to Execute(plan.query) for any
  /// worker count and supported tier. Throws std::runtime_error when a
  /// scheduler chunk fails.
  virtual QueryResult ExecutePlan(const QueryPlan& plan,
                                  ExecContext& ctx) const;

  /// The non-range epilogue of a plan: whatever Execute() does besides
  /// scanning the planned ranges (an IngestStore snapshot's delta chunks,
  /// the secondary indexes' row-id probes). The decomposition contract
  /// every external executor (ExecutePlan here, QueryService's chunked
  /// scheduler jobs) relies on is:
  ///
  ///   Execute(plan.query) == plan.counters
  ///                          (+) scan of plan.tasks against PlanTarget's
  ///                              store, split anywhere on task/block
  ///                              boundaries, partials merged in any order
  ///                          (+) FinishPlan(plan, &result)
  ///
  /// Default: nothing to finish. Must be thread-safe and must not depend on
  /// how the task scans were chunked.
  virtual void FinishPlan(const QueryPlan& plan, QueryResult* result) const {
    (void)plan;
    (void)result;
  }

  /// The index whose clustered store a plan's tasks actually address: this
  /// index for everything except routing layers (AccessPathRouter returns
  /// the routed access path). External executors must scan
  /// PlanTarget(plan).store() and call PlanTarget(plan).FinishPlan().
  virtual const MultiDimIndex& PlanTarget(const QueryPlan& plan) const {
    (void)plan;
    return *this;
  }

  /// Executes a batch: each query is Prepare()d and run through
  /// ExecutePlan(). With a multi-worker scheduler the batch is one job of
  /// one chunk per query, spread across the workers (each query's scans run
  /// inline on its worker — batch items never submit nested jobs); results
  /// are positionally stable and bit-identical to per-query Execute() either
  /// way, and a failed job throws std::runtime_error. Cancellation is
  /// checked between queries; skipped queries — and the query in flight
  /// when cancellation fires, whose scans may have stopped early — return
  /// their initialized (identity) results, so a partial aggregate is never
  /// passed off as an answer. Fills ctx.stats (counting only fully
  /// executed queries).
  std::vector<QueryResult> ExecuteBatch(std::span<const Query> queries,
                                        ExecContext& ctx) const;

  /// Executes a batch of already-prepared plans: the amortization lever for
  /// served workloads — Prepare once, ExecutePlans every time the batch
  /// recurs, paying only the scans. Same scheduler/cancellation/stats
  /// semantics as ExecuteBatch, and the same results as executing each
  /// plan's query.
  std::vector<QueryResult> ExecutePlans(std::span<const QueryPlan> plans,
                                        ExecContext& ctx) const;

  /// Version of the clustered store plans bind to. Static indexes are
  /// always version 0; versioned stores (src/ingest) bump it on every
  /// published snapshot so plan caches can detect staleness. Must be safe
  /// to call concurrently with publishes.
  virtual uint64_t StoreVersion() const { return 0; }

  /// Index structure overhead in bytes (lookup tables, models, tree nodes,
  /// page metadata) — excludes the column data itself.
  virtual int64_t IndexSizeBytes() const = 0;

  /// The clustered column store this index scans.
  virtual const ColumnStore& store() const = 0;
};

/// An index whose every query is one batch of range tasks over its own
/// store(), planned in one pass, with no FinishPlan work (Tsunami, Flood,
/// the full scan and every tree, grid, sort and curve baseline). The
/// subclass supplies PlanTasks; Execute plans into a reused per-thread
/// buffer and scans it, and Prepare hands the same tasks to the batch
/// path.
class RangePlanIndex : public MultiDimIndex {
 public:
  QueryResult Execute(const Query& query) const override;
  QueryPlan Prepare(const Query& query) const override;

 protected:
  /// Appends the query's range tasks in scan order through AppendRangeTask
  /// and counts every cell range it visits into counters->cell_ranges.
  virtual void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                         QueryResult* counters) const = 0;
};

}  // namespace tsunami

#endif  // TSUNAMI_COMMON_INDEX_H_
