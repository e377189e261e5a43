#include "src/common/index.h"

#include "src/exec/runner.h"
#include "src/exec/task_scheduler.h"

namespace tsunami {

QueryResult RangePlanIndex::Execute(const Query& query) const {
  QueryResult result = InitResult(query);
  static thread_local std::vector<RangeTask> tasks;
  tasks.clear();
  PlanTasks(query, &tasks, &result);
  store().ScanRanges(tasks, query, &result);
  return result;
}

QueryPlan RangePlanIndex::Prepare(const Query& query) const {
  QueryPlan plan;
  plan.query = query;
  plan.counters = InitResult(query);
  PlanTasks(query, &plan.tasks, &plan.counters);
  return plan;
}

QueryResult MultiDimIndex::ExecutePlan(const QueryPlan& plan,
                                       ExecContext& ctx) const {
  QueryResult result = plan.counters;
  QueryResult scans =
      ExecuteRangeTasks(store(), plan.tasks, plan.query, ctx);
  MergeQueryResults(plan.query, scans, &result);
  FinishPlan(plan, &result);
  return result;
}

namespace {

/// Shared batch loop: runs `one(i)` for every position, as one scheduler
/// job of one chunk per item when the context's scheduler has several
/// workers (each item's scans inline on its worker — a per-item context
/// without the scheduler never submits a nested job, which would deadlock
/// the workers blocked in Run, and avoids oversubscription), serially
/// otherwise. Cancellation is checked before each item; skipped items get
/// their identity result. Fills ctx.stats from the results.
template <typename ExecuteOne, typename IdentityOf>
std::vector<QueryResult> BatchLoop(int64_t count, ExecContext& ctx,
                                   const ExecuteOne& one,
                                   const IdentityOf& identity) {
  ctx.StartBatch();
  Timer timer;
  std::vector<QueryResult> results(count);
  std::atomic<int64_t> executed{0};
  auto run = [&](int64_t i, ExecContext& item_ctx) {
    if (ctx.ShouldStop()) {
      results[i] = identity(i);
      return;
    }
    QueryResult result = one(i, item_ctx);
    if (ctx.ShouldStop()) {
      // Cancellation fired while this item ran: its scans may have stopped
      // between range tasks, leaving a partial accumulation. Never pass a
      // partial off as an answer — the item reverts to its identity result
      // and is not counted as executed. (Conservative: an item finishing
      // exactly as the flag/deadline fires is discarded too.)
      results[i] = identity(i);
      return;
    }
    results[i] = std::move(result);
    executed.fetch_add(1, std::memory_order_relaxed);
  };
  if (ctx.scheduler != nullptr && ctx.scheduler->num_threads() > 1 &&
      count > 1) {
    ctx.scheduler->Run(
        count,
        [&](int64_t i, int) {
          // Fork per item so the batch deadline keeps applying between
          // range tasks inside the item's scans; drop the scheduler (no
          // nested job).
          ExecContext inline_ctx = ctx.Fork();
          inline_ctx.scheduler = nullptr;
          run(i, inline_ctx);
        },
        ctx.priority);
  } else {
    for (int64_t i = 0; i < count; ++i) run(i, ctx);
  }
  ctx.stats.queries += executed.load(std::memory_order_relaxed);
  for (const QueryResult& r : results) ctx.stats.AddResult(r);
  ctx.stats.seconds += timer.ElapsedSeconds();
  return results;
}

}  // namespace

std::vector<QueryResult> MultiDimIndex::ExecuteBatch(
    std::span<const Query> queries, ExecContext& ctx) const {
  return BatchLoop(
      static_cast<int64_t>(queries.size()), ctx,
      [&](int64_t i, ExecContext& item_ctx) {
        return ExecutePlan(Prepare(queries[i]), item_ctx);
      },
      [&](int64_t i) { return InitResult(queries[i]); });
}

std::vector<QueryResult> MultiDimIndex::ExecutePlans(
    std::span<const QueryPlan> plans, ExecContext& ctx) const {
  return BatchLoop(
      static_cast<int64_t>(plans.size()), ctx,
      [&](int64_t i, ExecContext& item_ctx) {
        return ExecutePlan(plans[i], item_ctx);
      },
      [&](int64_t i) { return InitResult(plans[i].query); });
}

}  // namespace tsunami
