// Executes SQL-subset statements against any MultiDimIndex. This is the
// thin "analytics accelerator" veneer the paper envisions (§1: Tsunami as a
// building block for in-memory analytics): parse, bind against the table
// schema, plan against the index, execute, finalize the aggregates.
//
// Two surfaces:
//  * Run(sql) — parse + plan + execute one statement, inline.
//  * Prepare(sql) -> PreparedStatement, then RunPrepared / RunBatch with an
//    ExecContext — planning (parse, bind, disjunctive normalization, index
//    range planning) happens once at Prepare time; execution reuses the
//    plan, shares the context's task scheduler and scan options, and
//    honors its cancellation/deadline.
// Statements may compute several aggregates in one pass:
// `SELECT SUM(x), COUNT(*), MIN(y) FROM t WHERE ...`.
#ifndef TSUNAMI_QUERY_ENGINE_H_
#define TSUNAMI_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/query/bool_expr.h"
#include "src/query/sql_parser.h"

namespace tsunami {

/// Outcome of running one statement.
struct SqlResult {
  bool ok = false;
  std::string error;
  Query query;         // The bound query (for inspection / EXPLAIN-style use).
  QueryResult stats;   // Raw counters from the index.
  double value = 0.0;  // Finalized first aggregate (mean for AVG).
  /// Finalized value per SELECT-list aggregate; values[0] == value.
  std::vector<double> values;
};

class QueryService;

/// A parsed, bound, and planned statement, ready for (repeated) execution.
/// Holds the index's QueryPlan for conjunctive statements and the
/// pre-normalized disjoint boxes for disjunctive ones, so per-execution
/// work is the scans alone. Produced by QueryEngine::Prepare; only
/// executable by the engine (and index) that prepared it. Plans are
/// shared_ptr so a statement bound through an attached QueryService aliases
/// the service's plan cache instead of copying task lists.
struct PreparedStatement {
  bool ok = false;
  std::string error;
  Query query;              // Bound aggregates (+ filters when conjunctive).
  bool empty_result = false;  // Unsatisfiable predicate: answer without I/O.
  bool disjunctive = false;   // Executes as a union of disjoint boxes.
  /// Conjunctive case: the index's range plan (null when empty_result).
  std::shared_ptr<const QueryPlan> plan;
  /// Disjunctive case: one index plan per non-empty disjoint box, built at
  /// Prepare time so repeated executions replay instead of re-planning.
  std::vector<std::shared_ptr<const QueryPlan>> box_plans;
};

/// Binds a table schema to an index and runs SQL statements against it.
/// The engine borrows the index and the schema's dictionaries; both must
/// outlive it (and any PreparedStatement it hands out).
class QueryEngine {
 public:
  QueryEngine(const MultiDimIndex* index, TableSchema schema)
      : index_(index), schema_(std::move(schema)) {}

  /// Routes this engine through a serving layer (borrowed; must outlive
  /// the engine and wrap the same index): Prepare binds statements to the
  /// service's plan cache — repeated ad-hoc SQL over the same rectangle
  /// stops re-planning — and RunPrepared / RunBatch submit plans to the
  /// service's work-stealing scheduler instead of executing on the calling
  /// thread (RunBatch's statements run concurrently, box unions of one
  /// disjunctive statement too). Results stay bit-identical to the
  /// unattached engine. Pass nullptr to detach.
  void AttachService(QueryService* service) { service_ = service; }
  QueryService* service() const { return service_; }

  /// Parses, binds, plans, and executes one statement inline.
  SqlResult Run(std::string_view sql) const;

  /// Parses, binds, and plans one statement without executing it.
  PreparedStatement Prepare(std::string_view sql) const;

  /// Executes a prepared statement with the context's pool, scan options,
  /// and cancellation. A statement whose execution was cut short by the
  /// context's cancel flag or deadline comes back ok = false with
  /// error = "cancelled" — partial aggregates are never passed off as
  /// answers. (Conservative: a statement finishing exactly as the deadline
  /// expires may also be flagged.)
  SqlResult RunPrepared(const PreparedStatement& stmt, ExecContext& ctx) const;

  /// Executes a batch of prepared statements. Cancellation/deadline is
  /// checked between statements; skipped statements come back with
  /// ok = false and error = "cancelled" (unlike the index-level
  /// ExecuteBatch, which returns identity results — SQL callers need to
  /// tell an aborted statement from a zero-row answer). Fills ctx.stats
  /// across the batch.
  std::vector<SqlResult> RunBatch(std::span<const PreparedStatement> stmts,
                                  ExecContext& ctx) const;

  const TableSchema& schema() const { return schema_; }
  const MultiDimIndex& index() const { return *index_; }

 private:
  SqlResult Finalize(const PreparedStatement& stmt, QueryResult stats) const;
  /// Admits the statement's plan(s) to the attached service (deadline /
  /// cancel / priority carried over from `ctx`) and returns the tickets
  /// (QueryService::Ticket, i.e. uint64_t — kept untyped here so the
  /// header need not pull in the serve layer).
  std::vector<uint64_t> SubmitToService(const PreparedStatement& stmt,
                                        ExecContext& ctx) const;
  /// Awaits previously submitted tickets and finalizes the statement
  /// (identity + "cancelled" if any ticket was cut short).
  SqlResult AwaitService(const PreparedStatement& stmt,
                         std::span<const uint64_t> tickets) const;
  /// Service path for RunPrepared: SubmitToService + AwaitService.
  SqlResult RunViaService(const PreparedStatement& stmt,
                          ExecContext& ctx) const;
  /// Plans one bound conjunctive query: through the service's plan cache
  /// when attached, directly against the index otherwise.
  std::shared_ptr<const QueryPlan> PlanQuery(const Query& query) const;

  const MultiDimIndex* index_;
  TableSchema schema_;
  QueryService* service_ = nullptr;  // Borrowed; null = execute inline.
};

}  // namespace tsunami

#endif  // TSUNAMI_QUERY_ENGINE_H_
