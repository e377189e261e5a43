// QueryService: the asynchronous, plan-cached, work-stealing serving API
// over any MultiDimIndex.
//
// The batch API (src/common/index.h) executes a batch well when the caller
// *has* a batch; a serving front-end has a stream of concurrent clients.
// The service turns that stream into scheduler work:
//
//   QueryService service(&index, options);
//   auto a = service.Submit(query);           // admit: cache-probe + plan +
//                                             // decompose, returns at once
//   ... submit more, from any thread ...
//   QueryResult r = service.Await(a);         // block for this answer only
//   QueryResult r = service.Run(query);       // Submit + Await convenience
//
// Admission looks the query up in a bounded-LRU plan cache (plan_cache.h)
// keyed on the normalized filter rectangle + aggregate list, so repeated
// ad-hoc traffic replays prepared plans instead of re-routing and
// re-planning. The admitted plan's RangeTasks are decomposed into
// block-aligned chunks (the same ChunkRangeTasks decomposition
// ExecuteRangeTasks uses) and submitted as one job to the shared
// work-stealing TaskScheduler: chunks of *all* in-flight queries interleave
// in the per-worker deques and idle workers steal, so a skewed batch — one
// giant region query among needles — keeps every core busy instead of
// serializing behind its largest member. Per-query deadline / cancel flag /
// priority ride in SubmitOptions; the deadline clock starts at admission
// (queue wait counts) and is probed mid-scan at block-aligned slices.
//
// Overload robustness. By default admission is unbounded (every Submit is
// admitted), which is right for embedded use but wrong for a service: an
// offered load above capacity grows the queue without bound and every
// query's latency with it. Setting `max_queued_queries` and/or
// `max_queued_chunks` turns on *bounded admission*: Submit returns an
// Admission whose outcome says whether the query was admitted, rejected
// because the queue is full (kQueueFull), or rejected because the §5.3.1
// cost model predicts it cannot finish inside its deadline even on an
// idle machine (kDeadlineInfeasible, opt-in via
// `reject_infeasible_deadlines`). Low-priority queries (priority <= 0)
// may only fill the queue up to `low_priority_watermark`, reserving
// headroom for latency-sensitive traffic; when a high-priority query
// arrives at a full queue, strictly-lower-priority in-flight queries are
// *shed* (lowest priority first) to make room — a shed query's remaining
// chunks early-exit and its Await reports QueryOutcome::kShed with the
// identity result, never partial aggregates. A query drifting past half
// its deadline budget is boosted to the front of the scheduler deques
// (TaskScheduler::Boost). Await distinguishes every terminal state via
// AwaitInfo::outcome: completed, cancelled, timed out, shed, failed (a
// chunk threw — partials are discarded), rejected, already-consumed.
//
// Results are bit-identical to per-query Execute() for every index, thread
// count, and SIMD tier. The decomposition leans on the MultiDimIndex plan
// contract (FinishPlan / PlanTarget): a query's answer is the plan's
// counters, plus the planned range scans (split anywhere on block
// boundaries, partials merged in any order — integer aggregation is
// associative and chunks cover disjoint rows), plus the target index's
// FinishPlan epilogue. A query whose execution was actually cut short
// (a worker skipped or abandoned a chunk — recorded at the moment it
// happens, not re-derived at Await time) returns its identity result with
// the `cancelled` flag set: partial aggregates are never passed off as
// answers, and a query that completed before its deadline expired is
// returned intact no matter how late it is awaited. A scan that skipped
// quarantined blocks (see storage/encoded_column.h) completes with
// `QueryResult::degraded` set — degradation propagates through the merge,
// it does not cancel the query.
#ifndef TSUNAMI_SERVE_QUERY_SERVICE_H_
#define TSUNAMI_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/index.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/core/cost_model.h"
#include "src/exec/task_scheduler.h"
#include "src/serve/plan_cache.h"

namespace tsunami {

/// Why Submit did (or did not) admit a query.
enum class AdmissionOutcome : uint8_t {
  kAdmitted = 0,
  /// Bounded admission: the queue (queries or chunks) is at capacity for
  /// this priority class, and shedding lower-priority work (only attempted
  /// for priority > 0) could not make room.
  kQueueFull,
  /// The cost model predicts the plan cannot finish inside its deadline
  /// budget even on an idle machine (reject_infeasible_deadlines only).
  kDeadlineInfeasible,
  /// This client already holds `max_inflight_per_client` admitted queries —
  /// the per-client fairness cap layered under the global bounds. Retryable:
  /// room opens as the client's own queries finish.
  kClientBusy,
  /// The service is draining (Drain()/BeginDrain() was called): it finishes
  /// in-flight work but admits nothing new.
  kDraining,
};

/// Stable names for logs, test failure messages, and wire errors (the enums
/// otherwise print as opaque ints).
const char* ToString(AdmissionOutcome outcome);
std::ostream& operator<<(std::ostream& os, AdmissionOutcome outcome);

/// How an admitted query's life ended, reported by Await. Everything but
/// kCompleted also sets AwaitInfo::cancelled and returns the identity
/// result: partial aggregates are never passed off as answers.
enum class QueryOutcome : uint8_t {
  kCompleted = 0,
  kCancelled,        // The borrowed cancel flag cut execution short.
  kTimedOut,         // The deadline expired mid-flight.
  kShed,             // Evicted by admission control for higher priority.
  kFailed,           // A chunk threw; its partials are untrustworthy.
  kRejected,         // Awaited a never-admitted ticket (Admission.ticket 0).
  kAlreadyConsumed,  // Ticket already awaited (or never issued).
};

const char* ToString(QueryOutcome outcome);
std::ostream& operator<<(std::ostream& os, QueryOutcome outcome);

struct ServiceOptions {
  /// Scheduler workers. -1 = hardware concurrency; 0 = inline execution on
  /// the submitting thread (deterministic; useful for tests).
  int threads = -1;
  /// Plan-cache entries; 0 disables caching (every Submit re-plans).
  int64_t plan_cache_capacity = 1024;
  /// Plan-cache byte budget (estimated footprint); 0 = entries-only. See
  /// PlanCache: plans vary enormously in size, so a serving process that
  /// must bound memory sets this rather than guessing an entry count.
  int64_t plan_cache_max_bytes = 0;
  /// Borrowed resource governor (must outlive the service; null =
  /// ungoverned). The plan cache mirrors its footprint into
  /// ResourcePool::kPlanCache.
  ResourceGovernor* governor = nullptr;
  /// Decomposition grain: target rows per scheduler chunk. Smaller chunks
  /// steal and cancel at finer granularity but pay more per-chunk
  /// bookkeeping.
  int64_t chunk_rows = 16 * kScanBlockRows;

  // --- Bounded admission (0 = unbounded, the embedded default). ---

  /// Cap on queries admitted and not yet finished. Beyond it, Submit
  /// rejects with kQueueFull instead of queueing without bound.
  int64_t max_queued_queries = 0;
  /// Cap on chunks admitted and not yet finished — the finer-grained bound
  /// (one giant query is many chunks). A single query whose decomposition
  /// alone exceeds its cap is always rejected, even on an idle service —
  /// and for priority <= 0 queries the cap is the watermark-scaled one, so
  /// the largest admissible low-priority query is
  /// `low_priority_watermark * max_queued_chunks` chunks. Size the cap (or
  /// chunk_rows) above the largest plan you intend to serve.
  int64_t max_queued_chunks = 0;
  /// Fraction of the caps available to priority <= 0 queries; the rest is
  /// headroom reserved for higher-priority traffic (which can also shed
  /// lower-priority work when even the full cap is exhausted). Clamped to
  /// [0, 1] at construction.
  double low_priority_watermark = 0.5;
  /// When set, Submit rejects (kDeadlineInfeasible) a query whose
  /// cost-model-predicted execution time (PredictPlanNanos under
  /// `cost_weights`) already exceeds its deadline budget — failing fast
  /// instead of burning workers on a query that must time out.
  bool reject_infeasible_deadlines = false;
  /// Weights for the feasibility prediction (calibrate with
  /// CalibrateCostWeights for real nanoseconds; the defaults are sane
  /// relative costs).
  CostWeights cost_weights;
  /// Per-client fairness cap: a client (SubmitOptions::client_id >= 0) may
  /// hold at most this many admitted-and-unfinished queries; beyond it,
  /// Submit rejects with kClientBusy so one greedy client cannot consume
  /// the whole global admission budget and starve the rest. 0 = no
  /// per-client cap; anonymous submissions (client_id < 0) are never
  /// capped per-client.
  int64_t max_inflight_per_client = 0;
};

/// Per-query admission options.
struct SubmitOptions {
  /// Soft deadline in seconds from Submit (0 = none). Queue wait counts;
  /// expiry is probed between and inside chunk scans.
  double deadline_seconds = 0.0;
  /// Higher runs sooner: the query's chunks are queued ahead of backlog.
  int priority = 0;
  /// External cancel flag (borrowed; may be null).
  const std::atomic<bool>* cancel = nullptr;
  /// Forced SIMD tier for this query's scans.
  ScanOptions scan;
  /// Stable client identity for the per-client fairness cap (the network
  /// front end stamps one per connection). -1 = anonymous, never capped.
  int64_t client_id = -1;
  /// Completion push, for callers that must not block in Await (the
  /// network front end's event loop). Called exactly once per *admitted*
  /// query with its ticket, once the query has stopped executing — by
  /// completion, stop, or failure — so Await(ticket) will not block. It
  /// runs on the worker that finished the query, or on the submitting
  /// thread, possibly before Submit has returned the ticket; and it may
  /// still be running after Await(ticket) has returned, so it must only
  /// touch state it jointly owns. Must be cheap and must not throw.
  std::function<void(uint64_t ticket)> on_complete;
};

/// Per-query completion report, filled by Await. `latency_seconds` is
/// stamped on the worker that finishes the query's last chunk (admission →
/// completion, queue wait included), so it stays truthful even when the
/// awaiting thread is descheduled behind busy workers — on a saturated
/// host, Await's *return* time can be far later than the query's actual
/// completion. `cancelled` is true for every outcome but kCompleted (the
/// pre-outcome API; outcome says why).
struct AwaitInfo {
  bool cancelled = false;
  QueryOutcome outcome = QueryOutcome::kCompleted;
  double latency_seconds = 0.0;
};

/// Service-level counters: admission, terminal outcomes, the cache, and
/// the scheduler. `submitted` counts admission *attempts* (rejections
/// included); completed/cancelled/timed_out/shed/failed partition the
/// awaited outcomes (shed is counted at shed time, not Await time).
struct ServiceStats {
  int64_t submitted = 0;
  int64_t completed = 0;  // Awaited with a real answer.
  int64_t cancelled = 0;  // Cancel flag cut execution: identity result.
  int64_t timed_out = 0;  // Deadline cut execution: identity result.
  int64_t shed = 0;       // Evicted for higher-priority work.
  int64_t failed = 0;     // A chunk threw; partials discarded.
  int64_t rejected_queue_full = 0;
  int64_t rejected_infeasible = 0;
  int64_t rejected_client_busy = 0;  // Per-client fairness cap hits.
  int64_t rejected_draining = 0;     // Submissions refused mid-drain.
  bool draining = false;             // Drain()/BeginDrain() was called.
  int64_t queue_depth = 0;        // Chunks queued, not yet picked up.
  int64_t active_queries = 0;     // Admitted, not yet finished (gauge).
  int64_t admitted_chunks = 0;    // Their unfinished chunks (gauge; the
                                  // max_queued_chunks budget in use).
  int64_t tickets_in_flight = 0;  // Submitted, not yet awaited.
  PlanCache::Stats cache;
  TaskScheduler::Stats scheduler;
};

class QueryService {
 public:
  /// An opaque handle to one submitted query. Await exactly once.
  using Ticket = uint64_t;

  /// Submit's return: the ticket plus why admission succeeded or failed.
  /// Ticket 0 (never issued) means rejected; Await(0) reports kRejected
  /// without blocking. Converts to Ticket so pre-admission-control call
  /// sites (`Ticket t = service.Submit(q)`) keep compiling.
  struct Admission {
    Ticket ticket = 0;
    AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
    bool admitted() const { return ticket != 0; }
    operator Ticket() const { return ticket; }
  };

  /// `index` is borrowed and must outlive the service. A *static* index
  /// must not be rebuilt under it — cached plans address its clustered
  /// store. A *versioned* store (ingest::IngestStore) may fold, reorganize,
  /// and repair freely while the service runs: each query's plan pins the
  /// snapshot it was prepared against (QueryPlan::pin), every chunk of that
  /// query scans the pinned version via PlanTarget, and the plan cache
  /// drops plans whose StoreVersion() fell behind — so concurrent publishes
  /// never block, tear, or stale-serve a query.
  explicit QueryService(const MultiDimIndex* index,
                        const ServiceOptions& options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits one query: plan-cache probe (Prepare on a miss), chunk
  /// decomposition, admission check (bounded services only), scheduler
  /// enqueue. Returns immediately; execution proceeds on the workers.
  /// Thread-safe.
  Admission Submit(const Query& query, const SubmitOptions& options = {});

  /// Admits a batch (same options per query); admissions are positionally
  /// parallel to `queries`. Under bounded admission, individual members
  /// may be rejected while others are admitted.
  std::vector<Admission> SubmitBatch(std::span<const Query> queries,
                                     const SubmitOptions& options = {});

  /// Admits an externally prepared plan without a cache probe (the SQL
  /// engine's seam: its statements were already bound to cached plans at
  /// Prepare time — including each disjoint box of a disjunctive
  /// statement — so execution must not pay a second lookup). The plan must
  /// have been produced by this service's index.
  Admission SubmitPlan(std::shared_ptr<const QueryPlan> plan,
                       const SubmitOptions& options = {});

  /// Blocks until the ticket's query finishes and returns its result,
  /// consuming the ticket. A query cut short by its cancel flag, deadline,
  /// or shedding returns its identity result with `*cancelled = true`
  /// (use the AwaitInfo overload to distinguish why). Ticket 0 (a rejected
  /// Admission) returns at once. Awaiting a ticket twice is a caller bug:
  /// it returns a defined empty/cancelled result (kAlreadyConsumed) in
  /// release builds and asserts in debug builds.
  QueryResult Await(Ticket ticket, bool* cancelled = nullptr);

  /// As above, also reporting the outcome and the query's worker-stamped
  /// completion latency (see AwaitInfo).
  QueryResult Await(Ticket ticket, AwaitInfo* info);

  /// Puts the service into drain mode: every subsequent Submit is rejected
  /// with AdmissionOutcome::kDraining while already-admitted queries keep
  /// executing and their Awaits keep working. Idempotent; there is no
  /// un-drain — a drained service is on its way down.
  void BeginDrain();

  /// BeginDrain(), then blocks until every admitted query has finished
  /// executing (its chunks drained off the workers). Tickets still hold
  /// their results afterwards; callers flush them with Await as usual.
  void Drain();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Synchronous convenience: Submit + Await. The calling thread blocks,
  /// but the chunks still run on (all) the workers. A rejected admission
  /// reports `*cancelled = true` with the identity result.
  QueryResult Run(const Query& query, const SubmitOptions& options = {},
                  bool* cancelled = nullptr);

  /// Cache-through planning without admission: the engine's Prepare path
  /// uses this so repeated ad-hoc SQL binds to cached plans.
  std::shared_ptr<const QueryPlan> CachedPlan(const Query& query) {
    return cache_.GetOrPrepare(*index_, query);
  }

  ServiceStats stats() const;

  const MultiDimIndex& index() const { return *index_; }
  PlanCache& plan_cache() { return cache_; }
  TaskScheduler& scheduler() { return scheduler_; }

 private:
  /// One in-flight query: its plan, per-chunk partials, and the scheduler
  /// job that fills them. Lives in tickets_ from Submit until Await; chunk
  /// closures borrow it, so the scheduler (declared last) must drain
  /// before any Pending is destroyed.
  struct Pending {
    /// Why execution was cut short, recorded first-writer-wins the moment
    /// it happens. Await consults this record — NOT a fresh ShouldStop() —
    /// so a query whose chunks all completed before the deadline expired
    /// is returned intact, and a cancel flag that was cleared again after
    /// cutting a scan short can never pass partial aggregates off as a
    /// completed answer. kStopShed is written by an *admitting* thread
    /// evicting this query; its remaining chunks observe it and early-exit.
    enum : uint8_t {
      kStopNone = 0,
      kStopCancelled,
      kStopTimedOut,
      kStopShed,
    };

    std::shared_ptr<const QueryPlan> plan;
    const MultiDimIndex* target = nullptr;  // PlanTarget(*plan).
    ExecContext ctx;  // Deadline/cancel/scan; scheduler-free.
    std::vector<std::vector<RangeTask>> chunks;
    std::vector<QueryResult> partials;  // One per chunk, disjoint rows.
    /// Chunks not yet finished; the closure that takes it to zero stamps
    /// `latency_seconds` (admission → completion) on its worker. The write
    /// is published to the awaiter by the job's completion release/acquire
    /// chain, so no atomic double is needed.
    std::atomic<int64_t> chunks_left{0};
    Timer admit_timer;
    double latency_seconds = 0.0;
    /// Mutable: the stop record is written through const pointers (the
    /// scan kernel's stop probe sees a const arg).
    mutable std::atomic<uint8_t> stop_cause{kStopNone};
    /// Admission-budget units (chunks) this query still holds against the
    /// service's admitted_chunks gauge. Finishing chunks release one each;
    /// shedding releases the remainder at once — the CAS take protocol in
    /// ReleaseChunks makes the two race-free (never double-released).
    std::atomic<int64_t> gauge_held{0};
    std::atomic<bool> query_released{false};  // active_queries released?
    std::atomic<bool> boosted{false};         // Boost() already applied?
    /// The submitting client's in-flight counter (per-client fairness cap);
    /// null for anonymous/uncapped submissions. Released with the query
    /// unit in ReleaseQuery.
    std::shared_ptr<std::atomic<int64_t>> client_count;
    int64_t client_id = -1;
    TaskScheduler::JobRef job;
  };

  Admission Admit(std::shared_ptr<const QueryPlan> plan,
                  const SubmitOptions& options);
  bool bounded() const {
    return options_.max_queued_queries > 0 || options_.max_queued_chunks > 0;
  }
  /// Capacity check against the gauges; admission_mu_ must be held so
  /// check+reserve is atomic with respect to other admitters (workers only
  /// ever decrement, which is conservative).
  bool HasRoom(int64_t num_chunks, int priority) const;
  /// Evicts strictly-lower-priority in-flight queries (lowest first) until
  /// HasRoom for the incoming query or no victims remain. admission_mu_
  /// must be held; takes mu_ (lock order: admission_mu_ before mu_).
  void ShedVictims(int priority, int64_t num_chunks);
  /// Returns up to `n` of `p`'s held chunk-budget units to the gauge.
  void ReleaseChunks(Pending* p, int64_t n);
  /// Returns `p`'s query-budget unit (idempotent).
  void ReleaseQuery(Pending* p);
  /// Moves any unstarted in-flight query past half its deadline budget to
  /// the front of the scheduler deques. Called on the admit and await
  /// paths — no timer thread; a service touched at all keeps deadlines
  /// honest.
  void BoostNearDeadline();
  /// Records `cause` first-writer-wins; true when this call installed it.
  static bool RecordStop(const Pending* p, uint8_t cause);
  static uint8_t CauseOf(const ExecContext& ctx);
  /// Takes one per-client in-flight slot for `client_id`, or null when the
  /// client is at its cap. Only called when the cap is configured.
  std::shared_ptr<std::atomic<int64_t>> ReserveClientSlot(int64_t client_id);
  /// Returns a slot taken by ReserveClientSlot (null-safe, exactly once per
  /// reservation — guarded by Pending::query_released).
  void ReleaseClientSlot(int64_t client_id,
                         const std::shared_ptr<std::atomic<int64_t>>& count);

  const MultiDimIndex* index_;
  const ServiceOptions options_;
  PlanCache cache_;

  /// Serializes bounded admission (check + reserve + shed). Ordered
  /// strictly before mu_; never taken by workers.
  std::mutex admission_mu_;

  mutable std::mutex mu_;  // Guards tickets_.
  std::unordered_map<Ticket, std::unique_ptr<Pending>> tickets_;
  /// Issued before the job is submitted, so a continuation that fires
  /// inside Submit already knows its ticket.
  std::atomic<Ticket> next_ticket_{1};

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> cancelled_{0};
  std::atomic<int64_t> timed_out_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> rejected_queue_full_{0};
  std::atomic<int64_t> rejected_infeasible_{0};
  std::atomic<int64_t> rejected_client_busy_{0};
  std::atomic<int64_t> rejected_draining_{0};
  std::atomic<int64_t> active_queries_{0};
  std::atomic<int64_t> admitted_chunks_{0};
  std::atomic<bool> draining_{false};

  /// Per-client in-flight counters (only touched when
  /// max_inflight_per_client > 0). Increments happen under clients_mu_ so
  /// the cap check is atomic; decrements are lock-free on the shared
  /// counter, and a counter that reaches zero is opportunistically erased
  /// under the lock (re-checked, so a racing admitter never loses its
  /// reservation).
  mutable std::mutex clients_mu_;
  std::unordered_map<int64_t, std::shared_ptr<std::atomic<int64_t>>>
      client_inflight_;

  /// Declared last: destroyed first, draining every in-flight chunk while
  /// the Pendings they borrow are still alive.
  TaskScheduler scheduler_;
};

}  // namespace tsunami

#endif  // TSUNAMI_SERVE_QUERY_SERVICE_H_
