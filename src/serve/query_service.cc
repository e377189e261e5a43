#include "src/serve/query_service.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <ostream>
#include <thread>
#include <utility>

#include "src/exec/runner.h"

namespace tsunami {

const char* ToString(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      return "admitted";
    case AdmissionOutcome::kQueueFull:
      return "queue-full";
    case AdmissionOutcome::kDeadlineInfeasible:
      return "deadline-infeasible";
    case AdmissionOutcome::kClientBusy:
      return "client-busy";
    case AdmissionOutcome::kDraining:
      return "draining";
  }
  return "unknown-admission-outcome";
}

const char* ToString(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kCompleted:
      return "completed";
    case QueryOutcome::kCancelled:
      return "cancelled";
    case QueryOutcome::kTimedOut:
      return "timed-out";
    case QueryOutcome::kShed:
      return "shed";
    case QueryOutcome::kFailed:
      return "failed";
    case QueryOutcome::kRejected:
      return "rejected";
    case QueryOutcome::kAlreadyConsumed:
      return "already-consumed";
  }
  return "unknown-query-outcome";
}

std::ostream& operator<<(std::ostream& os, AdmissionOutcome outcome) {
  return os << ToString(outcome);
}

std::ostream& operator<<(std::ostream& os, QueryOutcome outcome) {
  return os << ToString(outcome);
}

namespace {

ServiceOptions SanitizeOptions(ServiceOptions options) {
  // The watermark is a fraction of the admission caps; a value outside
  // [0, 1] would silently disable (or invert) the low-priority
  // reservation, so it is clamped rather than trusted.
  options.low_priority_watermark =
      std::clamp(options.low_priority_watermark, 0.0, 1.0);
  return options;
}

}  // namespace

QueryService::QueryService(const MultiDimIndex* index,
                           const ServiceOptions& options)
    : index_(index),
      options_(SanitizeOptions(options)),
      cache_(options.plan_cache_capacity, options.plan_cache_max_bytes,
             options.governor),
      scheduler_(options.threads < 0 ? TaskScheduler::DefaultThreads()
                                     : options.threads) {}

QueryService::~QueryService() = default;

QueryService::Admission QueryService::Submit(const Query& query,
                                             const SubmitOptions& options) {
  return Admit(cache_.GetOrPrepare(*index_, query), options);
}

QueryService::Admission QueryService::SubmitPlan(
    std::shared_ptr<const QueryPlan> plan, const SubmitOptions& options) {
  return Admit(std::move(plan), options);
}

std::vector<QueryService::Admission> QueryService::SubmitBatch(
    std::span<const Query> queries, const SubmitOptions& options) {
  std::vector<Admission> admissions;
  admissions.reserve(queries.size());
  for (const Query& query : queries) {
    admissions.push_back(Submit(query, options));
  }
  return admissions;
}

bool QueryService::RecordStop(const Pending* p, uint8_t cause) {
  // First writer wins: the earliest recorded cause is the truthful one (a
  // deadline expiring after a shed does not relabel the shed). Returns
  // whether this call installed the cause, so a caller that counts an
  // outcome (the shedder) counts only causes it actually recorded.
  uint8_t expected = Pending::kStopNone;
  return p->stop_cause.compare_exchange_strong(expected, cause,
                                               std::memory_order_relaxed);
}

uint8_t QueryService::CauseOf(const ExecContext& ctx) {
  if (ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_relaxed)) {
    return Pending::kStopCancelled;
  }
  return Pending::kStopTimedOut;
}

bool QueryService::HasRoom(int64_t num_chunks, int priority) const {
  // Low-priority traffic only fills up to the watermark; the remainder is
  // headroom for latency-sensitive queries.
  const bool low = priority <= 0;
  if (options_.max_queued_queries > 0) {
    int64_t cap = options_.max_queued_queries;
    if (low) {
      cap = std::max<int64_t>(
          1, static_cast<int64_t>(cap * options_.low_priority_watermark));
    }
    if (active_queries_.load(std::memory_order_relaxed) + 1 > cap) {
      return false;
    }
  }
  if (options_.max_queued_chunks > 0) {
    int64_t cap = options_.max_queued_chunks;
    if (low) {
      cap = std::max<int64_t>(
          1, static_cast<int64_t>(cap * options_.low_priority_watermark));
    }
    if (admitted_chunks_.load(std::memory_order_relaxed) + num_chunks > cap) {
      return false;
    }
  }
  return true;
}

void QueryService::ReleaseChunks(Pending* p, int64_t n) {
  // CAS-take: a finishing chunk (n = 1) and a shed releasing the remainder
  // (n = max) race here; each unit of the held budget is returned exactly
  // once no matter how the takes interleave.
  int64_t held = p->gauge_held.load(std::memory_order_relaxed);
  int64_t take;
  do {
    take = std::min(held, n);
    if (take <= 0) return;
  } while (!p->gauge_held.compare_exchange_weak(held, held - take,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed));
  admitted_chunks_.fetch_sub(take, std::memory_order_relaxed);
}

void QueryService::ReleaseQuery(Pending* p) {
  bool expected = false;
  if (p->query_released.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
    active_queries_.fetch_sub(1, std::memory_order_relaxed);
    ReleaseClientSlot(p->client_id, p->client_count);
  }
}

std::shared_ptr<std::atomic<int64_t>> QueryService::ReserveClientSlot(
    int64_t client_id) {
  std::lock_guard<std::mutex> lock(clients_mu_);
  std::shared_ptr<std::atomic<int64_t>>& slot = client_inflight_[client_id];
  if (slot == nullptr) slot = std::make_shared<std::atomic<int64_t>>(0);
  if (slot->load(std::memory_order_relaxed) >=
      options_.max_inflight_per_client) {
    return nullptr;
  }
  slot->fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void QueryService::ReleaseClientSlot(
    int64_t client_id, const std::shared_ptr<std::atomic<int64_t>>& count) {
  if (count == nullptr) return;
  if (count->fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Opportunistic cleanup so ephemeral client ids don't grow the map
    // without bound. Re-checked under the lock: an admitter that already
    // took the map slot increments under clients_mu_, so a zero observed
    // here while we still own the mapping really is idle.
    std::lock_guard<std::mutex> lock(clients_mu_);
    auto it = client_inflight_.find(client_id);
    if (it != client_inflight_.end() && it->second == count &&
        it->second->load(std::memory_order_relaxed) == 0) {
      client_inflight_.erase(it);
    }
  }
}

void QueryService::BeginDrain() {
  draining_.store(true, std::memory_order_release);
}

void QueryService::Drain() {
  BeginDrain();
  // Drain is a shutdown-path rarity: a poll loop is simpler and no less
  // correct than wiring a condition variable through every release path.
  while (active_queries_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void QueryService::ShedVictims(int priority, int64_t num_chunks) {
  // admission_mu_ is held: no new victims can be admitted under us, and no
  // competing shed can double-release (ReleaseChunks is race-free anyway).
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<int, Pending*>> victims;
  for (auto& entry : tickets_) {
    Pending* v = entry.second.get();
    if (v->ctx.priority >= priority) continue;
    if (v->stop_cause.load(std::memory_order_relaxed) != Pending::kStopNone) {
      continue;
    }
    // A finished query holds no reclaimable budget — and must not be
    // relabelled as shed under its awaiter. (A victim finishing between
    // this check and the stop record loses a completed answer, but never
    // yields a wrong one: its Await returns the identity result as shed.)
    if (v->job != nullptr && v->job->finished()) continue;
    victims.emplace_back(v->ctx.priority, v);
  }
  std::sort(victims.begin(), victims.end(),
            [](const std::pair<int, Pending*>& a,
               const std::pair<int, Pending*>& b) {
              return a.first < b.first;
            });
  for (const auto& victim : victims) {
    if (HasRoom(num_chunks, priority)) break;
    Pending* v = victim.second;
    // A worker may record kStopTimedOut/kStopCancelled between our
    // stop_cause check above and here; count the shed only when this CAS
    // installed it, so the query lands in exactly one outcome stat.
    if (RecordStop(v, Pending::kStopShed)) {
      shed_.fetch_add(1, std::memory_order_relaxed);
    }
    ReleaseChunks(v, std::numeric_limits<int64_t>::max());
    ReleaseQuery(v);
  }
}

void QueryService::BoostNearDeadline() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : tickets_) {
    Pending* p = entry.second.get();
    if (p->ctx.deadline_seconds <= 0.0) continue;
    if (p->boosted.load(std::memory_order_relaxed)) continue;
    if (p->stop_cause.load(std::memory_order_relaxed) != Pending::kStopNone) {
      continue;
    }
    if (p->job == nullptr || p->job->finished()) continue;
    if (p->admit_timer.ElapsedSeconds() > 0.5 * p->ctx.deadline_seconds) {
      scheduler_.Boost(p->job);
      p->boosted.store(true, std::memory_order_relaxed);
    }
  }
}

QueryService::Admission QueryService::Admit(
    std::shared_ptr<const QueryPlan> plan, const SubmitOptions& options) {
  auto pending = std::make_unique<Pending>();
  Pending* p = pending.get();
  p->plan = std::move(plan);
  p->target = &index_->PlanTarget(*p->plan);
  p->ctx.scan = options.scan;
  p->ctx.cancel = options.cancel;
  p->ctx.deadline_seconds = options.deadline_seconds;
  p->ctx.priority = options.priority;

  submitted_.fetch_add(1, std::memory_order_relaxed);

  // A draining service is on its way down: it finishes what it admitted,
  // it starts nothing new.
  if (draining_.load(std::memory_order_acquire)) {
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    return Admission{0, AdmissionOutcome::kDraining};
  }

  // Fail fast on work that could not finish in budget even on an idle
  // machine: burning workers on a query that must time out only adds queue
  // wait to every other query's deadline.
  if (options_.reject_infeasible_deadlines && options.deadline_seconds > 0.0) {
    const double predicted = PredictPlanNanos(*p->plan, options_.cost_weights);
    if (predicted > options.deadline_seconds * 1e9) {
      rejected_infeasible_.fetch_add(1, std::memory_order_relaxed);
      return Admission{0, AdmissionOutcome::kDeadlineInfeasible};
    }
  }

  // Per-client fairness cap: reserve this client's slot before the global
  // budget so a greedy client is turned away without ever contending for
  // (or holding) shared admission capacity.
  if (options_.max_inflight_per_client > 0 && options.client_id >= 0) {
    p->client_count = ReserveClientSlot(options.client_id);
    if (p->client_count == nullptr) {
      rejected_client_busy_.fetch_add(1, std::memory_order_relaxed);
      return Admission{0, AdmissionOutcome::kClientBusy};
    }
    p->client_id = options.client_id;
  }

  p->chunks = ChunkRangeTasks(std::span<const RangeTask>(p->plan->tasks),
                              options_.chunk_rows);
  const int64_t num_chunks = static_cast<int64_t>(p->chunks.size());
  p->partials.resize(p->chunks.size());

  // Reserve admission budget. The gauges are maintained for unbounded
  // services too (the stats are useful either way); only bounded ones can
  // reject.
  if (bounded()) {
    std::lock_guard<std::mutex> admit(admission_mu_);
    if (!HasRoom(num_chunks, options.priority)) {
      if (options.priority > 0) ShedVictims(options.priority, num_chunks);
      if (!HasRoom(num_chunks, options.priority)) {
        rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
        // Hand back the per-client slot this rejected query reserved.
        ReleaseClientSlot(p->client_id, p->client_count);
        return Admission{0, AdmissionOutcome::kQueueFull};
      }
    }
    active_queries_.fetch_add(1, std::memory_order_relaxed);
    admitted_chunks_.fetch_add(num_chunks, std::memory_order_relaxed);
  } else {
    active_queries_.fetch_add(1, std::memory_order_relaxed);
    admitted_chunks_.fetch_add(num_chunks, std::memory_order_relaxed);
  }
  p->gauge_held.store(num_chunks, std::memory_order_relaxed);

  p->ctx.StartBatch();  // Deadline clock starts at admission.
  // Shedding can stop any query in a bounded service, so the in-scan stop
  // probe is installed whenever a mid-flight stop is possible at all.
  const bool stoppable = p->ctx.Cancellable() || bounded();
  p->chunks_left.store(num_chunks, std::memory_order_relaxed);
  const Ticket ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  std::function<void(const TaskScheduler::Job&)> then;
  if (options.on_complete) {
    then = [on_complete = options.on_complete,
            ticket](const TaskScheduler::Job&) { on_complete(ticket); };
  }
  p->job = scheduler_.Submit(
      num_chunks,
      [this, p, stoppable](int64_t chunk, int /*worker*/) {
        // The budget tail is RAII: a chunk whose scan throws (the scheduler
        // swallows the exception and marks the job failed) must still
        // return its admission unit and, if it is the last chunk out,
        // release the query's unit and stamp its completion time —
        // otherwise every failed chunk permanently consumes bounded-service
        // budget until all traffic is rejected kQueueFull.
        struct BudgetTail {
          QueryService* service;
          Pending* p;
          ~BudgetTail() {
            // The last chunk out releases the query's unit and stamps its
            // true completion time, on the worker — Await's return can be
            // much later on a saturated host.
            service->ReleaseChunks(p, 1);
            if (p->chunks_left.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
              p->latency_seconds = p->admit_timer.ElapsedSeconds();
              service->ReleaseQuery(p);
            }
          }
        } tail{this, p};
        QueryResult& partial = p->partials[chunk];
        partial = InitResult(p->plan->query);
        if (p->stop_cause.load(std::memory_order_relaxed) !=
            Pending::kStopNone) {
          // Already stopped (shed, cancelled, or expired): leave the
          // identity partial — Await returns the identity result anyway.
        } else if (p->ctx.ShouldStop()) {
          // Skipped outright: record it, so Await returns the identity
          // result even if a borrowed cancel flag is cleared again later.
          RecordStop(p, CauseOf(p->ctx));
        } else {
          // One disjoint slice of the planned ranges. The stop probe rides
          // in the scan options so a deadline (or a shed) lands mid-chunk
          // too — and it records the cut on the Pending the instant it
          // fires, which is the only race-free witness that this scan was
          // abandoned.
          ScanOptions scan = p->ctx.scan;
          if (stoppable) {
            scan.stop_probe = [](const void* arg) {
              const auto* q = static_cast<const Pending*>(arg);
              if (q->stop_cause.load(std::memory_order_relaxed) !=
                  Pending::kStopNone) {
                return true;
              }
              if (!q->ctx.ShouldStop()) return false;
              RecordStop(q, CauseOf(q->ctx));
              return true;
            };
            scan.stop_arg = p;
          }
          p->target->store().ScanRanges(p->chunks[chunk], p->plan->query,
                                        &partial, scan);
        }
      },
      options.priority, std::move(then));
  // Register only after the Pending is fully initialized (job assigned):
  // tickets are sequential, so a concurrent Await guessing the next id
  // must find either nothing or a complete entry — never a null JobRef.
  // Chunks already running don't care; they hold `p`, not the ticket.
  {
    std::lock_guard<std::mutex> lock(mu_);
    tickets_.emplace(ticket, std::move(pending));
  }
  BoostNearDeadline();
  return Admission{ticket, AdmissionOutcome::kAdmitted};
}

QueryResult QueryService::Await(Ticket ticket, bool* cancelled) {
  AwaitInfo info;
  QueryResult result = Await(ticket, &info);
  if (cancelled != nullptr) *cancelled = info.cancelled;
  return result;
}

QueryResult QueryService::Await(Ticket ticket, AwaitInfo* info) {
  AwaitInfo local;
  AwaitInfo& out = info != nullptr ? *info : local;
  out = AwaitInfo{};
  if (ticket == 0) {
    // A rejected Admission: the query never ran, nothing to wait for.
    out.cancelled = true;
    out.outcome = QueryOutcome::kRejected;
    return QueryResult{};
  }
  BoostNearDeadline();
  std::unique_ptr<Pending> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tickets_.find(ticket);
    if (it != tickets_.end()) {
      pending = std::move(it->second);
      tickets_.erase(it);
    }
  }
  if (pending == nullptr) {
    // A ticket is consumed by exactly one Await; a second (or a
    // never-issued ticket) is a caller bug. Loud in debug builds, a
    // defined non-answer in release: never a hang, never someone else's
    // result.
    assert(!"QueryService::Await: ticket already awaited or never issued");
    out.cancelled = true;
    out.outcome = QueryOutcome::kAlreadyConsumed;
    return QueryResult{};
  }
  scheduler_.Wait(pending->job);
  // Backstop reclaim: the chunk closures' RAII tail returns every unit for
  // chunks that ran at all, but a chunk can fail *before* its closure runs
  // (the scheduler's injected task-throw site sits ahead of the dispatch),
  // so take whatever is still held — the CAS-take in ReleaseChunks and the
  // idempotent ReleaseQuery make this free when nothing remains, and it
  // guarantees a consumed ticket can never strand bounded-service budget.
  ReleaseChunks(pending.get(), std::numeric_limits<int64_t>::max());
  ReleaseQuery(pending.get());
  if (pending->chunks_left.load(std::memory_order_relaxed) > 0) {
    // Some chunk never ran its tail, so the worker-side stamp never fired:
    // stamp completion now (Await time is the earliest truthful witness).
    pending->latency_seconds = pending->admit_timer.ElapsedSeconds();
  }
  out.latency_seconds = pending->latency_seconds;
  const Query& query = pending->plan->query;
  if (pending->job->failed()) {
    // A chunk threw: the scheduler swallowed it and completed the job, but
    // any partial it half-filled is untrustworthy — as is the merge.
    failed_.fetch_add(1, std::memory_order_relaxed);
    out.cancelled = true;
    out.outcome = QueryOutcome::kFailed;
    return InitResult(query);
  }
  const uint8_t cause = pending->stop_cause.load(std::memory_order_relaxed);
  if (cause != Pending::kStopNone) {
    // A worker (or a shedding admitter) recorded that execution was cut
    // short: some partials may be partial accumulations. Never pass those
    // off as an answer — the query reverts to its identity result. (The
    // record is consulted instead of re-evaluating ShouldStop() here: a
    // query whose chunks all finished before the deadline expired is
    // returned intact, and a cancel flag cleared again after cutting a
    // scan short cannot smuggle partials through.)
    out.cancelled = true;
    switch (cause) {
      case Pending::kStopCancelled:
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        out.outcome = QueryOutcome::kCancelled;
        break;
      case Pending::kStopTimedOut:
        timed_out_.fetch_add(1, std::memory_order_relaxed);
        out.outcome = QueryOutcome::kTimedOut;
        break;
      default:
        // shed_ was counted when the victim was evicted.
        out.outcome = QueryOutcome::kShed;
        break;
    }
    return InitResult(query);
  }
  out.cancelled = false;
  out.outcome = QueryOutcome::kCompleted;
  completed_.fetch_add(1, std::memory_order_relaxed);
  // Merge: plan counters + every disjoint chunk partial + the target's
  // non-range epilogue — the FinishPlan contract that makes this equal to
  // Execute(query) bit for bit. Degradation (quarantined blocks skipped by
  // any chunk) propagates through the merge.
  QueryResult result = pending->plan->counters;
  for (const QueryResult& partial : pending->partials) {
    MergeQueryResults(query, partial, &result);
  }
  pending->target->FinishPlan(*pending->plan, &result);
  return result;
}

QueryResult QueryService::Run(const Query& query,
                              const SubmitOptions& options, bool* cancelled) {
  Admission admission = Submit(query, options);
  if (!admission.admitted()) {
    if (cancelled != nullptr) *cancelled = true;
    return InitResult(query);
  }
  return Await(admission.ticket, cancelled);
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_infeasible = rejected_infeasible_.load(std::memory_order_relaxed);
  s.rejected_client_busy =
      rejected_client_busy_.load(std::memory_order_relaxed);
  s.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  s.draining = draining_.load(std::memory_order_acquire);
  s.queue_depth = scheduler_.queue_depth();
  s.active_queries = active_queries_.load(std::memory_order_relaxed);
  s.admitted_chunks = admitted_chunks_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.tickets_in_flight = static_cast<int64_t>(tickets_.size());
  }
  s.cache = cache_.stats();
  s.scheduler = scheduler_.stats();
  return s;
}

}  // namespace tsunami
