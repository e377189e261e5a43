// Work-stealing task scheduler: the library's one executor.
//
// Each worker owns a deque; submitted jobs spread their chunks round-robin
// across all deques, a worker pops from the front of its own deque and —
// when empty — steals from the back of a victim's, so the chunks of a
// decomposed giant query are picked up by every idle core regardless of
// which deques they landed in, and a skewed batch never serializes behind
// its largest member.
//
// Jobs are chunk-indexed fan-outs (`fn(chunk, worker)` for chunk in
// [0, num_chunks)) with an asynchronous completion handle. Clients:
// QueryService decomposes each admitted query's QueryPlan into
// block-aligned RangeTask chunks and submits one job per query (Await
// blocks on the handle); ExecuteRangeTasks runs its row-balanced chunk
// lists, the batch loop behind ExecuteBatch runs one chunk per query, and
// TsunamiIndex's parallel build (§6.1) runs one chunk per region — those
// three block in Run(). Chunks of concurrently submitted jobs interleave
// in the deques — that is the point: one shared scheduler parallelizes
// *across* queries and *within* each query at once.
//
// Chunks must be independent; result aggregation is the caller's job
// (per-chunk partials merged after the job finishes, the same
// disjoint-rows argument ExecuteRangeTasks relies on). A chunk that throws
// does not take the worker down: the exception is swallowed, the job is
// marked failed() and still completes (Wait never hangs). A failed job's
// partials are never an answer: Run() throws, and QueryService discards
// them and reports the query as failed.
//
// Completion can also be pushed instead of waited for: a job submitted with
// a continuation runs it exactly once, right after finished() is published,
// and passes it the finished job — on the worker that ended the last chunk,
// or on the submitting thread for inline schedulers and zero-chunk jobs (so
// possibly before Submit returns). Failed jobs run it too. This is how the
// network front end's event loop learns that a query is done without
// polling every ticket.
#ifndef TSUNAMI_EXEC_TASK_SCHEDULER_H_
#define TSUNAMI_EXEC_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tsunami {

class TaskScheduler {
 public:
  /// One submitted fan-out. Opaque to callers; pass the handle back to
  /// Wait() / Finished(). Held by shared_ptr so in-flight chunks keep the
  /// job alive even if the submitter abandons the handle.
  class Job {
   public:
    bool finished() const { return done_.load(std::memory_order_acquire); }

    /// True when any chunk of this job threw. The job still completes (every
    /// chunk runs or is drained); the caller must treat its partials as
    /// untrustworthy.
    bool failed() const { return failed_.load(std::memory_order_acquire); }

   private:
    friend class TaskScheduler;
    std::function<void(int64_t, int)> fn_;
    std::function<void(const Job&)> then_;  // Taken once by Complete().
    std::atomic<int64_t> remaining_{0};
    std::atomic<bool> done_{false};
    std::atomic<bool> failed_{false};
    std::mutex mu_;
    std::condition_variable cv_;
  };
  using JobRef = std::shared_ptr<Job>;

  /// Cumulative counters since construction. `steals` is the health metric
  /// for skewed batches: zero on a balanced batch, large when workers ran
  /// dry and pulled a straggler's chunks.
  struct Stats {
    int64_t jobs = 0;
    int64_t chunks = 0;
    int64_t steals = 0;
    int64_t boosts = 0;         // Jobs moved to deque fronts by Boost().
    /// Chunks that threw (swallowed, job failed), plus continuations that
    /// threw (swallowed; the job had already finished).
    int64_t task_failures = 0;
  };

  /// With `threads <= 0` the scheduler degenerates to inline execution on
  /// the submitting thread (deterministic chunk order; nothing to steal).
  explicit TaskScheduler(int threads);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Enqueues `fn(chunk, worker)` for chunk in [0, num_chunks), spreading
  /// chunks round-robin across the per-worker deques, and returns
  /// immediately. `worker` is the index of the executing worker (0 on the
  /// submitting thread for inline schedulers) — useful for per-worker
  /// scratch. Chunks with `priority > 0` are pushed to the *front* of the
  /// deques, so a latency-sensitive query's chunks run ahead of queued
  /// backlog (stealing still takes victims' backs, preserving the jump).
  /// `then`, when set, is the job's continuation (see the file comment): it
  /// runs exactly once, after finished() is true. It should not throw; an
  /// exception it throws is swallowed and counted in task_failures.
  JobRef Submit(int64_t num_chunks, std::function<void(int64_t, int)> fn,
                int priority = 0,
                std::function<void(const Job&)> then = nullptr);

  /// Blocks until every chunk of `job` has finished. Does not run chunks
  /// itself, so a chunk must never Wait on (or Run) a job of its own
  /// scheduler: with every worker blocked the deques would deadlock.
  void Wait(const JobRef& job);

  /// Submit + Wait: runs `fn(chunk, worker)` for every chunk and returns
  /// once all have finished. Throws std::runtime_error when any chunk
  /// threw (the job failed), so a failed job's partials never reach a
  /// caller. Same no-nesting rule as Wait().
  void Run(int64_t num_chunks, std::function<void(int64_t, int)> fn,
           int priority = 0);

  /// Moves every still-queued chunk of `job` to the front of its deque,
  /// preserving their relative order — the dynamic half of prioritization:
  /// priorities are otherwise fixed at Submit, but a query drifting toward
  /// its deadline can be boosted past queued backlog mid-flight
  /// (QueryService does this when a pending query's remaining deadline
  /// budget falls below half). Chunks already running or finished are
  /// unaffected; a no-op for null/finished jobs and inline schedulers.
  void Boost(const JobRef& job);

  /// Non-blocking completion check.
  static bool Finished(const JobRef& job) { return job->finished(); }

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// A sensible default worker count: hardware concurrency, at least 1.
  static int DefaultThreads();

  /// Chunks currently queued (not yet picked up); the service's queue-depth
  /// gauge.
  int64_t queue_depth() const {
    return queued_.load(std::memory_order_relaxed);
  }

  Stats stats() const;

 private:
  struct Task {
    JobRef job;
    int64_t chunk = 0;
  };
  /// One worker's deque. Guarded by its own mutex — chunk granularity is
  /// thousands of rows, so a short critical section per pop/steal is noise
  /// next to the scan itself, and plain mutexes keep the stealing protocol
  /// obviously correct under TSan.
  struct Worker {
    std::mutex mu;
    std::deque<Task> deque;
  };

  void WorkerLoop(int id);
  /// Pops from the front of worker `id`'s own deque, or steals from the
  /// back of another's. Returns false when every deque is empty.
  bool NextTask(int id, Task* out);
  void RunTask(const Task& task, int worker);
  /// Publishes finished(), wakes waiters, then runs the continuation.
  void Complete(Job* job);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex sleep_mu_;
  std::condition_variable work_cv_;
  bool shutting_down_ = false;

  std::atomic<int64_t> queued_{0};
  std::atomic<uint64_t> next_worker_{0};  // Round-robin submission cursor.
  std::atomic<int64_t> jobs_{0};
  std::atomic<int64_t> chunks_{0};
  std::atomic<int64_t> steals_{0};
  std::atomic<int64_t> boosts_{0};
  std::atomic<int64_t> task_failures_{0};
};

}  // namespace tsunami

#endif  // TSUNAMI_EXEC_TASK_SCHEDULER_H_
