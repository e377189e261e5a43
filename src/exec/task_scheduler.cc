#include "src/exec/task_scheduler.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "src/common/fault_injection.h"

namespace tsunami {

TaskScheduler::TaskScheduler(int threads) {
  if (threads <= 0) return;
  workers_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::unique_lock<std::mutex> lock(sleep_mu_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

TaskScheduler::JobRef TaskScheduler::Submit(
    int64_t num_chunks, std::function<void(int64_t, int)> fn, int priority,
    std::function<void(const Job&)> then) {
  JobRef job = std::make_shared<Job>();
  job->fn_ = std::move(fn);
  job->then_ = std::move(then);
  jobs_.fetch_add(1, std::memory_order_relaxed);
  if (num_chunks <= 0) {
    Complete(job.get());
    return job;
  }
  job->remaining_.store(num_chunks, std::memory_order_relaxed);
  if (workers_.empty()) {
    // Inline scheduler: run every chunk on the submitting thread, in order.
    for (int64_t c = 0; c < num_chunks; ++c) RunTask(Task{job, c}, 0);
    return job;
  }
  // Round-robin the chunks across the deques, starting where the previous
  // submission stopped so small jobs do not pile onto worker 0. Stealing
  // makes the initial placement a hint, not an assignment.
  const int n = num_threads();
  uint64_t start = next_worker_.fetch_add(static_cast<uint64_t>(num_chunks),
                                          std::memory_order_relaxed);
  for (int64_t c = 0; c < num_chunks; ++c) {
    Worker& w = *workers_[(start + static_cast<uint64_t>(c)) % n];
    std::unique_lock<std::mutex> lock(w.mu);
    if (priority > 0) {
      w.deque.push_front(Task{job, c});
    } else {
      w.deque.push_back(Task{job, c});
    }
    // Counted under the same mutex as the push (and decremented under it
    // on pop/steal in NextTask), so the queue_depth() gauge can never read
    // negative: per deque, a chunk's decrement is ordered after its
    // increment.
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // Empty sleep-mutex section before notifying: a worker that evaluated
    // the sleep predicate as false before our increments must either have
    // blocked already (and receive the notify) or re-evaluate after this
    // fence (and see the count) — never neither (the classic lost wakeup).
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  if (num_chunks == 1) {
    work_cv_.notify_one();
  } else {
    work_cv_.notify_all();
  }
  return job;
}

void TaskScheduler::Wait(const JobRef& job) {
  if (job->finished()) return;
  std::unique_lock<std::mutex> lock(job->mu_);
  job->cv_.wait(lock, [&] { return job->finished(); });
}

void TaskScheduler::Run(int64_t num_chunks,
                        std::function<void(int64_t, int)> fn, int priority) {
  JobRef job = Submit(num_chunks, std::move(fn), priority);
  Wait(job);
  if (job->failed()) throw std::runtime_error("task scheduler job failed");
}

int TaskScheduler::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

TaskScheduler::Stats TaskScheduler::stats() const {
  Stats s;
  s.jobs = jobs_.load(std::memory_order_relaxed);
  s.chunks = chunks_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.boosts = boosts_.load(std::memory_order_relaxed);
  s.task_failures = task_failures_.load(std::memory_order_relaxed);
  return s;
}

void TaskScheduler::Boost(const JobRef& job) {
  if (job == nullptr || job->finished() || workers_.empty()) return;
  bool moved = false;
  for (std::unique_ptr<Worker>& wp : workers_) {
    Worker& w = *wp;
    std::unique_lock<std::mutex> lock(w.mu);
    // Stable partition keeps both the job's chunks and the rest in their
    // existing relative order; only the boundary between them moves.
    auto mid = std::stable_partition(
        w.deque.begin(), w.deque.end(),
        [&job](const Task& t) { return t.job == job; });
    moved = moved || mid != w.deque.begin();
  }
  if (moved) boosts_.fetch_add(1, std::memory_order_relaxed);
}

bool TaskScheduler::NextTask(int id, Task* out) {
  // Own deque first (front: the oldest of our queued chunks, or a
  // just-submitted high-priority one).
  {
    Worker& own = *workers_[id];
    std::unique_lock<std::mutex> lock(own.mu);
    if (!own.deque.empty()) {
      *out = std::move(own.deque.front());
      own.deque.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal from the back of the first non-empty victim, scanning clockwise
  // from our neighbor so contended victims rotate.
  const int n = num_threads();
  for (int i = 1; i < n; ++i) {
    Worker& victim = *workers_[(id + i) % n];
    std::unique_lock<std::mutex> lock(victim.mu);
    if (!victim.deque.empty()) {
      *out = std::move(victim.deque.back());
      victim.deque.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void TaskScheduler::RunTask(const Task& task, int worker) {
  try {
    // Fault sites: a chunk that throws (exercises the failed-job path) and
    // a worker that stalls mid-chunk (exercises deadline enforcement and
    // stealing under stragglers).
    if (TSUNAMI_FAULT_FIRES("sched.task_throw", task.chunk)) {
      throw std::runtime_error("injected task fault");
    }
    if (TSUNAMI_FAULT_FIRES("sched.stall", task.chunk)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    task.job->fn_(task.chunk, worker);
  } catch (...) {
    // Swallow: the worker survives, the job completes (below) but is
    // marked failed so the caller knows its partials are untrustworthy.
    task.job->failed_.store(true, std::memory_order_release);
    task_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  chunks_.fetch_add(1, std::memory_order_relaxed);
  if (task.job->remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Complete(task.job.get());
  }
}

void TaskScheduler::Complete(Job* job) {
  {
    // Publish completion under the job mutex so a waiter cannot check
    // finished(), sleep, and miss the notify.
    std::lock_guard<std::mutex> lock(job->mu_);
    job->done_.store(true, std::memory_order_release);
    job->cv_.notify_all();
  }
  // Only the thread that ended the job gets here, so the take is
  // unsynchronized; moving the continuation out releases whatever it
  // captured as soon as it has run.
  if (job->then_) {
    std::function<void(const Job&)> then = std::move(job->then_);
    try {
      then(*job);
    } catch (...) {
      // Never let it unwind a worker (or the submitter's Submit call).
      task_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void TaskScheduler::WorkerLoop(int id) {
  for (;;) {
    Task task;
    if (NextTask(id, &task)) {
      RunTask(task, id);
      task = Task{};  // Drop the JobRef before blocking again.
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    work_cv_.wait(lock, [&] {
      return shutting_down_ || queued_.load(std::memory_order_relaxed) > 0;
    });
    if (shutting_down_ && queued_.load(std::memory_order_relaxed) <= 0) {
      return;
    }
  }
}

}  // namespace tsunami
