// Tests for the work-stealing task scheduler: every chunk runs exactly
// once (any thread count, concurrent submitters), Wait/Finished/Run semantics,
// inline determinism, priority jumping the queue, stealing actually firing
// on a skewed job mix, and job continuations running exactly once after
// completion (threaded, inline, zero-chunk, and failed jobs).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/exec/task_scheduler.h"

namespace tsunami {
namespace {

TEST(TaskSchedulerTest, InlineSchedulerRunsChunksInOrderOnCaller) {
  TaskScheduler scheduler(0);
  EXPECT_EQ(scheduler.num_threads(), 0);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> order;
  TaskScheduler::JobRef job = scheduler.Submit(8, [&](int64_t c, int worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0);
    order.push_back(c);
  });
  // Inline submission completes before returning.
  EXPECT_TRUE(TaskScheduler::Finished(job));
  ASSERT_EQ(order.size(), 8u);
  for (int64_t c = 0; c < 8; ++c) EXPECT_EQ(order[c], c);
  scheduler.Wait(job);  // Must not hang on a finished job.
}

TEST(TaskSchedulerTest, EveryChunkRunsExactlyOnce) {
  TaskScheduler scheduler(4);
  const int kJobs = 16;
  const int64_t kChunks = 257;  // Not a multiple of the worker count.
  std::vector<std::vector<std::atomic<int>>> hits(kJobs);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kChunks);
  }
  std::vector<TaskScheduler::JobRef> jobs;
  for (int j = 0; j < kJobs; ++j) {
    jobs.push_back(scheduler.Submit(kChunks, [&hits, j](int64_t c, int) {
      hits[j][c].fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (const auto& job : jobs) scheduler.Wait(job);
  for (int j = 0; j < kJobs; ++j) {
    for (int64_t c = 0; c < kChunks; ++c) {
      EXPECT_EQ(hits[j][c].load(), 1) << "job " << j << " chunk " << c;
    }
  }
  TaskScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.jobs, kJobs);
  EXPECT_EQ(stats.chunks, kJobs * kChunks);
  EXPECT_EQ(scheduler.queue_depth(), 0);
}

TEST(TaskSchedulerTest, ConcurrentSubmittersAllComplete) {
  TaskScheduler scheduler(3);
  const int kClients = 6;
  const int kJobsPerClient = 20;
  std::atomic<int64_t> total{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int j = 0; j < kJobsPerClient; ++j) {
        TaskScheduler::JobRef job = scheduler.Submit(
            5, [&](int64_t, int) {
              total.fetch_add(1, std::memory_order_relaxed);
            });
        scheduler.Wait(job);
        EXPECT_TRUE(TaskScheduler::Finished(job));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(total.load(), kClients * kJobsPerClient * 5);
}

TEST(TaskSchedulerTest, EmptyJobIsImmediatelyFinished) {
  TaskScheduler scheduler(2);
  TaskScheduler::JobRef job = scheduler.Submit(0, [](int64_t, int) {
    FAIL() << "no chunks should run";
  });
  EXPECT_TRUE(TaskScheduler::Finished(job));
  scheduler.Wait(job);
}

// One chunk blocks its worker while the rest of the job's chunks sit in
// that worker's deque: the other workers must drain their own deques and
// then steal the blocked worker's queued chunks, so the job finishes long
// before the blocker releases — and the steal counter moves.
TEST(TaskSchedulerTest, IdleWorkersStealFromBusyWorkersDeque) {
  TaskScheduler scheduler(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> fast_done{0};
  const int64_t kChunks = 64;
  TaskScheduler::JobRef job =
      scheduler.Submit(kChunks, [&](int64_t c, int) {
        if (c == 0) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return release; });
          return;
        }
        fast_done.fetch_add(1, std::memory_order_relaxed);
      });
  // All non-blocking chunks finish while chunk 0 still holds its worker —
  // half of them lived in the blocked worker's deque and must be stolen.
  while (fast_done.load(std::memory_order_relaxed) < kChunks - 1) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(TaskScheduler::Finished(job));
  EXPECT_GE(scheduler.stats().steals, 1);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Wait(job);
  EXPECT_TRUE(TaskScheduler::Finished(job));
}

// With a single worker pinned by a blocker, later high-priority chunks
// must run before earlier normal-priority backlog.
TEST(TaskSchedulerTest, PriorityChunksJumpTheQueue) {
  TaskScheduler scheduler(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  TaskScheduler::JobRef blocker =
      scheduler.Submit(1, [&](int64_t, int) {
        started.store(true, std::memory_order_release);
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
      });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Worker is pinned: everything below queues in its deque.
  std::mutex order_mu;
  std::vector<int> order;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(tag);
  };
  TaskScheduler::JobRef low = scheduler.Submit(
      3, [&](int64_t, int) { record(0); }, /*priority=*/0);
  TaskScheduler::JobRef high = scheduler.Submit(
      3, [&](int64_t, int) { record(1); }, /*priority=*/1);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Wait(low);
  scheduler.Wait(high);
  scheduler.Wait(blocker);
  ASSERT_EQ(order.size(), 6u);
  // All high-priority chunks ran before every normal-priority one.
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(order[i], 1) << i;
  for (size_t i = 3; i < 6; ++i) EXPECT_EQ(order[i], 0) << i;
}

// A chunk that throws must not take the worker down or hang Wait: the job
// completes, is marked failed, and the failure counter moves. (No fault
// injection needed — the chunk function throws directly.)
TEST(TaskSchedulerTest, ThrowingChunkFailsJobWithoutHangingWait) {
  TaskScheduler scheduler(2);
  std::atomic<int64_t> ran{0};
  TaskScheduler::JobRef job = scheduler.Submit(16, [&](int64_t c, int) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (c == 5 || c == 11) throw std::runtime_error("injected chunk fault");
  });
  scheduler.Wait(job);  // Must return despite the throws.
  EXPECT_TRUE(TaskScheduler::Finished(job));
  EXPECT_TRUE(job->failed());
  EXPECT_EQ(ran.load(), 16);  // Sibling chunks still ran.
  EXPECT_GE(scheduler.stats().task_failures, 2);

  // A healthy job on the same scheduler afterwards is unaffected.
  std::atomic<int64_t> healthy{0};
  TaskScheduler::JobRef ok = scheduler.Submit(8, [&](int64_t, int) {
    healthy.fetch_add(1, std::memory_order_relaxed);
  });
  scheduler.Wait(ok);
  EXPECT_FALSE(ok->failed());
  EXPECT_EQ(healthy.load(), 8);
}

// Run() is Submit + Wait for blocking callers: it returns once every chunk
// ran, and turns a failed job into an exception (after all its chunks
// finished, so nothing still writes the caller's partials).
TEST(TaskSchedulerTest, RunWaitsForEveryChunkAndThrowsOnFailedJob) {
  for (int threads : {0, 2}) {
    TaskScheduler scheduler(threads);
    std::atomic<int64_t> ran{0};
    scheduler.Run(16, [&](int64_t, int) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 16) << threads << " workers";

    ran = 0;
    EXPECT_THROW(scheduler.Run(16,
                               [&](int64_t c, int) {
                                 ran.fetch_add(1, std::memory_order_relaxed);
                                 if (c == 5) {
                                   throw std::runtime_error("chunk fault");
                                 }
                               }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 16) << threads << " workers";
  }
}

// Boost() moves a job's still-queued chunks to the deque front: with one
// pinned worker, a later-submitted boosted job runs entirely before the
// earlier backlog, in its original chunk order.
TEST(TaskSchedulerTest, BoostMovesQueuedChunksAheadOfBacklog) {
  TaskScheduler scheduler(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  TaskScheduler::JobRef blocker =
      scheduler.Submit(1, [&](int64_t, int) {
        started.store(true, std::memory_order_release);
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
      });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::mutex order_mu;
  std::vector<std::pair<int, int64_t>> order;
  auto record = [&](int tag, int64_t c) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.emplace_back(tag, c);
  };
  TaskScheduler::JobRef job_a = scheduler.Submit(
      2, [&](int64_t c, int) { record(0, c); });
  TaskScheduler::JobRef job_b = scheduler.Submit(
      2, [&](int64_t c, int) { record(1, c); });
  scheduler.Boost(job_b);
  EXPECT_GE(scheduler.stats().boosts, 1);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Wait(job_a);
  scheduler.Wait(job_b);
  scheduler.Wait(blocker);
  ASSERT_EQ(order.size(), 4u);
  // B's chunks first (relative order preserved), then A's.
  EXPECT_EQ(order[0], (std::pair<int, int64_t>{1, 0}));
  EXPECT_EQ(order[1], (std::pair<int, int64_t>{1, 1}));
  EXPECT_EQ(order[2], (std::pair<int, int64_t>{0, 0}));
  EXPECT_EQ(order[3], (std::pair<int, int64_t>{0, 1}));

  // Boosting null / finished jobs is a harmless no-op.
  scheduler.Boost(nullptr);
  scheduler.Boost(job_b);
}

TEST(TaskSchedulerTest, DestructorDrainsQueuedChunks) {
  std::atomic<int64_t> ran{0};
  {
    TaskScheduler scheduler(2);
    for (int j = 0; j < 32; ++j) {
      scheduler.Submit(16, [&](int64_t, int) {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait: destruction must drain everything.
  }
  EXPECT_EQ(ran.load(), 32 * 16);
}

// What one job's continuation observed when it ran.
struct ContinuationRecord {
  std::atomic<int> runs{0};
  std::atomic<bool> saw_finished{false};
  std::atomic<bool> saw_failed{false};
  std::atomic<int64_t> chunks_done_at_run{-1};
  std::thread::id thread;
};

// A continuation that records into `rec`; `chunks_done` counts the job's
// finished chunks, so the record shows whether every chunk had ended.
std::function<void(const TaskScheduler::Job&)> Record(
    ContinuationRecord* rec, const std::atomic<int64_t>* chunks_done) {
  return [rec, chunks_done](const TaskScheduler::Job& job) {
    rec->saw_finished.store(job.finished());
    rec->saw_failed.store(job.failed());
    rec->chunks_done_at_run.store(chunks_done->load());
    rec->thread = std::this_thread::get_id();
    rec->runs.fetch_add(1);
  };
}

TEST(TaskSchedulerTest, ContinuationRunsOnceAfterFinishOnWorker) {
  const int kJobs = 48;
  std::vector<ContinuationRecord> recs(kJobs);
  std::vector<std::atomic<int64_t>> done(kJobs);
  {
    TaskScheduler scheduler(4);
    for (int j = 0; j < kJobs; ++j) {
      const int64_t chunks = 1 + j % 17;
      scheduler.Submit(
          chunks,
          [&done, j](int64_t, int) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            done[j].fetch_add(1);
          },
          /*priority=*/j % 2, Record(&recs[j], &done[j]));
    }
    // Destruction drains every chunk and joins the workers, so each
    // continuation has run to completion once the scope closes.
  }
  for (int j = 0; j < kJobs; ++j) {
    EXPECT_EQ(recs[j].runs.load(), 1) << "job " << j;
    EXPECT_TRUE(recs[j].saw_finished.load()) << "job " << j;
    EXPECT_FALSE(recs[j].saw_failed.load()) << "job " << j;
    EXPECT_EQ(recs[j].chunks_done_at_run.load(), 1 + j % 17) << "job " << j;
    EXPECT_NE(recs[j].thread, std::this_thread::get_id()) << "job " << j;
  }
}

TEST(TaskSchedulerTest, ContinuationRunsInsideSubmitWhenInline) {
  TaskScheduler scheduler(0);
  ContinuationRecord rec;
  std::atomic<int64_t> done{0};
  TaskScheduler::JobRef job = scheduler.Submit(
      8, [&done](int64_t, int) { done.fetch_add(1); }, 0,
      Record(&rec, &done));
  // Already ran, on this thread, before Submit returned.
  EXPECT_EQ(rec.runs.load(), 1);
  EXPECT_TRUE(rec.saw_finished.load());
  EXPECT_EQ(rec.chunks_done_at_run.load(), 8);
  EXPECT_EQ(rec.thread, std::this_thread::get_id());
  scheduler.Wait(job);
  EXPECT_EQ(rec.runs.load(), 1);
}

TEST(TaskSchedulerTest, ZeroChunkJobRunsContinuationOnSubmitter) {
  TaskScheduler scheduler(2);
  ContinuationRecord rec;
  std::atomic<int64_t> done{0};
  TaskScheduler::JobRef job = scheduler.Submit(
      0, [](int64_t, int) { FAIL() << "no chunks should run"; }, 0,
      Record(&rec, &done));
  EXPECT_EQ(rec.runs.load(), 1);
  EXPECT_TRUE(rec.saw_finished.load());
  EXPECT_FALSE(rec.saw_failed.load());
  EXPECT_EQ(rec.thread, std::this_thread::get_id());
  EXPECT_TRUE(TaskScheduler::Finished(job));
}

// A failed job must still run its continuation: a caller that learns of
// completion only through it (the network event loop) would otherwise
// strand the job's ticket forever.
TEST(TaskSchedulerTest, FailedJobStillRunsContinuation) {
  for (int threads : {0, 2}) {
    ContinuationRecord rec;
    std::atomic<int64_t> done{0};
    {
      TaskScheduler scheduler(threads);
      scheduler.Submit(
          16,
          [&done](int64_t c, int) {
            done.fetch_add(1);
            if (c == 3) throw std::runtime_error("injected chunk fault");
          },
          0, Record(&rec, &done));
    }
    EXPECT_EQ(rec.runs.load(), 1) << threads << " threads";
    EXPECT_TRUE(rec.saw_finished.load()) << threads << " threads";
    EXPECT_TRUE(rec.saw_failed.load()) << threads << " threads";
    EXPECT_EQ(rec.chunks_done_at_run.load(), 16) << threads << " threads";
  }
}

TEST(TaskSchedulerTest, ThrowingContinuationIsCountedNotPropagated) {
  for (int threads : {0, 2}) {
    TaskScheduler scheduler(threads);
    scheduler.Submit(4, [](int64_t, int) {}, 0,
                     [](const TaskScheduler::Job&) {
                       throw std::runtime_error("continuation fault");
                     });
    // The worker survived: the scheduler still runs jobs afterwards.
    std::atomic<int64_t> ran{0};
    scheduler.Wait(scheduler.Submit(
        8, [&ran](int64_t, int) { ran.fetch_add(1); }));
    EXPECT_EQ(ran.load(), 8) << threads << " threads";
    for (int i = 0; i < 5000 && scheduler.stats().task_failures < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(scheduler.stats().task_failures, 1) << threads << " threads";
  }
}

}  // namespace
}  // namespace tsunami
