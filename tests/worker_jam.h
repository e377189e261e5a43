// Test helper that occupies scheduler workers, so the queries a test
// submits stay queued for as long as it needs them in flight.
#ifndef TSUNAMI_TESTS_WORKER_JAM_H_
#define TSUNAMI_TESTS_WORKER_JAM_H_

#include <atomic>
#include <thread>

#include "src/exec/task_scheduler.h"

namespace tsunami {

/// Parks `workers` scheduler workers in a spin until Release(). The
/// destructor releases too, so a failed assertion cannot leave queued work
/// stranded behind the jam; declare the jam after the service (and after
/// any server harness) so it is destroyed first.
class WorkerJam {
 public:
  WorkerJam(TaskScheduler* scheduler, int workers) : scheduler_(scheduler) {
    job_ = scheduler_->Submit(workers, [this](int64_t, int) {
      started_.fetch_add(1, std::memory_order_relaxed);
      while (!release_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    while (started_.load(std::memory_order_relaxed) < workers) {
      std::this_thread::yield();
    }
  }
  ~WorkerJam() { Release(); }

  WorkerJam(const WorkerJam&) = delete;
  WorkerJam& operator=(const WorkerJam&) = delete;

  void Release() {
    release_.store(true, std::memory_order_release);
    scheduler_->Wait(job_);
  }

 private:
  TaskScheduler* scheduler_;
  TaskScheduler::JobRef job_;
  std::atomic<int> started_{0};
  std::atomic<bool> release_{false};
};

}  // namespace tsunami

#endif  // TSUNAMI_TESTS_WORKER_JAM_H_
