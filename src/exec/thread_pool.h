// Old name of the executor, kept only for callers not yet migrated; new
// code uses TaskScheduler directly.
#ifndef TSUNAMI_EXEC_THREAD_POOL_H_
#define TSUNAMI_EXEC_THREAD_POOL_H_

#include "src/exec/task_scheduler.h"

namespace tsunami {
using ThreadPool = TaskScheduler;
}  // namespace tsunami

#endif  // TSUNAMI_EXEC_THREAD_POOL_H_
