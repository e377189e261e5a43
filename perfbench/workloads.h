// The benchmark's workloads (see BENCHMARK.json for why each exists).
// Each returns false when it could not run at all; failed operations are
// counted in the report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "perfbench/harness.h"
#include "perfbench/stack.h"

namespace perfbench {

/// Dashboards over the wire: Zipf-skewed TPC-H queries from a pool several
/// times the plan cache, 16 closed-loop users with 4 ms mean think time,
/// two workers.
bool RunServeSkewed(const Args& args, const std::string& out_dir,
                    Report* report);

/// Embedded analytics in-process: wide multi-aggregate TPC-H scans served
/// from the plan cache, one submitting thread, three workers.
bool RunScanWide(const Args& args, const std::string& out_dir, Report* report);

/// Writes beside reads over the wire on a durable store: an open loop of
/// fsync-acked insert batches and a closed loop of recent-window queries,
/// then a durable-ack audit by recovery.
bool RunIngestDurable(const Args& args, const std::string& out_dir,
                      Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
