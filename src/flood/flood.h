// Flood (Nathan et al., SIGMOD 2020; §2.2 of the Tsunami paper): a single
// grid over the full data space, every dimension partitioned independently
// in CDF(X), sized by gradient descent over the cost model. Per §6.1 this
// reimplementation uses Tsunami's cost model and binary-search refinement
// instead of Flood's random-forest model and per-cell models.
#ifndef TSUNAMI_FLOOD_FLOOD_H_
#define TSUNAMI_FLOOD_FLOOD_H_

#include <cstdint>
#include <string>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/core/augmented_grid.h"
#include "src/core/optimizer.h"
#include "src/storage/column_store.h"

namespace tsunami {

struct FloodOptions {
  AgdOptions agd;  // independent_only is forced on.
};

class FloodIndex : public RangePlanIndex {
 public:
  FloodIndex(const Dataset& data, const Workload& workload)
      : FloodIndex(data, workload, FloodOptions()) {}
  FloodIndex(const Dataset& data, const Workload& workload,
             const FloodOptions& options);

  std::string Name() const override { return "Flood"; }
  int64_t IndexSizeBytes() const override { return grid_.SizeBytes(); }
  const ColumnStore& store() const override { return store_; }

  int64_t num_cells() const { return grid_.num_cells(); }
  const AugmentedGrid& grid() const { return grid_; }
  double optimize_seconds() const { return optimize_seconds_; }
  double sort_seconds() const { return sort_seconds_; }

 private:
  /// The grid's candidate runs. Flood plans are pure range scans (no
  /// FinishPlan epilogue), so QueryService decomposes them into
  /// work-stealing chunks with no index-specific hook needed.
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override {
    grid_.PlanRanges(query, tasks, counters);
  }

  AugmentedGrid grid_;
  ColumnStore store_;
  double optimize_seconds_ = 0.0;
  double sort_seconds_ = 0.0;
};

}  // namespace tsunami

#endif  // TSUNAMI_FLOOD_FLOOD_H_
