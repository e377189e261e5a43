// Clustered single-dimensional index (§6.1 baseline 1): rows sorted by the
// workload's most selective dimension; queries filtering that dimension
// binary-search their endpoints, all others fall back to a full scan.
#ifndef TSUNAMI_BASELINES_SINGLE_DIM_H_
#define TSUNAMI_BASELINES_SINGLE_DIM_H_

#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

class SingleDimIndex : public RangePlanIndex {
 public:
  /// Sorts by the most selective dimension of `workload` (estimated on a
  /// sample), or by `forced_sort_dim` if >= 0.
  SingleDimIndex(const Dataset& data, const Workload& workload,
                 int forced_sort_dim = -1);

  std::string Name() const override { return "SingleDim"; }
  int64_t IndexSizeBytes() const override { return sizeof(int); }
  const ColumnStore& store() const override { return store_; }

  int sort_dim() const { return sort_dim_; }

 private:
  /// One range: the sort dimension's binary-searched slice, or the whole
  /// store when the query does not filter it.
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override;

  int sort_dim_ = 0;
  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_SINGLE_DIM_H_
