#include "src/baselines/single_dim.h"

#include <algorithm>
#include <numeric>

#include "src/common/random.h"
#include "src/common/workload_stats.h"

namespace tsunami {
namespace {

ColumnStore BuildSorted(const Dataset& data, int sort_dim) {
  std::vector<uint32_t> perm(data.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return data.at(a, sort_dim) < data.at(b, sort_dim);
  });
  return ColumnStore(data, perm);
}

int PickSortDim(const Dataset& data, const Workload& workload) {
  Rng rng(7);
  const SortedSample sample(SampleDataset(data, 20000, &rng));
  std::vector<int> order = DimsBySelectivity(sample, workload, data.dims());
  return order.empty() ? 0 : order.front();
}

}  // namespace

SingleDimIndex::SingleDimIndex(const Dataset& data, const Workload& workload,
                               int forced_sort_dim)
    : sort_dim_(forced_sort_dim >= 0 ? forced_sort_dim
                                     : PickSortDim(data, workload)),
      store_(BuildSorted(data, sort_dim_)) {}

void SingleDimIndex::PlanTasks(const Query& query,
                               std::vector<RangeTask>* tasks,
                               QueryResult* counters) const {
  ++counters->cell_ranges;
  const Predicate* p = query.FilterOn(sort_dim_);
  if (p == nullptr) {
    // No filter on the sort dimension: full scan.
    AppendRangeTask(tasks, RangeTask{0, store_.size(), /*exact=*/false});
    return;
  }
  int64_t begin = store_.LowerBound(sort_dim_, 0, store_.size(), p->lo);
  int64_t end = store_.UpperBound(sort_dim_, 0, store_.size(), p->hi);
  // The range is exact when the sort dimension is the only filter: every
  // row in [begin, end) matches by construction.
  AppendRangeTask(tasks,
                  RangeTask{begin, end, /*exact=*/query.filters.size() == 1});
}

}  // namespace tsunami
