// Workload statistics shared by index builders: per-dimension filter
// selectivities (used for sort-dimension choice, k-d tree dimension order,
// partition initialization, and query-type embeddings, §4.3.1 / §5.3.2).
#ifndef TSUNAMI_COMMON_WORKLOAD_STATS_H_
#define TSUNAMI_COMMON_WORKLOAD_STATS_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"

namespace tsunami {

/// Uniform row sample of a dataset (without replacement for small n).
Dataset SampleDataset(const Dataset& data, int64_t max_rows, Rng* rng);

/// A row sample with each dimension's values sorted once, so the
/// selectivity of a single range predicate is two binary searches instead
/// of a scan over the sample. The counts equal a linear scan's exactly.
class SortedSample {
 public:
  explicit SortedSample(const Dataset& sample);

  int dims() const { return static_cast<int>(sorted_.size()); }

  /// Fraction of sample rows matching `p` (in [0, 1]): 0 when p.lo > p.hi,
  /// and 1.0 on an empty sample or for a dimension the sample lacks.
  double Selectivity(const Predicate& p) const;

 private:
  int64_t rows_ = 0;
  std::vector<std::vector<Value>> sorted_;  // [dim], ascending.
};

/// Fraction of sample rows matching all of the query's filters.
double QuerySelectivity(const Dataset& sample, const Query& q);

/// Per-dimension average selectivity over queries filtering that dimension;
/// dimensions never filtered get 1.0. Lower = more selective = more useful
/// to index.
std::vector<double> AvgSelectivityPerDim(const SortedSample& sample,
                                         const Workload& workload, int dims);

/// Dimensions ordered from most selective (smallest average selectivity) to
/// least, stably; never-filtered dimensions (average 1.0) come last.
std::vector<int> DimsBySelectivity(const std::vector<double>& avg_selectivity);
std::vector<int> DimsBySelectivity(const SortedSample& sample,
                                   const Workload& workload, int dims);

/// Per-dimension [min, max] over the dataset. Empty datasets yield [0, 0].
struct DimBounds {
  std::vector<Value> lo;
  std::vector<Value> hi;
};
DimBounds ComputeBounds(const Dataset& data);

}  // namespace tsunami

#endif  // TSUNAMI_COMMON_WORKLOAD_STATS_H_
