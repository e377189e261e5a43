#include "src/baselines/grid_file.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tsunami {

GridFileIndex::GridFileIndex(const Dataset& data, const Options& options)
    : dims_(data.dims()) {
  const int64_t n = data.size();
  // Symmetric partition counts: p per dimension with p^d cells of roughly
  // target_cell_rows rows (the Grid File treats all dimensions equally).
  int64_t target_cells =
      std::max<int64_t>(n / std::max<int64_t>(options.target_cell_rows, 1), 1);
  target_cells = std::min(target_cells, options.max_cells);
  int p = dims_ > 0
              ? static_cast<int>(std::floor(std::pow(
                    static_cast<double>(target_cells), 1.0 / dims_)))
              : 1;
  p = std::max(p, 1);
  partitions_.assign(dims_, p);

  // Linear scales: equi-depth split values from each column.
  scales_.resize(dims_);
  std::vector<Value> sorted(n);
  for (int d = 0; d < dims_; ++d) {
    for (int64_t r = 0; r < n; ++r) sorted[r] = data.at(r, d);
    std::sort(sorted.begin(), sorted.end());
    scales_[d].resize(p - 1);
    for (int b = 1; b < p; ++b) {
      scales_[d][b - 1] = sorted[std::min<int64_t>(
          static_cast<int64_t>(static_cast<double>(b) / p * n), n - 1)];
    }
  }

  strides_.assign(std::max(dims_, 1), 1);
  for (int d = dims_ - 2; d >= 0; --d) {
    strides_[d] = strides_[d + 1] * partitions_[d + 1];
  }
  num_cells_ = dims_ > 0 ? strides_[0] * partitions_[0] : 1;

  // Cluster rows by cell id (counting sort) and build the directory.
  std::vector<int64_t> cell_of(n);
  std::vector<int64_t> counts(num_cells_ + 1, 0);
  for (int64_t r = 0; r < n; ++r) {
    int64_t cell = 0;
    for (int d = 0; d < dims_; ++d) {
      cell += static_cast<int64_t>(BucketOf(d, data.at(r, d))) * strides_[d];
    }
    cell_of[r] = cell;
    ++counts[cell + 1];
  }
  for (int64_t c = 0; c < num_cells_; ++c) counts[c + 1] += counts[c];
  cell_start_ = counts;
  std::vector<uint32_t> perm(n);
  std::vector<int64_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (int64_t r = 0; r < n; ++r) {
    perm[cursor[cell_of[r]]++] = static_cast<uint32_t>(r);
  }
  store_ = ColumnStore(data, perm);
}

int GridFileIndex::BucketOf(int dim, Value v) const {
  const std::vector<Value>& scale = scales_[dim];
  // Bucket b covers [scale[b-1], scale[b]); upper_bound gives the first
  // split greater than v, i.e. the bucket index.
  return static_cast<int>(std::upper_bound(scale.begin(), scale.end(), v) -
                          scale.begin());
}

void GridFileIndex::PlanTasks(const Query& query,
                              std::vector<RangeTask>* tasks,
                              QueryResult* counters) const {
  if (store_.size() == 0) return;
  // Per-dimension bucket ranges, plus whether the query covers each bucket
  // entirely (for the exact-scan optimization).
  std::vector<int> lo(dims_, 0), hi(dims_, 0);
  for (int d = 0; d < dims_; ++d) hi[d] = partitions_[d] - 1;
  for (const Predicate& p : query.filters) {
    lo[p.dim] = BucketOf(p.dim, p.lo);
    hi[p.dim] = BucketOf(p.dim, p.hi);
  }

  // Odometer over the cell box; runs along the innermost dimension are
  // contiguous in the directory, so scan them as single ranges.
  std::vector<int> cur(lo);
  for (;;) {
    int64_t base = 0;
    for (int d = 0; d + 1 < dims_; ++d) {
      base += static_cast<int64_t>(cur[d]) * strides_[d];
    }
    int64_t first_cell = base + (dims_ > 0 ? lo[dims_ - 1] : 0);
    int64_t last_cell = base + (dims_ > 0 ? hi[dims_ - 1] : 0);
    int64_t begin = cell_start_[first_cell];
    int64_t end = cell_start_[last_cell + 1];
    if (begin < end) {
      // Exact iff every filtered dimension's bucket run is fully covered.
      bool exact = true;
      for (const Predicate& p : query.filters) {
        const std::vector<Value>& scale = scales_[p.dim];
        int b_lo = p.dim == dims_ - 1 ? lo[p.dim] : cur[p.dim];
        int b_hi = p.dim == dims_ - 1 ? hi[p.dim] : cur[p.dim];
        Value cell_lo = b_lo == 0 ? kValueMin : scale[b_lo - 1];
        Value cell_hi = b_hi == static_cast<int>(scale.size())
                            ? kValueMax
                            : scale[b_hi] - 1;
        if (p.lo > cell_lo || p.hi < cell_hi) {
          exact = false;
          break;
        }
      }
      ++counters->cell_ranges;
      AppendRangeTask(tasks, RangeTask{begin, end, exact});
    }
    // Advance the odometer over dims [0, dims_-1).
    int d = dims_ - 2;
    while (d >= 0 && cur[d] == hi[d]) {
      cur[d] = lo[d];
      --d;
    }
    if (d < 0) break;
    ++cur[d];
  }
}

int64_t GridFileIndex::IndexSizeBytes() const {
  int64_t bytes =
      static_cast<int64_t>(cell_start_.size()) * sizeof(int64_t);  // Directory.
  for (const std::vector<Value>& scale : scales_) {
    bytes += static_cast<int64_t>(scale.size()) * sizeof(Value);
  }
  return bytes;
}

}  // namespace tsunami
