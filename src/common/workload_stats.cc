#include "src/common/workload_stats.h"

#include <algorithm>
#include <numeric>

namespace tsunami {

Dataset SampleDataset(const Dataset& data, int64_t max_rows, Rng* rng) {
  int64_t n = data.size();
  Dataset sample(data.dims(), {});
  if (n <= max_rows) {
    sample = data;
    return sample;
  }
  sample.Reserve(max_rows);
  std::vector<Value> row(data.dims());
  for (int64_t i = 0; i < max_rows; ++i) {
    int64_t r = static_cast<int64_t>(rng->NextBelow(n));
    for (int d = 0; d < data.dims(); ++d) row[d] = data.at(r, d);
    sample.AppendRow(row);
  }
  return sample;
}

SortedSample::SortedSample(const Dataset& sample)
    : rows_(sample.size()), sorted_(sample.dims()) {
  for (int d = 0; d < sample.dims(); ++d) {
    sorted_[d].resize(rows_);
    for (int64_t r = 0; r < rows_; ++r) sorted_[d][r] = sample.at(r, d);
    std::sort(sorted_[d].begin(), sorted_[d].end());
  }
}

double SortedSample::Selectivity(const Predicate& p) const {
  if (rows_ == 0 || p.dim < 0 || p.dim >= dims()) return 1.0;
  if (p.lo > p.hi) return 0.0;
  const std::vector<Value>& vals = sorted_[p.dim];
  const int64_t hits =
      std::upper_bound(vals.begin(), vals.end(), p.hi) -
      std::lower_bound(vals.begin(), vals.end(), p.lo);
  return static_cast<double>(hits) / rows_;
}

double QuerySelectivity(const Dataset& sample, const Query& q) {
  int64_t n = sample.size();
  if (n == 0) return 1.0;
  int64_t hits = 0;
  for (int64_t r = 0; r < n; ++r) {
    bool ok = true;
    for (const Predicate& p : q.filters) {
      if (!p.Matches(sample.at(r, p.dim))) {
        ok = false;
        break;
      }
    }
    if (ok) ++hits;
  }
  return static_cast<double>(hits) / n;
}

std::vector<double> AvgSelectivityPerDim(const SortedSample& sample,
                                         const Workload& workload, int dims) {
  std::vector<double> sum(dims, 0.0);
  std::vector<int64_t> count(dims, 0);
  for (const Query& q : workload) {
    for (const Predicate& p : q.filters) {
      if (p.dim < 0 || p.dim >= dims) continue;
      sum[p.dim] += sample.Selectivity(p);
      ++count[p.dim];
    }
  }
  std::vector<double> avg(dims, 1.0);
  for (int d = 0; d < dims; ++d) {
    if (count[d] > 0) avg[d] = sum[d] / count[d];
  }
  return avg;
}

std::vector<int> DimsBySelectivity(const std::vector<double>& avg_selectivity) {
  std::vector<int> order(avg_selectivity.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return avg_selectivity[a] < avg_selectivity[b];
  });
  return order;
}

std::vector<int> DimsBySelectivity(const SortedSample& sample,
                                   const Workload& workload, int dims) {
  return DimsBySelectivity(AvgSelectivityPerDim(sample, workload, dims));
}

DimBounds ComputeBounds(const Dataset& data) {
  DimBounds b;
  int dims = data.dims();
  b.lo.assign(dims, 0);
  b.hi.assign(dims, 0);
  if (data.size() == 0) return b;
  for (int d = 0; d < dims; ++d) {
    Value lo = data.at(0, d), hi = data.at(0, d);
    for (int64_t r = 1; r < data.size(); ++r) {
      Value v = data.at(r, d);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    b.lo[d] = lo;
    b.hi[d] = hi;
  }
  return b;
}

}  // namespace tsunami
