// Per-query reference cost model: the oracle optimizer_test compares
// GridCostEvaluator::Cost and PredictQueryNanos against with ==. It keeps
// the straightforward form of the §5.3.1 prediction: every query rebuilds
// the candidate's grid-dimension order, sort dimension and conditional
// structures, recomputes each sample point's partitions, and looks its
// filters up with Query::FilterOn. It shares none of the evaluator's
// layout code: it re-derives the sorted values, ranks, block spans and
// mapping fits from the evaluator's point sample, and takes only the
// sample, the query subsample and the selectivity order from it.
#ifndef TSUNAMI_TESTS_COST_ORACLE_H_
#define TSUNAMI_TESTS_COST_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "src/common/linear_model.h"
#include "src/common/types.h"
#include "src/core/cost_model.h"
#include "src/core/skeleton.h"

namespace tsunami {

class CostOracle {
 public:
  explicit CostOracle(const GridCostEvaluator& eval)
      : dims_(eval.dims()),
        n_(eval.sample_points()),
        total_rows_(eval.region_rows()),
        queries_(eval.sample_queries()),
        sel_order_(eval.selectivity_order()) {
    scale_ = n_ > 0 ? static_cast<double>(total_rows_) / n_ : 0.0;
    vals_.resize(dims_);
    sorted_.assign(dims_, {});
    rank_.assign(dims_, std::vector<int32_t>(n_));
    order_.assign(dims_, std::vector<int32_t>(n_));
    for (int d = 0; d < dims_; ++d) {
      vals_[d] = eval.sample_column(d);
      std::iota(order_[d].begin(), order_[d].end(), 0);
      std::stable_sort(
          order_[d].begin(), order_[d].end(),
          [&](int32_t a, int32_t b) { return vals_[d][a] < vals_[d][b]; });
      sorted_[d].resize(n_);
      for (int j = 0; j < n_; ++j) {
        sorted_[d][j] = vals_[d][order_[d][j]];
        rank_[d][order_[d][j]] = j;
      }
    }
    local_span_.assign(dims_, 0.0);
    full_span_.assign(dims_, 0.0);
    if (n_ > 0) {
      const int64_t window = std::clamp<int64_t>(
          total_rows_ > 0 ? n_ * kScanBlockRows / total_rows_ : n_, 1, n_);
      for (int d = 0; d < dims_; ++d) {
        full_span_[d] = static_cast<double>(sorted_[d].back()) -
                        static_cast<double>(sorted_[d].front());
        double sum = 0.0;
        const int kWindows = 16;
        for (int s = 0; s < kWindows; ++s) {
          const int64_t j = (n_ - window) * s / kWindows;
          sum += static_cast<double>(sorted_[d][j + window - 1]) -
                 static_cast<double>(sorted_[d][j]);
        }
        local_span_[d] = sum / kWindows;
      }
    }
  }

  // Average over the query subsample, summed in subsample order.
  double Cost(const Skeleton& skeleton, const std::vector<int>& partitions,
              const CostWeights& weights, int sort_dim = -1) const {
    double total = 0.0;
    for (const Query& q : queries_) {
      total += PredictQueryNanos(skeleton, partitions, weights, q, sort_dim);
    }
    return queries_.empty() ? 0.0 : total / queries_.size();
  }

  double PredictQueryNanos(const Skeleton& skeleton,
                           const std::vector<int>& partitions,
                           const CostWeights& weights, const Query& query,
                           int sort_dim = -1) const {
    if (n_ == 0) return 0.0;
    // Mirror AugmentedGrid::Build's dimension ordering and sort-dim choice.
    std::vector<int> grid_dims;
    for (int d = 0; d < dims_; ++d) {
      if (skeleton.dims[d].strategy == PartitionStrategy::kIndependent) {
        grid_dims.push_back(d);
      }
    }
    for (int d = 0; d < dims_; ++d) {
      if (skeleton.dims[d].strategy == PartitionStrategy::kConditional) {
        grid_dims.push_back(d);
      }
    }
    auto is_sort_candidate = [&](int d) {
      return d >= 0 && d < dims_ &&
             skeleton.dims[d].strategy != PartitionStrategy::kMapped &&
             !skeleton.IsBase(d);
    };
    if (!is_sort_candidate(sort_dim)) {
      sort_dim = -1;
      for (int d : sel_order_) {
        if (is_sort_candidate(d)) {
          sort_dim = d;
          break;
        }
      }
      if (sort_dim < 0) sort_dim = grid_dims.back();
    }
    grid_dims.erase(std::find(grid_dims.begin(), grid_dims.end(), sort_dim));
    grid_dims.push_back(sort_dim);

    // Conditional-dimension structures on the sample.
    std::vector<CondInfo> cond(dims_);
    for (int d = 0; d < dims_; ++d) {
      if (skeleton.dims[d].strategy != PartitionStrategy::kConditional) {
        continue;
      }
      CondInfo& info = cond[d];
      info.base = skeleton.dims[d].other;
      int pb = std::max(partitions[info.base], 1);
      int pd = std::max(partitions[d], 1);
      info.base_sorted.assign(pb, {});
      info.dep_part.resize(n_);
      for (int32_t i : order_[d]) {
        int bp = PartOfRank(rank_[info.base][i], pb);
        info.base_sorted[bp].push_back(vals_[d][i]);
      }
      std::vector<int> cursor(pb, 0);
      for (int32_t i : order_[d]) {
        int bp = PartOfRank(rank_[info.base][i], pb);
        int size = static_cast<int>(info.base_sorted[bp].size());
        info.dep_part[i] = static_cast<int>(
            static_cast<int64_t>(cursor[bp]++) * pd / std::max(size, 1));
      }
    }

    // Effective filters after functional-mapping transforms.
    std::vector<Value> eff_lo(dims_, kValueMin), eff_hi(dims_, kValueMax);
    std::vector<bool> has_eff(dims_, false);
    for (const Predicate& p : query.filters) {
      eff_lo[p.dim] = std::max(eff_lo[p.dim], p.lo);
      eff_hi[p.dim] = std::min(eff_hi[p.dim], p.hi);
      has_eff[p.dim] = true;
    }
    for (int d = 0; d < dims_; ++d) {
      if (skeleton.dims[d].strategy != PartitionStrategy::kMapped) continue;
      const Predicate* p = query.FilterOn(d);
      if (p == nullptr) continue;
      int target = skeleton.dims[d].other;
      auto [x_lo, x_hi] = BoundedLinearModel::Fit(vals_[d], vals_[target])
                              .MapRange(p->lo, p->hi);
      eff_lo[target] = std::max(eff_lo[target], x_lo);
      eff_hi[target] = std::min(eff_hi[target], x_hi);
      has_eff[target] = true;
    }
    for (int d = 0; d < dims_; ++d) {
      if (has_eff[d] && eff_lo[d] > eff_hi[d]) return weights.w0;
    }

    // Per-dimension partition ranges for independent dims.
    std::vector<int> lo_part(dims_, 0), hi_part(dims_, 0);
    for (int d : grid_dims) {
      int p = std::max(partitions[d], 1);
      if (skeleton.dims[d].strategy != PartitionStrategy::kIndependent) {
        continue;
      }
      if (!has_eff[d]) {
        lo_part[d] = 0;
        hi_part[d] = p - 1;
        continue;
      }
      int64_t rlo = std::lower_bound(sorted_[d].begin(), sorted_[d].end(),
                                     eff_lo[d]) -
                    sorted_[d].begin();
      int64_t rhi = std::upper_bound(sorted_[d].begin(), sorted_[d].end(),
                                     eff_hi[d]) -
                    sorted_[d].begin();
      lo_part[d] = PartOfRank(rlo, p);
      hi_part[d] = PartOfRank(std::max(rhi - 1, rlo), p);
    }
    // Conditional dims: per-base dep partition ranges (empty = {1, 0}).
    std::vector<std::vector<std::pair<int, int>>> cond_range(dims_);
    for (int d : grid_dims) {
      if (skeleton.dims[d].strategy != PartitionStrategy::kConditional) {
        continue;
      }
      const CondInfo& info = cond[d];
      int pb = static_cast<int>(info.base_sorted.size());
      int pd = std::max(partitions[d], 1);
      cond_range[d].assign(pb, {0, pd - 1});
      if (!has_eff[d]) continue;
      for (int bp = lo_part[info.base]; bp <= hi_part[info.base]; ++bp) {
        const std::vector<Value>& vec = info.base_sorted[bp];
        if (vec.empty() || eff_hi[d] < vec.front() || eff_lo[d] > vec.back()) {
          cond_range[d][bp] = {1, 0};
          continue;
        }
        int64_t plo = std::lower_bound(vec.begin(), vec.end(), eff_lo[d]) -
                      vec.begin();
        int64_t phi = std::upper_bound(vec.begin(), vec.end(), eff_hi[d]) -
                      vec.begin() - 1;
        if (phi < plo) {
          cond_range[d][bp] = {1, 0};
          continue;
        }
        int size = static_cast<int>(vec.size());
        cond_range[d][bp] = {static_cast<int>(plo * pd / size),
                             static_cast<int>(phi * pd / size)};
      }
    }

    // #cell ranges over every grid dim but the innermost.
    double ranges = 1.0;
    for (size_t j = 0; j + 1 < grid_dims.size(); ++j) {
      int d = grid_dims[j];
      if (skeleton.dims[d].strategy == PartitionStrategy::kIndependent) {
        ranges *= hi_part[d] - lo_part[d] + 1;
      } else {
        const CondInfo& info = cond[d];
        double sum = 0.0;
        int count = 0;
        for (int bp = lo_part[info.base]; bp <= hi_part[info.base]; ++bp) {
          auto [l, h] = cond_range[d][bp];
          sum += h >= l ? h - l + 1 : 0;
          ++count;
        }
        ranges *= count > 0 ? sum / count : 1.0;
      }
      if (ranges > 1e15) break;
    }

    // #scanned points, discounting interior points of exactly-covered
    // cells unless a filtered mapped dimension forces per-row checks.
    const Predicate* sort_filter = query.FilterOn(sort_dim);
    bool has_mapped_filter = false;
    for (int d = 0; d < dims_; ++d) {
      if (skeleton.dims[d].strategy == PartitionStrategy::kMapped &&
          query.FilterOn(d) != nullptr) {
        has_mapped_filter = true;
      }
    }
    int64_t scanned = 0;
    for (int i = 0; i < n_; ++i) {
      bool in = true;
      bool interior = !has_mapped_filter;
      for (int d : grid_dims) {
        int p = std::max(partitions[d], 1);
        int part;
        if (skeleton.dims[d].strategy == PartitionStrategy::kIndependent) {
          part = PartOfRank(rank_[d][i], p);
          if (part < lo_part[d] || part > hi_part[d]) {
            in = false;
            break;
          }
          if (d != sort_dim && query.FilterOn(d) != nullptr &&
              (part == lo_part[d] || part == hi_part[d])) {
            interior = false;
          }
        } else {
          const CondInfo& info = cond[d];
          int pb = static_cast<int>(info.base_sorted.size());
          int bp = PartOfRank(rank_[info.base][i], pb);
          if (bp < lo_part[info.base] || bp > hi_part[info.base]) {
            in = false;
            break;
          }
          auto [l, h] = cond_range[d][bp];
          if (info.dep_part[i] < l || info.dep_part[i] > h) {
            in = false;
            break;
          }
          if (d != sort_dim && query.FilterOn(d) != nullptr &&
              (info.dep_part[i] == l || info.dep_part[i] == h)) {
            interior = false;
          }
        }
      }
      if (in && sort_filter != nullptr &&
          !sort_filter->Matches(vals_[sort_dim][i])) {
        in = false;
      }
      scanned += in && !interior;
    }

    // One scan term per filter at its dimension's estimated code width.
    double scan_ns = 0.0;
    for (const Predicate& p : query.filters) {
      const int d = p.dim;
      double span = -1.0;
      if (d >= 0 && d < dims_ && n_ > 0) {
        if (d == sort_dim) {
          span = local_span_[d];
        } else if (skeleton.dims[d].strategy ==
                   PartitionStrategy::kIndependent) {
          span = full_span_[d] / std::max(partitions[d], 1);
        } else {
          span = full_span_[d];
        }
      }
      scan_ns += weights.ScanCostForSpan(span);
    }
    return weights.w0 * ranges +
           static_cast<double>(scanned) * scale_ * scan_ns;
  }

 private:
  struct CondInfo {
    int base = -1;
    std::vector<int32_t> dep_part;                // Per sample point.
    std::vector<std::vector<Value>> base_sorted;  // Dep values per base part.
  };

  int PartOfRank(int64_t rank, int p) const {
    int idx = static_cast<int>(rank * p / std::max(n_, 1));
    return idx < 0 ? 0 : (idx >= p ? p - 1 : idx);
  }

  int dims_ = 0;
  int n_ = 0;
  int64_t total_rows_ = 0;
  double scale_ = 0.0;
  Workload queries_;
  std::vector<int> sel_order_;
  std::vector<std::vector<Value>> vals_;     // [dim][point].
  std::vector<std::vector<Value>> sorted_;   // [dim], ascending.
  std::vector<std::vector<int32_t>> rank_;   // [dim][point].
  std::vector<std::vector<int32_t>> order_;  // [dim], points by value.
  std::vector<double> local_span_;
  std::vector<double> full_span_;
};

}  // namespace tsunami

#endif  // TSUNAMI_TESTS_COST_ORACLE_H_
