#include "src/core/cost_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "src/common/index.h"
#include "src/common/stats.h"
#include "src/storage/column_store.h"
#include "src/common/workload_stats.h"

namespace tsunami {

CostWeights CalibrateCostWeights(const ExecContext& ctx) {
  return CalibrateCostWeights(ctx.scan);
}

double PredictPlanNanos(const QueryPlan& plan, const CostWeights& weights) {
  int64_t inexact_rows = 0;
  int64_t exact_rows = 0;
  for (const RangeTask& task : plan.tasks) {
    (task.exact ? exact_rows : inexact_rows) += task.end - task.begin;
  }
  const int filtered =
      static_cast<int>(NormalizedFilters(plan.query).size());
  int agg_cols = 0;
  for (int a = 0; a < plan.query.num_aggs(); ++a) {
    if (plan.query.agg_spec(a).op != AggKind::kCount) ++agg_cols;
  }
  // Inexact rows pay the filter passes; exact rows skip them and pay only
  // the aggregate reads (an exact COUNT range is free, matching the
  // kernel's touch-no-data path).
  double nanos = weights.w0 * static_cast<double>(plan.tasks.size());
  nanos += weights.w1 * static_cast<double>(inexact_rows) *
           static_cast<double>(std::max(filtered, 1));
  nanos += weights.w1 * static_cast<double>(exact_rows) *
           static_cast<double>(agg_cols);
  return nanos;
}

CostWeights CalibrateCostWeights(const ScanOptions& options) {
  CostWeights weights;
  Rng rng(123);
  // Scan-cost probe shared by w1 and the per-width terms: builds a
  // 3-column store over Uniform(0, domain) values — so every block encodes
  // at the code width `domain` implies — and times the *actual* batched
  // kernel over short non-exact ranges at scattered offsets (the access
  // pattern real queries produce), under the caller's scan options, so a
  // forced SIMD tier calibrates the costs that tier actually pays at
  // execution time. Returns ns per (point, filtered dimension).
  auto scan_cost = [&](Value domain, bool encode) -> double {
    const int64_t n = 1 << 20;
    const int kCols = 3;
    Dataset data(kCols, {});
    data.Reserve(n);
    std::vector<Value> row(kCols);
    for (int64_t i = 0; i < n; ++i) {
      for (int c = 0; c < kCols; ++c) row[c] = rng.UniformValue(0, domain);
      data.AppendRow(row);
    }
    ColumnStore store(data, encode);
    Query query;
    for (int c = 0; c < kCols; ++c) {
      // ~2/3 selective per dimension, like the original {1000, 700000}
      // filters over the 2^20 domain.
      query.filters.push_back(
          Predicate{c, domain / 1000, domain - domain / 3});
    }
    const int64_t chunk = 2048;
    std::vector<RangeTask> tasks;
    for (int64_t begin = 0; begin + chunk <= n; begin += 7 * chunk) {
      tasks.push_back(RangeTask{begin, begin + chunk, /*exact=*/false});
    }
    QueryResult result;
    Timer timer;
    store.ScanRanges(tasks, query, &result, options);
    if (result.scanned == 0) return 1.5;
    // Floor at the smallest cost the probe can resolve, one clock tick over
    // the points x dims it scanned, so a fast kernel is not clamped to a
    // fixed constant and a sub-tick run still yields a positive weight.
    const double points = static_cast<double>(result.scanned) * kCols;
    const double tick_ns =
        1e9 * std::chrono::steady_clock::period::num /
        static_cast<double>(std::chrono::steady_clock::period::den);
    return std::max(static_cast<double>(timer.ElapsedNanos()), tick_ns) /
           points;
  };
  // w1: the representative blended term, measured under the deployment's
  // default encoding (so the optimizer trades lookups vs scans at the
  // costs queries actually pay).
  const bool encoding = EncodingEnabledByDefault();
  weights.w1 = scan_cost(1 << 20, encoding);
  // Per-width terms: domains sized so every block narrows to 8/16/32-bit
  // codes. When narrowing is disabled (build define or environment), they
  // stay 0 — ScanCostForSpan falls back to the raw-measured w1, which is
  // what execution pays. The 2^20 domain already narrows to u32, so the
  // w1 probe doubles as the u32 term.
  if (encoding) {
    weights.w1_u8 = scan_cost(250, /*encode=*/true);
    weights.w1_u16 = scan_cost(50000, /*encode=*/true);
    weights.w1_u32 = weights.w1;
  }
  // w0: per-cell-range overhead — a lookup-table access, the cache miss of
  // jumping to a random physical position, and binary-search refinement.
  {
    const int64_t cells = 1 << 20;
    const int64_t heap = 1 << 22;
    std::vector<int64_t> cell_start(cells);
    for (int64_t i = 0; i < cells; ++i) {
      cell_start[i] = rng.NextBelow(heap - 64);
    }
    std::vector<Value> column(heap);
    for (int64_t i = 0; i < heap; ++i) {
      column[i] = rng.UniformValue(0, 1 << 20);
    }
    const int64_t trials = 1 << 17;
    Timer timer;
    int64_t sink = 0;
    for (int64_t i = 0; i < trials; ++i) {
      int64_t slot = rng.NextBelow(cells);
      int64_t begin = cell_start[slot];
      // Binary-search refinement over a short sorted-by-sort-dim run.
      auto it = std::lower_bound(column.begin() + begin,
                                 column.begin() + begin + 64,
                                 static_cast<Value>(1 << 19));
      sink += it - column.begin();
    }
    double ns = static_cast<double>(timer.ElapsedNanos()) / trials;
    if (sink != 1) weights.w0 = std::max(ns, 50.0);
  }
  return weights;
}

GridCostEvaluator::GridCostEvaluator(const Dataset& data,
                                     const std::vector<uint32_t>& rows,
                                     const Workload& queries,
                                     int max_sample_points,
                                     int max_sample_queries, uint64_t seed) {
  dims_ = data.dims();
  total_rows_ = static_cast<int64_t>(rows.size());
  Rng rng(seed);

  // Point sample.
  n_ = static_cast<int>(
      std::min<int64_t>(total_rows_, std::max(max_sample_points, 1)));
  vals_.assign(dims_, std::vector<Value>(n_));
  if (total_rows_ > 0) {
    for (int i = 0; i < n_; ++i) {
      uint32_t row = total_rows_ <= n_
                         ? rows[i]
                         : rows[rng.NextBelow(total_rows_)];
      for (int d = 0; d < dims_; ++d) vals_[d][i] = data.at(row, d);
    }
  }
  scale_ = n_ > 0 ? static_cast<double>(total_rows_) / n_ : 0.0;

  // Per-dimension sort orders and dense ranks.
  sorted_.assign(dims_, {});
  rank_.assign(dims_, std::vector<int32_t>(n_));
  order_.assign(dims_, std::vector<int32_t>(n_));
  for (int d = 0; d < dims_; ++d) {
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

  // Query subsample.
  if (static_cast<int>(queries.size()) <= max_sample_queries) {
    queries_ = queries;
  } else {
    std::vector<int> idx(queries.size());
    std::iota(idx.begin(), idx.end(), 0);
    for (int i = 0; i < max_sample_queries; ++i) {
      std::swap(idx[i], idx[i + rng.NextBelow(idx.size() - i)]);
      queries_.push_back(queries[idx[i]]);
    }
  }

  // Workload statistics for the optimizer heuristics.
  avg_sel_.assign(dims_, 1.0);
  filtered_.assign(dims_, false);
  {
    std::vector<double> sum(dims_, 0.0);
    std::vector<int> cnt(dims_, 0);
    for (const Query& q : queries_) {
      for (const Predicate& p : q.filters) {
        if (p.dim < 0 || p.dim >= dims_) continue;
        filtered_[p.dim] = true;
        // Selectivity from ranks: fraction of sample values inside [lo, hi].
        int64_t rlo = std::lower_bound(sorted_[p.dim].begin(),
                                       sorted_[p.dim].end(), p.lo) -
                      sorted_[p.dim].begin();
        int64_t rhi = std::upper_bound(sorted_[p.dim].begin(),
                                       sorted_[p.dim].end(), p.hi) -
                      sorted_[p.dim].begin();
        sum[p.dim] += n_ > 0 ? static_cast<double>(rhi - rlo) / n_ : 1.0;
        ++cnt[p.dim];
      }
    }
    for (int d = 0; d < dims_; ++d) {
      if (cnt[d] > 0) avg_sel_[d] = sum[d] / cnt[d];
    }
  }
  // Per-dim span estimates for block code widths (see CostWeights): a
  // kScanBlockRows-row window of the full data maps to a window of
  // ~n_ * 1024 / total_rows sorted sample values; average a few evenly
  // spaced windows. Full span is the domain a cell-partitioned dimension
  // divides.
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

  sel_order_.resize(dims_);
  std::iota(sel_order_.begin(), sel_order_.end(), 0);
  std::stable_sort(sel_order_.begin(), sel_order_.end(), [&](int a, int b) {
    if (filtered_[a] != filtered_[b]) return static_cast<bool>(filtered_[a]);
    return avg_sel_[a] < avg_sel_[b];
  });

  corr_.assign(dims_, std::vector<double>(dims_, 0.0));
  for (int x = 0; x < dims_; ++x) {
    corr_[x][x] = 1.0;
    std::vector<double> xs(vals_[x].begin(), vals_[x].end());
    for (int y = x + 1; y < dims_; ++y) {
      std::vector<double> ys(vals_[y].begin(), vals_[y].end());
      double c = PearsonCorrelation(xs, ys);
      corr_[x][y] = c;
      corr_[y][x] = c;
    }
  }
}

const BoundedLinearModel& GridCostEvaluator::FittedFm(int mapped,
                                                      int target) const {
  auto key = std::make_pair(mapped, target);
  auto it = fm_cache_.find(key);
  if (it == fm_cache_.end()) {
    it = fm_cache_
             .emplace(key,
                      BoundedLinearModel::Fit(vals_[mapped], vals_[target]))
             .first;
  }
  return it->second;
}

double GridCostEvaluator::FmErrorBandRatio(int x, int y) const {
  if (n_ == 0) return 1.0;
  const BoundedLinearModel& fm = FittedFm(x, y);
  double domain = static_cast<double>(sorted_[y].back() - sorted_[y].front());
  return fm.ErrorBandWidth() / std::max(domain, 1.0);
}

double GridCostEvaluator::EmptyCellFraction(int x, int y, int g) const {
  if (n_ == 0) return 0.0;
  std::vector<char> occupied(g * g, 0);
  for (int i = 0; i < n_; ++i) {
    occupied[PartOfRank(rank_[x][i], g) * g + PartOfRank(rank_[y][i], g)] = 1;
  }
  int filled = 0;
  for (char c : occupied) filled += c;
  return 1.0 - static_cast<double>(filled) / (g * g);
}

// The query-independent half of a prediction for one (skeleton,
// partitions, sort_dim) candidate: what AugmentedGrid::Build would lay out,
// evaluated on the point sample.
struct GridCostEvaluator::Layout {
  int sort_dim = -1;
  std::vector<int> grid_dims;  // Build's order: sort dim last.
  // Conditional dims ([dim]; base < 0 otherwise): the dependent's sample
  // values per base partition, ascending.
  struct Cond {
    int base = -1;
    std::vector<std::vector<Value>> base_sorted;
  };
  std::vector<Cond> cond;
  // [grid position][point]: the point's partition in that grid dim (for a
  // conditional dim, its dependent partition within its base partition).
  std::vector<std::vector<int32_t>> part;
  // [grid position][point]: the point's base partition; empty unless the
  // grid dim is conditional.
  std::vector<std::vector<int32_t>> base_part;
};

double GridCostEvaluator::Cost(const Skeleton& skeleton,
                               const std::vector<int>& partitions,
                               const CostWeights& weights,
                               int sort_dim) const {
  if (queries_.empty() || n_ == 0) return 0.0;
  const Layout layout = BuildLayout(skeleton, partitions, sort_dim);
  double total = 0.0;
  for (const Query& q : queries_) {
    total += QueryNanos(layout, skeleton, partitions, weights, q);
  }
  return total / queries_.size();
}

double GridCostEvaluator::PredictQueryNanos(const Skeleton& skeleton,
                                            const std::vector<int>& partitions,
                                            const CostWeights& weights,
                                            const Query& query,
                                            int sort_dim) const {
  if (n_ == 0) return 0.0;
  return QueryNanos(BuildLayout(skeleton, partitions, sort_dim), skeleton,
                    partitions, weights, query);
}

GridCostEvaluator::Layout GridCostEvaluator::BuildLayout(
    const Skeleton& skeleton, const std::vector<int>& partitions,
    int sort_dim) const {
  Layout layout;
  // Mirror AugmentedGrid::Build's dimension ordering and sort-dim choice.
  std::vector<int>& grid_dims = layout.grid_dims;
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
  layout.sort_dim = sort_dim;

  // Every sample point's partition in every grid dim, plus the conditional
  // dims' per-base-partition structures.
  layout.cond.assign(dims_, {});
  const int m = static_cast<int>(grid_dims.size());
  layout.part.assign(m, {});
  layout.base_part.assign(m, {});
  for (int j = 0; j < m; ++j) {
    const int d = grid_dims[j];
    const int p = std::max(partitions[d], 1);
    std::vector<int32_t>& part = layout.part[j];
    part.resize(n_);
    if (skeleton.dims[d].strategy == PartitionStrategy::kIndependent) {
      for (int i = 0; i < n_; ++i) part[i] = PartOfRank(rank_[d][i], p);
      continue;
    }
    Layout::Cond& info = layout.cond[d];
    info.base = skeleton.dims[d].other;
    const int pb = std::max(partitions[info.base], 1);
    std::vector<int32_t>& base_part = layout.base_part[j];
    base_part.resize(n_);
    for (int i = 0; i < n_; ++i) {
      base_part[i] = PartOfRank(rank_[info.base][i], pb);
    }
    info.base_sorted.assign(pb, {});
    // Traverse points in ascending dep value; positions within each base
    // bucket are then ascending, giving equi-depth dep partitions.
    for (int32_t i : order_[d]) {
      info.base_sorted[base_part[i]].push_back(vals_[d][i]);
    }
    std::vector<int> cursor(pb, 0);
    for (int32_t i : order_[d]) {
      const int bp = base_part[i];
      const int size = static_cast<int>(info.base_sorted[bp].size());
      part[i] = static_cast<int>(static_cast<int64_t>(cursor[bp]++) * p /
                                 std::max(size, 1));
    }
  }
  return layout;
}

double GridCostEvaluator::QueryNanos(const Layout& layout,
                                     const Skeleton& skeleton,
                                     const std::vector<int>& partitions,
                                     const CostWeights& weights,
                                     const Query& query) const {
  const int sort_dim = layout.sort_dim;
  const std::vector<int>& grid_dims = layout.grid_dims;

  // Effective filters after functional-mapping transforms.
  std::vector<Value> eff_lo(dims_, kValueMin), eff_hi(dims_, kValueMax);
  std::vector<bool> has_eff(dims_, false);
  for (const Predicate& p : query.filters) {
    eff_lo[p.dim] = std::max(eff_lo[p.dim], p.lo);
    eff_hi[p.dim] = std::min(eff_hi[p.dim], p.hi);
    has_eff[p.dim] = true;
  }
  const std::vector<bool> filtered = has_eff;  // Dims the query filters.
  for (int d = 0; d < dims_; ++d) {
    if (skeleton.dims[d].strategy != PartitionStrategy::kMapped) continue;
    const Predicate* p = query.FilterOn(d);
    if (p == nullptr) continue;
    int target = skeleton.dims[d].other;
    auto [x_lo, x_hi] = FittedFm(d, target).MapRange(p->lo, p->hi);
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
    if (skeleton.dims[d].strategy != PartitionStrategy::kIndependent) continue;
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
  // Base partitions outside the base's range hold no candidate cell.
  std::vector<std::vector<std::pair<int, int>>> cond_range(dims_);
  for (int d : grid_dims) {
    if (skeleton.dims[d].strategy != PartitionStrategy::kConditional) continue;
    const Layout::Cond& info = layout.cond[d];
    int pb = static_cast<int>(info.base_sorted.size());
    int pd = std::max(partitions[d], 1);
    cond_range[d].assign(pb, {1, 0});
    for (int bp = lo_part[info.base]; bp <= hi_part[info.base]; ++bp) {
      cond_range[d][bp] = {0, pd - 1};
      if (!has_eff[d]) continue;
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

  // #cell ranges: product of partition extents over all grid dims except
  // the innermost (runs merge along the sort dimension). Conditional dims
  // contribute their average extent over the base's intersecting partitions.
  double ranges = 1.0;
  for (size_t j = 0; j + 1 < grid_dims.size(); ++j) {
    int d = grid_dims[j];
    if (skeleton.dims[d].strategy == PartitionStrategy::kIndependent) {
      ranges *= hi_part[d] - lo_part[d] + 1;
    } else {
      const Layout::Cond& info = layout.cond[d];
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

  // #scanned points: sample points inside the intersecting cells that also
  // survive the sort-dimension binary-search refinement. Points whose
  // partitions are strictly interior to every filtered dimension's
  // partition range sit in exactly-covered cells: the exact-range scan
  // optimization (§6.1) skips checking them, so they are discounted —
  // unless a filtered mapped dimension forces per-row checks everywhere.
  // A point's partition must fall in its grid dim's range: fixed for an
  // independent dim, looked up by the point's base partition for a
  // conditional one.
  bool has_mapped_filter = false;
  for (int d = 0; d < dims_; ++d) {
    if (skeleton.dims[d].strategy == PartitionStrategy::kMapped &&
        filtered[d]) {
      has_mapped_filter = true;
    }
  }
  const int m = static_cast<int>(grid_dims.size());
  std::vector<std::pair<int, int>> range(m);
  std::vector<char> boundary(m);
  for (int j = 0; j < m; ++j) {
    const int d = grid_dims[j];
    range[j] = {lo_part[d], hi_part[d]};
    boundary[j] = d != sort_dim && filtered[d];
  }
  const Predicate* sort_filter = query.FilterOn(sort_dim);
  int64_t scanned = 0;
  for (int i = 0; i < n_; ++i) {
    bool in = true;
    bool interior = !has_mapped_filter;
    for (int j = 0; j < m; ++j) {
      const int part = layout.part[j][i];
      const auto [l, h] =
          layout.base_part[j].empty()
              ? range[j]
              : cond_range[grid_dims[j]][layout.base_part[j][i]];
      if (part < l || part > h) {
        in = false;
        break;
      }
      if (boundary[j] && (part == l || part == h)) interior = false;
    }
    if (in && sort_filter != nullptr &&
        !sort_filter->Matches(vals_[sort_dim][i])) {
      in = false;
    }
    // Interior points of exactly-covered cells cost (almost) nothing.
    scanned += in && !interior;
  }

  // Scan cost per point: one term per filter, at the cost of the filtered
  // dimension's estimated block code width under this layout — the sort
  // dimension's blocks span a 1024-row window of its sorted order, other
  // grid dimensions span about one cell, mapped/conditional dimensions
  // stay conservative at the full domain. Uncalibrated weights collapse
  // every term to w1, reproducing the original
  // w1 * scanned * #filtered-dims formula exactly.
  double scan_ns = 0.0;
  for (const Predicate& p : query.filters) {
    const int d = p.dim;
    double span = -1.0;  // Unknown: ScanCostForSpan falls back to w1.
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

}  // namespace tsunami
