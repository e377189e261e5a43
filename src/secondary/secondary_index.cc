#include "src/secondary/secondary_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>

namespace tsunami {

namespace {

/// Sort permutation by `dim`, ties broken by original row order.
std::vector<uint32_t> SortPermByDim(const Dataset& data, int dim) {
  std::vector<uint32_t> perm(data.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return data.at(a, dim) < data.at(b, dim);
  });
  return perm;
}

/// Runs `loop(std::true_type{})` while some column of `store` has a
/// quarantined or unverified block, the only case in which a probed row
/// can fail the integrity gate, and `loop(std::false_type{})` otherwise:
/// the probe loops are compiled once per case, so a fully readable store
/// probes without a per-row check.
template <typename Loop>
void WithRowGate(const ColumnStore& store, const Loop& loop) {
  for (int d = 0; d < store.dims(); ++d) {
    if (!store.encoded(d).AllBlocksReadable()) return loop(std::true_type{});
  }
  loop(std::false_type{});
}

/// Probes one physical row against every filter, accumulating on match.
/// Each probe is a random access into the host store — the "pointer
/// chasing" cost of secondary indexes (§1) — so it also counts one range.
/// With `gate`, the row passes the integrity gate a scan of its block
/// would: a row in a block quarantined in any column the query reads is
/// skipped, not scanned, and flags the result degraded.
template <typename Gate>
void ProbeRow(const ColumnStore& store, int64_t row, const Query& query,
              Gate gate, QueryResult* out) {
  ++out->cell_ranges;
  if (gate && !store.kernel().BlockReadable(row / kScanBlockRows, query,
                                            /*exact=*/false, out)) {
    return;
  }
  ++out->scanned;
  for (const Predicate& p : query.filters) {
    Value v = store.Get(row, p.dim);
    if (v < p.lo || v > p.hi) return;
  }
  ++out->matched;
  for (int a = 0; a < query.num_aggs(); ++a) {
    const AggregateSpec spec = query.agg_spec(a);
    AccumulateAgg(spec.op,
                  spec.op == AggKind::kCount ? 0 : store.Get(row, spec.column),
                  out->agg_accumulator(a));
  }
}

/// Plans the scan bounded by the host filter when present, else the whole
/// store, as a RangeTask batch (of one) — the same ScanBatch seam the grid
/// and baselines execute.
QueryPlan PlanHostScan(const ColumnStore& store, int host_dim,
                       const Query& query) {
  QueryPlan plan;
  plan.query = query;
  plan.counters = InitResult(query);
  int64_t begin = 0, end = store.size();
  if (const Predicate* p = query.FilterOn(host_dim)) {
    begin = store.LowerBound(host_dim, 0, store.size(), p->lo);
    end = store.UpperBound(host_dim, begin, store.size(), p->hi);
  }
  if (begin < end) {
    plan.counters.cell_ranges = 1;
    plan.tasks.push_back(RangeTask{begin, end, /*exact=*/false});
  }
  return plan;
}

/// Serial execution of a host-scan plan (the legacy Execute path).
QueryResult HostScan(const ColumnStore& store, int host_dim,
                     const Query& query) {
  QueryPlan plan = PlanHostScan(store, host_dim, query);
  QueryResult result = plan.counters;
  store.ScanRanges(plan.tasks, query, &result);
  return result;
}

}  // namespace

SortedSecondaryIndex::SortedSecondaryIndex(const Dataset& data, int host_dim,
                                           int key_dim)
    : host_dim_(host_dim), key_dim_(key_dim) {
  store_ = ColumnStore(data, SortPermByDim(data, host_dim));
  int64_t n = store_.size();
  rows_.resize(n);
  std::iota(rows_.begin(), rows_.end(), 0u);
  // Build-time materialization: the key sort needs random access to the
  // whole column, which the encoded store serves as a decoded copy.
  const std::vector<Value> key_col = store_.DecodeColumn(key_dim_);
  std::stable_sort(rows_.begin(), rows_.end(), [&](uint32_t a, uint32_t b) {
    return key_col[a] < key_col[b];
  });
  keys_.resize(n);
  for (int64_t i = 0; i < n; ++i) keys_[i] = key_col[rows_[i]];
}

QueryPlan SortedSecondaryIndex::Prepare(const Query& query) const {
  if (query.FilterOn(key_dim_) != nullptr) {
    // Probe path: row-id chasing has no contiguous ranges to plan, so the
    // plan carries no tasks and FinishPlan runs the probes.
    QueryPlan plan;
    plan.query = query;
    plan.counters = InitResult(query);
    return plan;
  }
  return PlanHostScan(store_, host_dim_, query);
}

void SortedSecondaryIndex::FinishPlan(const QueryPlan& plan,
                                      QueryResult* result) const {
  if (plan.query.FilterOn(key_dim_) != nullptr) ProbeKeys(plan.query, result);
}

QueryResult SortedSecondaryIndex::Execute(const Query& query) const {
  if (query.FilterOn(key_dim_) == nullptr) {
    return HostScan(store_, host_dim_, query);
  }
  // Probes without building a plan, which would copy the query per call.
  QueryResult result = InitResult(query);
  ProbeKeys(query, &result);
  return result;
}

void SortedSecondaryIndex::ProbeKeys(const Query& query,
                                     QueryResult* out) const {
  const Predicate* key_filter = query.FilterOn(key_dim_);
  auto first = std::lower_bound(keys_.begin(), keys_.end(), key_filter->lo);
  auto last = std::upper_bound(first, keys_.end(), key_filter->hi);
  WithRowGate(store_, [&](auto gate) {
    for (auto it = first; it != last; ++it) {
      ProbeRow(store_, rows_[it - keys_.begin()], query, gate, out);
    }
  });
}

int64_t SortedSecondaryIndex::IndexSizeBytes() const {
  return static_cast<int64_t>(keys_.size()) *
         (sizeof(Value) + sizeof(uint32_t));
}

CorrelationSecondaryIndex::CorrelationSecondaryIndex(const Dataset& data,
                                                     int host_dim,
                                                     int key_dim,
                                                     const Options& options)
    : host_dim_(host_dim), key_dim_(key_dim) {
  store_ = ColumnStore(data, SortPermByDim(data, host_dim));
  int64_t n = store_.size();
  if (n == 0) return;
  const std::vector<Value> key_col = store_.DecodeColumn(key_dim_);
  const std::vector<Value> host_col = store_.DecodeColumn(host_dim_);

  // Equi-depth segmentation of the key domain.
  std::vector<uint32_t> by_key(n);
  std::iota(by_key.begin(), by_key.end(), 0u);
  std::stable_sort(by_key.begin(), by_key.end(), [&](uint32_t a, uint32_t b) {
    return key_col[a] < key_col[b];
  });
  int segments = std::max(1, std::min<int>(options.segments,
                                           static_cast<int>(n / 8 + 1)));
  std::vector<int64_t> seg_begin;
  for (int s = 0; s < segments; ++s) {
    int64_t begin = s * n / segments;
    // Segment boundaries must not split equal keys: a key value belongs to
    // exactly one segment so query routing stays unambiguous.
    if (s > 0) {
      Value boundary = key_col[by_key[begin]];
      while (begin > seg_begin.back() &&
             key_col[by_key[begin - 1]] == boundary) {
        --begin;
      }
      if (begin <= seg_begin.back()) continue;
    }
    seg_begin.push_back(begin);
  }
  seg_begin.push_back(n);

  std::vector<Value> seg_keys, seg_hosts;
  for (size_t s = 0; s + 1 < seg_begin.size(); ++s) {
    int64_t begin = seg_begin[s], end = seg_begin[s + 1];
    seg_keys.clear();
    seg_hosts.clear();
    for (int64_t i = begin; i < end; ++i) {
      seg_keys.push_back(key_col[by_key[i]]);
      seg_hosts.push_back(host_col[by_key[i]]);
    }
    BoundedLinearModel robust =
        BoundedLinearModel::FitRobust(seg_keys, seg_hosts);

    // Residual quantile fence: rows far outside the robust fit become
    // outliers when evicting them tightens the band enough to pay off.
    std::vector<long double> residuals(seg_keys.size());
    for (size_t i = 0; i < seg_keys.size(); ++i) {
      residuals[i] = static_cast<long double>(seg_hosts[i]) -
                     robust.PredictL(seg_keys[i]);
    }
    std::vector<long double> sorted = residuals;
    std::sort(sorted.begin(), sorted.end());
    size_t cut = static_cast<size_t>(
        options.outlier_fraction * static_cast<double>(sorted.size()));
    long double fence_lo = sorted[cut];
    long double fence_hi = sorted[sorted.size() - 1 - cut];
    long double full_band = sorted.back() - sorted.front();
    long double fenced_band = fence_hi - fence_lo;
    bool use_fence = cut > 0 && fenced_band > 0 &&
                     full_band >= options.min_shrink * fenced_band;

    // Refit the bounds on inliers only; fenced-out rows go to the buffer.
    std::vector<Value> in_keys, in_hosts;
    for (size_t i = 0; i < seg_keys.size(); ++i) {
      bool inlier = !use_fence ||
                    (residuals[i] >= fence_lo && residuals[i] <= fence_hi);
      if (inlier) {
        in_keys.push_back(seg_keys[i]);
        in_hosts.push_back(seg_hosts[i]);
      } else {
        outliers_.push_back(by_key[begin + static_cast<int64_t>(i)]);
      }
    }
    BoundedLinearModel model =
        in_keys.size() >= 2 ? BoundedLinearModel::Fit(in_keys, in_hosts)
                            : robust;
    Segment seg;
    seg.key_lo = seg_keys.front();
    seg.key_hi = seg_keys.back();
    segments_.push_back(seg);
    models_.push_back(model);
  }
  std::sort(outliers_.begin(), outliers_.end());
}

QueryPlan CorrelationSecondaryIndex::Prepare(const Query& query) const {
  const Predicate* key_filter = query.FilterOn(key_dim_);
  if (key_filter == nullptr || segments_.empty()) {
    return PlanHostScan(store_, host_dim_, query);
  }
  QueryPlan plan;
  plan.query = query;
  plan.counters = InitResult(query);

  // Map the key range through each overlapping segment's model. The host
  // ranges of different segments can overlap arbitrarily (and are not even
  // ordered when the correlation is negative), so merge before scanning to
  // keep every row counted exactly once.
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (size_t s = 0; s < segments_.size(); ++s) {
    if (segments_[s].key_hi < key_filter->lo ||
        segments_[s].key_lo > key_filter->hi) {
      continue;
    }
    Value lo = std::max(segments_[s].key_lo, key_filter->lo);
    Value hi = std::min(segments_[s].key_hi, key_filter->hi);
    auto [host_lo, host_hi] = models_[s].MapRange(lo, hi);
    int64_t begin = store_.LowerBound(host_dim_, 0, store_.size(), host_lo);
    int64_t end = store_.UpperBound(host_dim_, begin, store_.size(), host_hi);
    if (begin < end) ranges.emplace_back(begin, end);
  }
  std::sort(ranges.begin(), ranges.end());
  for (const auto& r : ranges) {
    if (!plan.tasks.empty() && r.first <= plan.tasks.back().end) {
      plan.tasks.back().end = std::max(plan.tasks.back().end, r.second);
    } else {
      plan.tasks.push_back(RangeTask{r.first, r.second, /*exact=*/false});
    }
  }
  plan.counters.cell_ranges += static_cast<int64_t>(plan.tasks.size());
  return plan;
}

void CorrelationSecondaryIndex::FinishPlan(const QueryPlan& plan,
                                           QueryResult* result) const {
  const Query& query = plan.query;
  const Predicate* key_filter = query.FilterOn(key_dim_);
  if (key_filter == nullptr || segments_.empty()) return;

  // Outliers live outside their segment's model band, but the band of
  // *another* segment may still cover them — probe only rows no scanned
  // range (the plan's merged, sorted tasks) already visited. Depends on
  // the plan alone, not on how the scans were chunked, so any executor of
  // the plan (base ExecutePlan, QueryService) runs it after the scans.
  auto covered = [&](int64_t row) {
    auto it = std::upper_bound(
        plan.tasks.begin(), plan.tasks.end(), row,
        [](int64_t r, const RangeTask& range) { return r < range.begin; });
    return it != plan.tasks.begin() && row < (it - 1)->end;
  };
  const EncodedColumn& keys = store_.encoded(key_dim_);
  WithRowGate(store_, [&](auto gate) {
    for (uint32_t row : outliers_) {
      // A key in a quarantined block cannot rule its row out: ProbeRow
      // skips such a row and flags the result degraded.
      if (!gate || keys.EnsureReadable(row / kScanBlockRows)) {
        Value key = keys.Get(row);
        if (key < key_filter->lo || key > key_filter->hi) continue;
      }
      if (covered(row)) continue;
      ProbeRow(store_, row, query, gate, result);
    }
  });
}

QueryResult CorrelationSecondaryIndex::Execute(const Query& query) const {
  ExecContext ctx;
  return ExecutePlan(Prepare(query), ctx);
}

int64_t CorrelationSecondaryIndex::IndexSizeBytes() const {
  return static_cast<int64_t>(segments_.size()) *
             (2 * sizeof(Value) + BoundedLinearModel::kSizeBytes) +
         static_cast<int64_t>(outliers_.size()) * sizeof(uint32_t);
}

}  // namespace tsunami
