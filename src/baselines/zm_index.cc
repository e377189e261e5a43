#include "src/baselines/zm_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/baselines/zorder.h"

namespace tsunami {

ZmIndex::ZmIndex(const Dataset& data, const Options& options)
    : dims_(data.dims()), num_rows_(data.size()) {
  bits_per_dim_ = options.bits_per_dim > 0
                      ? options.bits_per_dim
                      : std::min(16, dims_ > 0 ? 63 / dims_ : 16);
  bucket_models_.resize(dims_);
  std::vector<Value> column(data.size());
  for (int d = 0; d < dims_; ++d) {
    for (int64_t r = 0; r < data.size(); ++r) column[r] = data.at(r, d);
    bucket_models_[d] = EquiDepthCdf::Build(column, options.cdf_knots);
  }

  // Sort rows by Morton code of their bucket coordinates.
  int64_t n = data.size();
  std::vector<uint64_t> codes(n);
  std::vector<uint32_t> coords(dims_);
  for (int64_t r = 0; r < n; ++r) {
    for (int d = 0; d < dims_; ++d) {
      coords[d] = static_cast<uint32_t>(
          bucket_models_[d]->PartitionOf(data.at(r, d), 1 << bits_per_dim_));
    }
    codes[r] = MortonEncode(coords, bits_per_dim_);
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](uint32_t a, uint32_t b) { return codes[a] < codes[b]; });
  store_ = ColumnStore(data, perm);

  // Learn position from Z-address (codes fit in 63 bits, so the signed
  // Value domain holds them) and record the worst-case prediction error.
  if (n > 0) {
    std::vector<Value> sorted_codes(n);
    for (int64_t i = 0; i < n; ++i) {
      sorted_codes[i] = static_cast<Value>(codes[perm[i]]);
    }
    rmi_ = RmiCdf::Build(sorted_codes, options.rmi_leaves);
    for (int64_t i = 0; i < n; ++i) {
      int64_t predicted = static_cast<int64_t>(
          rmi_->Cdf(sorted_codes[i]) * static_cast<double>(n));
      max_error_ = std::max(max_error_, std::abs(predicted - i));
    }
  }
}

uint32_t ZmIndex::BucketOf(int dim, Value v) const {
  return static_cast<uint32_t>(
      bucket_models_[dim]->PartitionOf(v, 1 << bits_per_dim_));
}

uint64_t ZmIndex::CodeOfRow(int64_t row) const {
  std::vector<uint32_t> coords(dims_);
  for (int d = 0; d < dims_; ++d) {
    coords[d] = BucketOf(d, store_.Get(row, d));
  }
  return MortonEncode(coords, bits_per_dim_);
}

int64_t ZmIndex::LowerBound(int64_t lo, int64_t hi, uint64_t z) const {
  while (lo < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    if (CodeOfRow(mid) < z) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void ZmIndex::PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                        QueryResult* counters) const {
  if (num_rows_ == 0) return;

  // Z-address range of the query box: codes of its low and high bucket
  // corners (Morton is monotone per coordinate).
  std::vector<uint32_t> lo_corner(dims_, 0);
  std::vector<uint32_t> hi_corner(dims_, (1u << bits_per_dim_) - 1);
  for (const Predicate& p : query.filters) {
    lo_corner[p.dim] = BucketOf(p.dim, p.lo);
    hi_corner[p.dim] = BucketOf(p.dim, p.hi);
  }
  uint64_t z_lo = MortonEncode(lo_corner, bits_per_dim_);
  uint64_t z_hi = MortonEncode(hi_corner, bits_per_dim_);

  // Predict the position range, widen by the model's worst-case error,
  // then last-mile binary search to the exact boundaries.
  auto predict = [&](uint64_t z) {
    return static_cast<int64_t>(rmi_->Cdf(static_cast<Value>(z)) *
                                static_cast<double>(num_rows_));
  };
  int64_t begin_lo =
      std::clamp<int64_t>(predict(z_lo) - max_error_ - 1, 0, num_rows_);
  int64_t begin_hi =
      std::clamp<int64_t>(predict(z_lo) + max_error_ + 1, 0, num_rows_);
  int64_t begin = LowerBound(begin_lo, begin_hi, z_lo);

  // `z_hi + 1` can leave the signed Value domain when every code bit is
  // set; the suffix is then the whole tail of the table.
  int64_t end = num_rows_;
  uint64_t max_code = MortonEncode(
      std::vector<uint32_t>(dims_, (1u << bits_per_dim_) - 1), bits_per_dim_);
  if (z_hi < max_code) {
    int64_t end_lo =
        std::clamp<int64_t>(predict(z_hi + 1) - max_error_ - 1, 0, num_rows_);
    int64_t end_hi =
        std::clamp<int64_t>(predict(z_hi + 1) + max_error_ + 1, 0, num_rows_);
    end = LowerBound(end_lo, end_hi, z_hi + 1);
  }

  if (begin >= end) return;
  ++counters->cell_ranges;
  AppendRangeTask(tasks, RangeTask{begin, end, /*exact=*/false});
}

int64_t ZmIndex::IndexSizeBytes() const {
  int64_t bytes = rmi_ ? rmi_->SizeBytes() : 0;
  for (const auto& model : bucket_models_) bytes += model->SizeBytes();
  return bytes + sizeof(max_error_);
}

}  // namespace tsunami
