#include "src/baselines/zorder.h"

#include <algorithm>
#include <numeric>

namespace tsunami {

uint64_t MortonEncode(const std::vector<uint32_t>& coords, int bits_per_dim) {
  uint64_t code = 0;
  int dims = static_cast<int>(coords.size());
  for (int j = 0; j < bits_per_dim; ++j) {
    for (int i = 0; i < dims; ++i) {
      uint64_t bit = (coords[i] >> j) & 1u;
      code |= bit << (j * dims + i);
    }
  }
  return code;
}

std::vector<uint32_t> MortonDecode(uint64_t code, int dims, int bits_per_dim) {
  std::vector<uint32_t> coords(dims, 0);
  for (int j = 0; j < bits_per_dim; ++j) {
    for (int i = 0; i < dims; ++i) {
      uint32_t bit = static_cast<uint32_t>((code >> (j * dims + i)) & 1u);
      coords[i] |= bit << j;
    }
  }
  return coords;
}

ZOrderIndex::ZOrderIndex(const Dataset& data, const Options& options)
    : dims_(data.dims()) {
  bits_per_dim_ = options.bits_per_dim > 0
                      ? options.bits_per_dim
                      : std::min(16, dims_ > 0 ? 63 / dims_ : 16);
  bucket_models_.resize(dims_);
  std::vector<Value> column(data.size());
  for (int d = 0; d < dims_; ++d) {
    for (int64_t r = 0; r < data.size(); ++r) column[r] = data.at(r, d);
    bucket_models_[d] = EquiDepthCdf::Build(column, 1 << bits_per_dim_);
  }

  // Sort rows by Morton code of their bucket coordinates.
  int64_t n = data.size();
  std::vector<uint64_t> codes(n);
  std::vector<uint32_t> coords(dims_);
  for (int64_t r = 0; r < n; ++r) {
    for (int d = 0; d < dims_; ++d) {
      coords[d] = BucketOf(d, data.at(r, d));
    }
    codes[r] = MortonEncode(coords, bits_per_dim_);
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](uint32_t a, uint32_t b) { return codes[a] < codes[b]; });
  store_ = ColumnStore(data, perm);

  // Build pages with z-range and per-dimension min/max metadata.
  int64_t page_size = std::max<int64_t>(options.page_size, 1);
  for (int64_t begin = 0; begin < n; begin += page_size) {
    Page page;
    page.begin = begin;
    page.end = std::min(begin + page_size, n);
    page.z_min = codes[perm[begin]];
    page.z_max = codes[perm[page.end - 1]];
    page.min.resize(dims_);
    page.max.resize(dims_);
    for (int d = 0; d < dims_; ++d) {
      Value lo = store_.Get(begin, d), hi = lo;
      for (int64_t r = begin + 1; r < page.end; ++r) {
        Value v = store_.Get(r, d);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      page.min[d] = lo;
      page.max[d] = hi;
    }
    pages_.push_back(std::move(page));
  }
}

uint32_t ZOrderIndex::BucketOf(int dim, Value v) const {
  return static_cast<uint32_t>(
      bucket_models_[dim]->PartitionOf(v, 1 << bits_per_dim_));
}

void ZOrderIndex::PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                            QueryResult* counters) const {
  // Smallest and largest Morton codes inside the query box: codes of the
  // low and high bucket corners (Morton is monotone per coordinate).
  std::vector<uint32_t> lo_corner(dims_, 0);
  std::vector<uint32_t> hi_corner(dims_, (1u << bits_per_dim_) - 1);
  for (const Predicate& p : query.filters) {
    lo_corner[p.dim] = BucketOf(p.dim, p.lo);
    hi_corner[p.dim] = BucketOf(p.dim, p.hi);
  }
  uint64_t z_lo = MortonEncode(lo_corner, bits_per_dim_);
  uint64_t z_hi = MortonEncode(hi_corner, bits_per_dim_);

  // Pages are sorted by z_min; iterate those whose z-range intersects
  // [z_lo, z_hi], skipping pages whose min/max metadata rules them out.
  auto first = std::partition_point(
      pages_.begin(), pages_.end(),
      [&](const Page& page) { return page.z_max < z_lo; });
  for (auto it = first; it != pages_.end() && it->z_min <= z_hi; ++it) {
    bool intersects = true;
    bool exact = true;
    for (const Predicate& p : query.filters) {
      if (it->max[p.dim] < p.lo || it->min[p.dim] > p.hi) {
        intersects = false;
        break;
      }
      if (p.lo > it->min[p.dim] || p.hi < it->max[p.dim]) exact = false;
    }
    if (!intersects) continue;
    ++counters->cell_ranges;
    AppendRangeTask(tasks, RangeTask{it->begin, it->end, exact});
  }
}

int64_t ZOrderIndex::IndexSizeBytes() const {
  int64_t bytes = 0;
  for (const auto& model : bucket_models_) bytes += model->SizeBytes();
  bytes += static_cast<int64_t>(pages_.size()) *
           (sizeof(Page) + 2 * dims_ * sizeof(Value));
  return bytes;
}

}  // namespace tsunami
