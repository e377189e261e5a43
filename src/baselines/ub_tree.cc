#include "src/baselines/ub_tree.h"

#include <algorithm>
#include <numeric>

#include "src/baselines/zorder.h"  // MortonEncode.

namespace tsunami {

namespace {

/// Sets bit `p` of `v` and clears all lower bits of the same dimension:
/// the pattern "1000..." of Tropf-Herzog, applied dimension-locally.
uint64_t Load1000(uint64_t v, int p, int dims) {
  v |= uint64_t{1} << p;
  for (int q = p - dims; q >= 0; q -= dims) v &= ~(uint64_t{1} << q);
  return v;
}

/// Clears bit `p` of `v` and sets all lower bits of the same dimension:
/// the pattern "0111...".
uint64_t Load0111(uint64_t v, int p, int dims) {
  v &= ~(uint64_t{1} << p);
  for (int q = p - dims; q >= 0; q -= dims) v |= uint64_t{1} << q;
  return v;
}

}  // namespace

bool ZBigMin(uint64_t z, uint64_t minz, uint64_t maxz, int dims,
             int bits_per_dim, uint64_t* out) {
  uint64_t bigmin = 0;
  bool found = false;
  for (int p = dims * bits_per_dim - 1; p >= 0; --p) {
    int bits = static_cast<int>((z >> p) & 1) << 2 |
               static_cast<int>((minz >> p) & 1) << 1 |
               static_cast<int>((maxz >> p) & 1);
    switch (bits) {
      case 0b000:
      case 0b111:
        break;  // All agree; continue to the next bit.
      case 0b001:
        // Successor candidate in the upper half; keep searching the lower
        // half for a smaller (lower-bit divergence) successor.
        bigmin = Load1000(minz, p, dims);
        found = true;
        maxz = Load0111(maxz, p, dims);
        break;
      case 0b011:
        // The whole remaining region is above z; its minimum is the answer.
        *out = minz;
        return true;
      case 0b100:
        // The whole remaining region is below z; fall back to the best
        // divergence successor found so far.
        *out = bigmin;
        return found;
      case 0b101:
        minz = Load1000(minz, p, dims);  // Restrict to the upper half.
        break;
      default:
        // 0b010 / 0b110 would mean minz > maxz: malformed box.
        return false;
    }
  }
  // z itself lies in the box; the lowest-bit divergence successor (if any)
  // is the next box address after z.
  *out = bigmin;
  return found;
}

UbTreeIndex::UbTreeIndex(const Dataset& data, const Options& options)
    : dims_(data.dims()) {
  const int64_t n = data.size();
  bits_per_dim_ = options.bits_per_dim > 0
                      ? options.bits_per_dim
                      : std::min(16, dims_ > 0 ? 63 / dims_ : 16);
  bucket_models_.resize(dims_);
  std::vector<Value> column(n);
  for (int d = 0; d < dims_; ++d) {
    for (int64_t r = 0; r < n; ++r) column[r] = data.at(r, d);
    bucket_models_[d] = EquiDepthCdf::Build(column, 1 << 10);
  }

  std::vector<uint64_t> z_of(n);
  std::vector<uint32_t> coords(dims_);
  for (int64_t r = 0; r < n; ++r) {
    for (int d = 0; d < dims_; ++d) coords[d] = BucketOf(d, data.at(r, d));
    z_of[r] = MortonEncode(coords, bits_per_dim_);
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(),
            [&](uint32_t a, uint32_t b) { return z_of[a] < z_of[b]; });
  store_ = ColumnStore(data, perm);

  const int64_t page_size = std::max<int64_t>(options.page_size, 1);
  for (int64_t begin = 0; begin < n; begin += page_size) {
    int64_t end = std::min(begin + page_size, n);
    Page page;
    page.begin = begin;
    page.end = end;
    page.z_min = z_of[perm[begin]];
    page.z_max = z_of[perm[end - 1]];
    pages_.push_back(page);
  }
}

uint32_t UbTreeIndex::BucketOf(int dim, Value v) const {
  return static_cast<uint32_t>(
      bucket_models_[dim]->PartitionOf(v, 1 << bits_per_dim_));
}

void UbTreeIndex::PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                            QueryResult* counters) const {
  if (pages_.empty()) return;
  // Corner Z-addresses of the query box in bucket space.
  std::vector<uint32_t> lo_coords(dims_, 0), hi_coords(dims_, 0);
  for (int d = 0; d < dims_; ++d) {
    hi_coords[d] = (uint32_t{1} << bits_per_dim_) - 1;
  }
  for (const Predicate& p : query.filters) {
    lo_coords[p.dim] = BucketOf(p.dim, p.lo);
    hi_coords[p.dim] = BucketOf(p.dim, p.hi);
  }
  const uint64_t zmin = MortonEncode(lo_coords, bits_per_dim_);
  const uint64_t zmax = MortonEncode(hi_coords, bits_per_dim_);

  // Walk pages in Z order, jumping with BIGMIN past pages whose Z-interval
  // contains no address inside the box.
  uint64_t cur = zmin;  // Next box address we still have to cover.
  size_t i = static_cast<size_t>(
      std::lower_bound(pages_.begin(), pages_.end(), cur,
                       [](const Page& page, uint64_t z) {
                         return page.z_max < z;
                       }) -
      pages_.begin());
  while (i < pages_.size() && pages_[i].z_min <= zmax) {
    const Page& page = pages_[i];
    if (page.z_max < cur) {
      ++i;
      continue;
    }
    if (page.z_min > cur) {
      // Find the next box address at or after page.z_min.
      if (!ZBigMin(page.z_min - 1, zmin, zmax, dims_, bits_per_dim_, &cur)) {
        break;
      }
      if (cur > zmax) break;
      if (cur > page.z_max) {
        ++i;
        continue;  // This Z-region provably holds no box address.
      }
    }
    ++counters->cell_ranges;
    AppendRangeTask(tasks, RangeTask{page.begin, page.end, /*exact=*/false});
    if (page.z_max >= zmax) break;
    if (!ZBigMin(page.z_max, zmin, zmax, dims_, bits_per_dim_, &cur)) break;
    ++i;
  }
}

int64_t UbTreeIndex::IndexSizeBytes() const {
  int64_t bytes = static_cast<int64_t>(pages_.size()) * sizeof(Page);
  for (const auto& model : bucket_models_) {
    if (model != nullptr) bytes += model->SizeBytes();
  }
  return bytes;
}

}  // namespace tsunami
