#include "src/core/augmented_grid.h"

#include <algorithm>
#include <cassert>

namespace tsunami {
namespace {

// Intersects the inclusive range [lo2, hi2] into [*lo, *hi].
void IntersectRange(Value lo2, Value hi2, Value* lo, Value* hi) {
  *lo = std::max(*lo, lo2);
  *hi = std::min(*hi, hi2);
}

}  // namespace

AugmentedGrid::AugmentedGrid(const AugmentedGrid& other) { *this = other; }

AugmentedGrid& AugmentedGrid::operator=(const AugmentedGrid& other) {
  if (this == &other) return *this;
  dims_ = other.dims_;
  num_rows_ = other.num_rows_;
  grid_rows_ = other.grid_rows_;
  skeleton_ = other.skeleton_;
  partitions_ = other.partitions_;
  grid_dims_ = other.grid_dims_;
  strides_ = other.strides_;
  sort_dim_ = other.sort_dim_;
  num_cells_ = other.num_cells_;
  models_.clear();
  models_.reserve(other.models_.size());
  for (const auto& model : other.models_) {
    models_.push_back(model != nullptr
                          ? std::make_unique<EquiDepthCdf>(*model)
                          : nullptr);
  }
  ccdfs_ = other.ccdfs_;
  fms_ = other.fms_;
  part_min_ = other.part_min_;
  part_max_ = other.part_max_;
  dim_min_ = other.dim_min_;
  dim_max_ = other.dim_max_;
  cell_start_ = other.cell_start_;
  store_ = other.store_;
  base_ = other.base_;
  return *this;
}

void AugmentedGrid::Build(const Dataset& data, std::vector<uint32_t>* rows,
                          const Skeleton& skeleton,
                          std::vector<int> partitions,
                          const BuildOptions& options) {
  dims_ = data.dims();
  num_rows_ = static_cast<int64_t>(rows->size());
  skeleton_ = skeleton;
  assert(skeleton_.num_dims() == dims_);
  assert(skeleton_.Validate());

  partitions.resize(dims_, 1);
  for (int d = 0; d < dims_; ++d) {
    partitions[d] = std::max(partitions[d], 1);
    if (skeleton_.dims[d].strategy == PartitionStrategy::kMapped) {
      partitions[d] = 1;
    }
  }
  partitions_ = std::move(partitions);

  // §8 extension: pull functional-mapping outliers out of the grid. One
  // extreme row can blow up a mapping's error band; rows outside the
  // residual quantile band move to a trailing buffer that every query
  // scans, and the mappings are refit on the inliers.
  grid_rows_ = num_rows_;
  if (options.fm_outlier_fraction > 0.0 && skeleton_.NumMapped() > 0 &&
      num_rows_ >= 64) {
    std::vector<char> is_outlier(num_rows_, 0);
    std::vector<long double> resid(num_rows_);
    for (int d = 0; d < dims_; ++d) {
      if (skeleton_.dims[d].strategy != PartitionStrategy::kMapped) continue;
      int target = skeleton_.dims[d].other;
      std::vector<Value> ys(num_rows_), xs(num_rows_);
      for (int64_t i = 0; i < num_rows_; ++i) {
        ys[i] = data.at((*rows)[i], d);
        xs[i] = data.at((*rows)[i], target);
      }
      BoundedLinearModel fit = BoundedLinearModel::FitRobust(ys, xs);
      for (int64_t i = 0; i < num_rows_; ++i) {
        resid[i] = static_cast<long double>(xs[i]) - fit.PredictL(ys[i]);
      }
      // Robust fence: residuals far outside the central 90% band are
      // outliers. A fixed fence multiple keeps clean data untouched while
      // catching arbitrarily extreme rows. The two quantiles are order
      // statistics, so two selections find them without a full sort: after
      // the first, everything from k05 on is >= q05, and q95 is the
      // (k95 - k05)-th smallest of that tail.
      std::vector<long double> sel = resid;
      const int64_t k05 = num_rows_ / 20;
      const int64_t k95 = num_rows_ - 1 - num_rows_ / 20;
      std::nth_element(sel.begin(), sel.begin() + k05, sel.end());
      std::nth_element(sel.begin() + k05, sel.begin() + k95, sel.end());
      long double q05 = sel[k05];
      long double q95 = sel[k95];
      long double scale = std::max(q95 - q05, 1.0L);
      long double fence_lo = q05 - 8 * scale;
      long double fence_hi = q95 + 8 * scale;
      int64_t marked = 0;
      for (int64_t i = 0; i < num_rows_; ++i) {
        marked += resid[i] < fence_lo || resid[i] > fence_hi;
      }
      // Too many "outliers" means the correlation is just loose; buffering
      // would not tighten anything worth the extra scans.
      int64_t cap = std::max<int64_t>(
          1, static_cast<int64_t>(
                 std::max(options.fm_outlier_fraction * 20, 0.001) *
                 num_rows_));
      if (marked == 0 || marked > cap) continue;
      for (int64_t i = 0; i < num_rows_; ++i) {
        if (resid[i] < fence_lo || resid[i] > fence_hi) is_outlier[i] = 1;
      }
    }
    // Stable partition by position: inliers first, outliers at the end.
    std::vector<uint32_t> reordered;
    reordered.reserve(num_rows_);
    for (int64_t i = 0; i < num_rows_; ++i) {
      if (!is_outlier[i]) reordered.push_back((*rows)[i]);
    }
    grid_rows_ = static_cast<int64_t>(reordered.size());
    for (int64_t i = 0; i < num_rows_; ++i) {
      if (is_outlier[i]) reordered.push_back((*rows)[i]);
    }
    *rows = std::move(reordered);
  }

  // Region bounds (used for mapped-dimension coverage checks). Computed
  // in one pass over the grid (inlier) rows, reading each row's values
  // together; the outlier buffer is scanned with full per-row checks, so it
  // needs no bounds.
  dim_min_.assign(dims_, 0);
  dim_max_.assign(dims_, 0);
  if (grid_rows_ > 0) {
    for (int d = 0; d < dims_; ++d) {
      dim_min_[d] = dim_max_[d] = data.at((*rows)[0], d);
    }
    for (int64_t i = 1; i < grid_rows_; ++i) {
      const uint32_t row = (*rows)[i];
      for (int d = 0; d < dims_; ++d) {
        const Value v = data.at(row, d);
        dim_min_[d] = std::min(dim_min_[d], v);
        dim_max_[d] = std::max(dim_max_[d], v);
      }
    }
  }

  // Grid dimension order: independents (bases included) first, then
  // conditionals — a conditional's base always precedes it — with the sort
  // dimension moved to the end so that runs along it are sorted and can be
  // refined by binary search.
  std::vector<int> indep_dims, cond_dims;
  for (int d = 0; d < dims_; ++d) {
    switch (skeleton_.dims[d].strategy) {
      case PartitionStrategy::kIndependent:
        indep_dims.push_back(d);
        break;
      case PartitionStrategy::kConditional:
        cond_dims.push_back(d);
        break;
      case PartitionStrategy::kMapped:
        break;
    }
  }
  grid_dims_ = indep_dims;
  grid_dims_.insert(grid_dims_.end(), cond_dims.begin(), cond_dims.end());

  // Sort-dimension candidates: grid dims that are not a base of any
  // conditional (a base must stay outer in the odometer).
  sort_dim_ = -1;
  auto is_candidate = [&](int d) {
    return std::find(grid_dims_.begin(), grid_dims_.end(), d) !=
               grid_dims_.end() &&
           !skeleton_.IsBase(d);
  };
  if (options.sort_dim >= 0 && is_candidate(options.sort_dim)) {
    sort_dim_ = options.sort_dim;
  } else {
    for (int d : options.selectivity_order) {
      if (is_candidate(d)) {
        sort_dim_ = d;
        break;
      }
    }
    if (sort_dim_ < 0) {
      for (auto it = grid_dims_.rbegin(); it != grid_dims_.rend(); ++it) {
        if (is_candidate(*it)) {
          sort_dim_ = *it;
          break;
        }
      }
    }
  }
  if (sort_dim_ < 0) sort_dim_ = grid_dims_.back();  // All grid dims are
                                                     // bases: degenerate but
                                                     // still correct (no
                                                     // refinement benefit).
  grid_dims_.erase(std::find(grid_dims_.begin(), grid_dims_.end(), sort_dim_));
  grid_dims_.push_back(sort_dim_);

  // Enforce the cell cap by repeatedly halving the largest partition count.
  auto total_cells = [&]() {
    int64_t cells = 1;
    for (int d : grid_dims_) {
      if (cells > options.max_cells) break;
      cells *= partitions_[d];
    }
    return cells;
  };
  while (total_cells() > options.max_cells) {
    int largest = grid_dims_[0];
    for (int d : grid_dims_) {
      if (partitions_[d] > partitions_[largest]) largest = d;
    }
    partitions_[largest] = std::max(partitions_[largest] / 2, 1);
  }

  int m = static_cast<int>(grid_dims_.size());
  strides_.assign(m, 1);
  for (int j = m - 2; j >= 0; --j) {
    strides_[j] = strides_[j + 1] * partitions_[grid_dims_[j + 1]];
  }
  num_cells_ = strides_[0] * partitions_[grid_dims_[0]];

  // Per-dimension structures and per-row partition indices.
  models_.clear();
  models_.resize(dims_);
  ccdfs_.assign(dims_, ConditionalCdf());
  fms_.assign(dims_, BoundedLinearModel());
  part_min_.assign(dims_, {});
  part_max_.assign(dims_, {});
  std::vector<std::vector<int32_t>> row_parts(dims_);

  std::vector<Value> vals(grid_rows_);
  for (int d : indep_dims) {
    int p = partitions_[d];
    for (int64_t i = 0; i < grid_rows_; ++i) vals[i] = data.at((*rows)[i], d);
    std::vector<Value> sorted = vals;
    std::sort(sorted.begin(), sorted.end());
    // ~2 knots per partition keeps partitions balanced while keeping the
    // model compact (the paper's RMIs are similarly small).
    int knots = std::clamp(2 * p, 16, 128);
    models_[d] = EquiDepthCdf::BuildFromSorted(sorted, knots);
    row_parts[d].resize(grid_rows_);
    part_min_[d].assign(p, kValueMax);
    part_max_[d].assign(p, kValueMin);
    for (int64_t i = 0; i < grid_rows_; ++i) {
      int idx = models_[d]->PartitionOf(vals[i], p);
      row_parts[d][i] = idx;
      part_min_[d][idx] = std::min(part_min_[d][idx], vals[i]);
      part_max_[d][idx] = std::max(part_max_[d][idx], vals[i]);
    }
  }
  for (int d = 0; d < dims_; ++d) {
    if (skeleton_.dims[d].strategy != PartitionStrategy::kMapped) continue;
    int target = skeleton_.dims[d].other;
    std::vector<Value> ys(grid_rows_), xs(grid_rows_);
    for (int64_t i = 0; i < grid_rows_; ++i) {
      ys[i] = data.at((*rows)[i], d);
      xs[i] = data.at((*rows)[i], target);
    }
    fms_[d] = BoundedLinearModel::Fit(ys, xs);
  }
  for (int d : cond_dims) {
    int base = skeleton_.dims[d].other;
    ccdfs_[d] = ConditionalCdf::Build(
        grid_rows_, partitions_[base], partitions_[d],
        [&](int64_t i) { return static_cast<int>(row_parts[base][i]); },
        [&](int64_t i) { return data.at((*rows)[i], d); });
    row_parts[d].resize(grid_rows_);
    for (int64_t i = 0; i < grid_rows_; ++i) {
      row_parts[d][i] =
          ccdfs_[d].PartitionOf(row_parts[base][i], data.at((*rows)[i], d));
    }
  }

  // Cell id and sort-dimension value per grid row, gathered next to the
  // row id; sort the inlier prefix by (cell, sort value) — the outlier
  // buffer keeps its position at the tail. Sorting the gathered entries
  // makes every comparison the (cell, value) comparison of the rows they
  // carry, so std::sort moves them exactly as it would sort row indices by
  // those keys, without a random read into the dataset per comparison.
  struct SortEntry {
    int64_t cell;
    Value value;
    uint32_t row;
  };
  std::vector<SortEntry> entries(grid_rows_);
  for (int64_t i = 0; i < grid_rows_; ++i) {
    int64_t c = 0;
    for (int j = 0; j < m; ++j) {
      c += static_cast<int64_t>(row_parts[grid_dims_[j]][i]) * strides_[j];
    }
    entries[i] = SortEntry{c, data.at((*rows)[i], sort_dim_), (*rows)[i]};
  }
  std::vector<std::vector<int32_t>>().swap(row_parts);
  std::sort(entries.begin(), entries.end(),
            [](const SortEntry& a, const SortEntry& b) {
              if (a.cell != b.cell) return a.cell < b.cell;
              return a.value < b.value;
            });
  for (int64_t i = 0; i < grid_rows_; ++i) (*rows)[i] = entries[i].row;

  cell_start_.assign(num_cells_ + 1, 0);
  for (int64_t i = 0; i < grid_rows_; ++i) ++cell_start_[entries[i].cell + 1];
  for (int64_t c = 0; c < num_cells_; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
}

void AugmentedGrid::Attach(const ColumnStore* store, int64_t base) {
  store_ = store;
  base_ = base;
}

void AugmentedGrid::Execute(const Query& query, QueryResult* out) const {
  static thread_local std::vector<RangeTask> tasks;
  tasks.clear();
  PlanRanges(query, &tasks, out);
  if (!tasks.empty()) store_->ScanRanges(tasks, query, out);
}

void AugmentedGrid::PlanRanges(const Query& query,
                               std::vector<RangeTask>* tasks,
                               QueryResult* counters) const {
  if (num_rows_ == 0 || store_ == nullptr) return;

  // Effective per-dimension filters: the original filters, narrowed by the
  // ranges induced through functional mappings (§5.2.1). Mapped dimensions'
  // own filters remain in the query and are checked during scans.
  // Scratch buffers are thread-local: queries run often, grids are many.
  static thread_local std::vector<Value> eff_lo, eff_hi;
  static thread_local std::vector<bool> has_eff;
  static thread_local std::vector<Value> orig_lo, orig_hi;
  static thread_local std::vector<bool> has_orig;
  static thread_local std::vector<DimRange> indep;
  static thread_local std::vector<int> cur_part;
  // A query may carry several filters on one dimension; all decisions below
  // (coverage, refinement, mapping) use the merged per-dimension constraint.
  orig_lo.assign(dims_, kValueMin);
  orig_hi.assign(dims_, kValueMax);
  has_orig.assign(dims_, false);
  for (const Predicate& p : query.filters) {
    IntersectRange(p.lo, p.hi, &orig_lo[p.dim], &orig_hi[p.dim]);
    has_orig[p.dim] = true;
  }
  eff_lo = orig_lo;
  eff_hi = orig_hi;
  has_eff = has_orig;
  // Outlier rows (§8 buffer) sit outside all cells and mappings; they are
  // scanned with full per-row checks whenever the grid gives up early
  // (e.g. a mapping-narrowed range became empty) and after the runs.
  auto plan_outliers = [&]() {
    if (grid_rows_ < num_rows_) {
      ++counters->cell_ranges;
      AppendRangeTask(tasks, RangeTask{base_ + grid_rows_, base_ + num_rows_,
                                       /*exact=*/false});
    }
  };
  bool mapped_covered = true;
  for (int d = 0; d < dims_; ++d) {
    if (skeleton_.dims[d].strategy != PartitionStrategy::kMapped) continue;
    if (!has_orig[d]) continue;
    if (orig_lo[d] > orig_hi[d]) return;  // Contradictory filters.
    auto [x_lo, x_hi] = fms_[d].MapRange(orig_lo[d], orig_hi[d]);
    int target = skeleton_.dims[d].other;
    IntersectRange(x_lo, x_hi, &eff_lo[target], &eff_hi[target]);
    has_eff[target] = true;
    // An exact range may skip checking this filter only if it covers the
    // region's whole domain in d.
    if (orig_lo[d] > dim_min_[d] || orig_hi[d] < dim_max_[d]) {
      mapped_covered = false;
    }
  }
  for (int d = 0; d < dims_; ++d) {
    if (has_eff[d] && eff_lo[d] > eff_hi[d]) {
      // No grid cell can match, but buffered outliers still might (their
      // values lie outside the mappings' error bands).
      plan_outliers();
      return;
    }
  }

  indep.assign(dims_, DimRange{});
  for (int d : grid_dims_) {
    if (skeleton_.dims[d].strategy != PartitionStrategy::kIndependent) {
      continue;
    }
    int p = partitions_[d];
    if (has_eff[d]) {
      auto [l, h] = models_[d]->PartitionRange(eff_lo[d], eff_hi[d], p);
      indep[d] = DimRange{l, h};
    } else {
      indep[d] = DimRange{0, p - 1};
    }
  }

  cur_part.assign(dims_, 0);
  EnumerateRuns(query, indep, eff_lo, eff_hi, has_eff, orig_lo, orig_hi,
                has_orig, 0, 0, true, mapped_covered, &cur_part, tasks,
                counters);

  plan_outliers();
}

void AugmentedGrid::EnumerateRuns(
    const Query& query, const std::vector<DimRange>& indep,
    const std::vector<Value>& eff_lo, const std::vector<Value>& eff_hi,
    const std::vector<bool>& has_eff, const std::vector<Value>& orig_lo,
    const std::vector<Value>& orig_hi, const std::vector<bool>& has_orig,
    int depth, int64_t cell_base, bool covered, bool mapped_covered,
    std::vector<int>* cur_part, std::vector<RangeTask>* tasks,
    QueryResult* counters) const {
  int m = static_cast<int>(grid_dims_.size());
  int dim = grid_dims_[depth];
  bool conditional =
      skeleton_.dims[dim].strategy == PartitionStrategy::kConditional;
  int base = skeleton_.dims[dim].other;

  DimRange range;
  if (conditional) {
    if (has_eff[dim]) {
      auto [l, h] = ccdfs_[dim].PartitionRange((*cur_part)[base], eff_lo[dim],
                                               eff_hi[dim]);
      range = DimRange{l, h};
    } else {
      range = DimRange{0, partitions_[dim] - 1};
    }
  } else {
    range = indep[dim];
  }
  if (range.lo > range.hi) return;  // No points can match (Fig. 6 skip).

  if (depth == m - 1) {
    // Innermost dimension (the sort dimension): cells [lo, hi] form one
    // contiguous physical run, sorted by this dimension.
    int64_t c_lo = cell_base + range.lo;
    int64_t c_hi = cell_base + range.hi;
    ++counters->cell_ranges;
    int64_t rb = base_ + static_cast<int64_t>(cell_start_[c_lo]);
    int64_t re = base_ + static_cast<int64_t>(cell_start_[c_hi + 1]);
    if (rb >= re) return;
    if (has_orig[dim]) {
      // Binary-search refinement: the run is sorted by the sort dimension.
      rb = store_->LowerBound(sort_dim_, rb, re, orig_lo[dim]);
      re = store_->UpperBound(sort_dim_, rb, re, orig_hi[dim]);
    }
    AppendRangeTask(tasks, RangeTask{rb, re, covered && mapped_covered});
    return;
  }

  for (int idx = range.lo; idx <= range.hi; ++idx) {
    (*cur_part)[dim] = idx;
    bool covered_here = true;
    if (has_orig[dim]) {
      if (conditional) {
        covered_here = ccdfs_[dim].CoversPartition(
            (*cur_part)[base], idx, orig_lo[dim], orig_hi[dim]);
      } else {
        covered_here = orig_lo[dim] <= part_min_[dim][idx] &&
                       part_max_[dim][idx] <= orig_hi[dim];
      }
    }
    EnumerateRuns(query, indep, eff_lo, eff_hi, has_eff, orig_lo, orig_hi,
                  has_orig, depth + 1, cell_base + idx * strides_[depth],
                  covered && covered_here, mapped_covered, cur_part, tasks,
                  counters);
  }
}

int64_t AugmentedGrid::SizeBytes() const {
  int64_t bytes = static_cast<int64_t>(cell_start_.size()) * sizeof(uint32_t);
  for (int d = 0; d < dims_; ++d) {
    if (models_[d] != nullptr) bytes += models_[d]->SizeBytes();
    bytes += ccdfs_[d].SizeBytes();
    bytes += static_cast<int64_t>(part_min_[d].size()) * 2 * sizeof(Value);
    if (skeleton_.num_dims() == dims_ &&
        skeleton_.dims[d].strategy == PartitionStrategy::kMapped) {
      bytes += BoundedLinearModel::kSizeBytes;
    }
  }
  bytes += static_cast<int64_t>(grid_dims_.size()) *
           (sizeof(int) + sizeof(int64_t));
  return bytes;
}


void AugmentedGrid::Serialize(BinaryWriter* writer) const {
  writer->PutVarI64(dims_);
  writer->PutVarI64(num_rows_);
  writer->PutVarI64(grid_rows_);
  skeleton_.Serialize(writer);
  writer->PutIntVec(partitions_);
  writer->PutIntVec(grid_dims_);
  writer->PutVarU64(strides_.size());
  for (int64_t s : strides_) writer->PutVarI64(s);
  writer->PutVarI64(sort_dim_);
  writer->PutVarI64(num_cells_);
  for (int d = 0; d < dims_; ++d) {
    writer->PutBool(models_[d] != nullptr);
    if (models_[d] != nullptr) models_[d]->Serialize(writer);
    ccdfs_[d].Serialize(writer);
    fms_[d].Serialize(writer);
    writer->PutValueVec(part_min_[d]);
    writer->PutValueVec(part_max_[d]);
  }
  writer->PutValueVec(dim_min_);
  writer->PutValueVec(dim_max_);
  writer->PutVarU64(cell_start_.size());
  uint32_t prev = 0;
  for (uint32_t v : cell_start_) {
    // cell_start_ is non-decreasing: deltas are small varints.
    writer->PutVarU64(v - prev);
    prev = v;
  }
}

bool AugmentedGrid::Deserialize(BinaryReader* reader) {
  dims_ = static_cast<int>(reader->GetVarI64());
  num_rows_ = reader->GetVarI64();
  grid_rows_ = reader->GetVarI64();
  if (!reader->ok() || dims_ < 0 || dims_ > 4096 || num_rows_ < 0 ||
      grid_rows_ < 0 || grid_rows_ > num_rows_) {
    reader->MarkCorrupt();
    return false;
  }
  if (!skeleton_.Deserialize(reader)) return false;
  if (skeleton_.num_dims() != dims_) {
    reader->MarkCorrupt();
    return false;
  }
  if (!reader->GetIntVec(&partitions_)) return false;
  if (!reader->GetIntVec(&grid_dims_)) return false;
  uint64_t num_strides = reader->GetVarU64();
  if (!reader->ok() || num_strides != grid_dims_.size()) {
    reader->MarkCorrupt();
    return false;
  }
  strides_.resize(num_strides);
  for (uint64_t i = 0; i < num_strides; ++i) {
    strides_[i] = reader->GetVarI64();
  }
  sort_dim_ = static_cast<int>(reader->GetVarI64());
  num_cells_ = reader->GetVarI64();
  if (!reader->ok() || num_cells_ < 0) {
    reader->MarkCorrupt();
    return false;
  }
  models_.clear();
  models_.resize(dims_);
  ccdfs_.assign(dims_, ConditionalCdf());
  fms_.assign(dims_, BoundedLinearModel());
  part_min_.assign(dims_, {});
  part_max_.assign(dims_, {});
  for (int d = 0; d < dims_; ++d) {
    if (reader->GetBool()) {
      models_[d] = EquiDepthCdf::Deserialize(reader);
      if (models_[d] == nullptr) return false;
    }
    if (!ccdfs_[d].Deserialize(reader)) return false;
    if (!fms_[d].Deserialize(reader)) return false;
    if (!reader->GetValueVec(&part_min_[d])) return false;
    if (!reader->GetValueVec(&part_max_[d])) return false;
  }
  if (!reader->GetValueVec(&dim_min_)) return false;
  if (!reader->GetValueVec(&dim_max_)) return false;
  uint64_t num_starts = reader->GetVarU64();
  if (!reader->ok() || num_starts > reader->remaining() + 1 ||
      (num_cells_ > 0 &&
       num_starts != static_cast<uint64_t>(num_cells_) + 1)) {
    reader->MarkCorrupt();
    return false;
  }
  cell_start_.resize(num_starts);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < num_starts; ++i) {
    prev += reader->GetVarU64();
    if (prev > static_cast<uint64_t>(grid_rows_)) {
      reader->MarkCorrupt();
      return false;
    }
    cell_start_[i] = static_cast<uint32_t>(prev);
  }
  store_ = nullptr;  // Caller must Attach().
  base_ = 0;
  return reader->ok();
}

}  // namespace tsunami
