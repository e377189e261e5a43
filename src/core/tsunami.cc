#include "src/core/tsunami.h"

#include <algorithm>
#include <numeric>

#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/workload_stats.h"
#include "src/exec/task_scheduler.h"

namespace tsunami {

TsunamiIndex::TsunamiIndex(const Dataset& data, const Workload& workload,
                           const TsunamiOptions& options)
    : name_(options.name), use_grid_tree_(options.use_grid_tree) {
  BuildIndex(data, workload, options, /*previous=*/nullptr);
}

TsunamiIndex::TsunamiIndex(const TsunamiIndex& previous,
                           const Dataset& extra_rows,
                           const Workload& new_workload,
                           const TsunamiOptions& options)
    : name_(options.name), use_grid_tree_(options.use_grid_tree) {
  Dataset data = previous.MaterializeData();
  data.Reserve(data.size() + extra_rows.size());
  std::vector<Value> row(data.dims());
  for (int64_t r = 0; r < extra_rows.size(); ++r) {
    for (int d = 0; d < data.dims(); ++d) row[d] = extra_rows.at(r, d);
    data.AppendRow(row);
  }
  BuildIndex(data, new_workload, options, &previous);
}

void TsunamiIndex::BuildIndex(const Dataset& data, const Workload& workload,
                              const TsunamiOptions& options,
                              const TsunamiIndex* previous) {
  Timer optimize_timer;
  Rng rng(options.agd.seed);
  Dataset sample = SampleDataset(data, options.sample_rows, &rng);
  // Every single-predicate selectivity below (clustering embeddings,
  // per-region workload summaries) reads this one sorted copy.
  const SortedSample sorted_sample(sample);

  // Step 0: cluster queries into types (§4.3.1).
  Workload typed;
  int num_types = 0;
  if (options.cluster_queries) {
    typed = LabelQueryTypes(sorted_sample, workload, options.clustering,
                            &num_types);
  } else {
    typed = workload;
    for (const Query& q : typed) num_types = std::max(num_types, q.type + 1);
    if (num_types == 0) num_types = 1;
  }
  stats_.num_query_types = num_types;

  // Step 1: optimize the Grid Tree on the sample + workload (§4.3) — or,
  // for incremental re-optimization, reuse the previous tree so regions
  // stay aligned and their plans remain meaningful.
  bool reuse_tree = previous != nullptr && use_grid_tree_ &&
                    previous->use_grid_tree_ &&
                    previous->tree_.num_regions() > 0;
  if (reuse_tree) {
    tree_ = previous->tree_;
  } else if (use_grid_tree_) {
    tree_ = GridTree::Build(sample, typed, num_types, options.tree);
  }
  if (use_grid_tree_) {
    stats_.tree_nodes = tree_.num_nodes();
    stats_.tree_depth = tree_.depth();
  }
  int num_regions = use_grid_tree_ ? tree_.num_regions() : 1;
  stats_.num_regions = num_regions;

  // Assign every point to its region and every query to the regions it
  // intersects.
  std::vector<std::vector<uint32_t>> region_rows(num_regions);
  for (int64_t r = 0; r < data.size(); ++r) {
    int region = use_grid_tree_ ? tree_.RegionOf(data, r) : 0;
    region_rows[region].push_back(static_cast<uint32_t>(r));
  }
  std::vector<Workload> region_queries(num_regions);
  if (use_grid_tree_) {
    std::vector<int> hits;
    for (const Query& q : typed) {
      tree_.CollectRegions(q, &hits);
      for (int region : hits) region_queries[region].push_back(q);
    }
  } else {
    region_queries[0] = typed;
  }

  // Step 2: optimize an Augmented Grid per intersected region (§5.3). The
  // "Grid Tree only" variant restricts skeletons to all-independent, i.e.
  // an instance of Flood per region.
  AgdOptions agd = options.agd;
  if (!options.use_augmentation) agd.independent_only = true;
  OptimizeMethod method =
      options.use_augmentation ? OptimizeMethod::kAgd : OptimizeMethod::kGd;

  regions_.resize(num_regions);
  // Regions are independent: optimize and build them in parallel (§6.1:
  // "optimization and data sorting for index creation are performed in
  // parallel"), one scheduler chunk per region; the column store's encode
  // then runs one chunk per column on the same scheduler. A serial build
  // runs both on this thread with no scheduler at all. Per-region and
  // per-column outputs land in pre-sized vectors, so results are identical
  // for any thread count. Build times are thread-time sums, not wall time:
  // each region times its own optimize and sort phases, each column its
  // encode, and the serial work around the parallel sections counts once.
  // With several build threads the sums exceed the build's wall time, but
  // neither can go negative.
  std::unique_ptr<TaskScheduler> scheduler;
  if (options.build_threads > 1) {
    scheduler = std::make_unique<TaskScheduler>(options.build_threads);
  }
  std::vector<char> region_reused(num_regions, 0);
  std::vector<double> region_optimize_seconds(num_regions, 0.0);
  std::vector<double> region_sort_seconds(num_regions, 0.0);
  double serial_seconds = optimize_timer.ElapsedSeconds();
  auto build_region = [&](int64_t region) {
    Timer region_timer;
    Region& reg = regions_[region];
    if (use_grid_tree_) {
      reg.box_lo = tree_.region_lo(region);
      reg.box_hi = tree_.region_hi(region);
    } else {
      reg.box_lo.assign(data.dims(), kValueMin);
      reg.box_hi.assign(data.dims(), kValueMax);
    }
    std::vector<uint32_t>& rows = region_rows[region];
    if (region_queries[region].empty() || rows.empty()) return;
    reg.query_count = static_cast<int64_t>(region_queries[region].size());
    reg.workload_sel = AvgSelectivityPerDim(
        sorted_sample, region_queries[region], data.dims());
    // Incremental path: reuse the previous plan when this region's
    // workload barely moved (similar volume and per-dim selectivities).
    bool reused = false;
    if (reuse_tree && region < static_cast<int>(previous->regions_.size())) {
      const Region& prev = previous->regions_[region];
      if (prev.has_grid && prev.query_count > 0) {
        double ratio = static_cast<double>(reg.query_count) /
                       static_cast<double>(prev.query_count);
        double max_sel_diff = 0.0;
        for (int d = 0; d < data.dims(); ++d) {
          max_sel_diff = std::max(
              max_sel_diff,
              std::abs(reg.workload_sel[d] - prev.workload_sel[d]));
        }
        if (ratio >= 0.5 && ratio <= 2.0 && max_sel_diff <= 0.25) {
          reg.plan = prev.plan;
          reused = true;
          region_reused[region] = 1;
        }
      }
    }
    if (!reused) {
      AgdOptions region_agd = agd;
      region_agd.seed = options.agd.seed + region;  // Decorrelate samples.
      reg.plan = OptimizeGrid(data, rows, region_queries[region], method,
                              region_agd);
    }
    const GridPlan& plan = reg.plan;
    AugmentedGrid::BuildOptions build_options;
    build_options.selectivity_order = DimsBySelectivity(reg.workload_sel);
    build_options.sort_dim = plan.sort_dim;
    build_options.max_cells = agd.max_cells;
    region_optimize_seconds[region] = region_timer.ElapsedSeconds();
    Timer sort_timer;
    reg.grid.Build(data, &rows, plan.skeleton, plan.partitions,
                   build_options);
    region_sort_seconds[region] = sort_timer.ElapsedSeconds();
    reg.has_grid = true;
  };
  if (scheduler != nullptr) {
    // Run throws if a region's chunk failed, so a half-built index never
    // escapes the constructor.
    scheduler->Run(num_regions,
                   [&](int64_t region, int) { build_region(region); });
  } else {
    for (int region = 0; region < num_regions; ++region) build_region(region);
  }

  // Sequential epilogue: physical layout (regions are concatenated in
  // region order) and build statistics.
  Timer epilogue_timer;
  double optimize_seconds = 0.0;
  double sort_seconds = 0.0;
  std::vector<uint32_t> perm;
  perm.reserve(data.size());
  int64_t total_fms = 0, total_ccdfs = 0;
  for (int region = 0; region < num_regions; ++region) {
    Region& reg = regions_[region];
    const std::vector<uint32_t>& rows = region_rows[region];
    if (reg.has_grid) {
      ++stats_.num_indexed_regions;
      stats_.total_cells += reg.grid.num_cells();
      total_fms += reg.plan.skeleton.NumMapped();
      total_ccdfs += reg.plan.skeleton.NumConditional();
    }
    stats_.regions_reused += region_reused[region];
    optimize_seconds += region_optimize_seconds[region];
    sort_seconds += region_sort_seconds[region];
    reg.begin = static_cast<int64_t>(perm.size());
    perm.insert(perm.end(), rows.begin(), rows.end());
    reg.end = static_cast<int64_t>(perm.size());
  }
  if (stats_.num_indexed_regions > 0) {
    stats_.avg_fms_per_region =
        static_cast<double>(total_fms) / stats_.num_indexed_regions;
    stats_.avg_ccdfs_per_region =
        static_cast<double>(total_ccdfs) / stats_.num_indexed_regions;
  }

  // Region point-count distribution (Tab. 4).
  {
    std::vector<double> counts;
    for (const auto& rows : region_rows) {
      counts.push_back(static_cast<double>(rows.size()));
    }
    if (!counts.empty()) {
      stats_.min_region_points = static_cast<int64_t>(Percentile(counts, 0));
      stats_.median_region_points =
          static_cast<int64_t>(Percentile(counts, 50));
      stats_.max_region_points =
          static_cast<int64_t>(Percentile(counts, 100));
    }
  }
  serial_seconds += epilogue_timer.ElapsedSeconds();
  stats_.optimize_seconds = serial_seconds + optimize_seconds;

  // Step 3: materialize the clustered column store (a failed column chunk
  // throws, like a failed region) and attach the grids.
  double encode_seconds = 0.0;
  store_ = ColumnStore(data, perm, EncodingEnabledByDefault(), scheduler.get(),
                       &encode_seconds);
  for (Region& reg : regions_) {
    if (reg.has_grid) reg.grid.Attach(&store_, reg.begin);
  }
  stats_.sort_seconds = sort_seconds + encode_seconds;

  // Retain the folded rows' raw values keyed by physical position: the fold
  // constructor appended them after `previous`'s rows, so everything past
  // the previous store's size is fold-origin. Keeping their values lets
  // RepairQuarantinedFromDelta re-encode a freshly folded block whose
  // checksum later fails, instead of serving it degraded until the next
  // full rebuild.
  fold_backup_ = FoldBackup{};
  if (previous != nullptr && data.size() > previous->store_.size()) {
    const uint32_t first_delta =
        static_cast<uint32_t>(previous->store_.size());
    fold_backup_.cols.assign(data.dims(), {});
    for (int64_t i = 0; i < static_cast<int64_t>(perm.size()); ++i) {
      if (perm[i] < first_delta) continue;
      fold_backup_.pos.push_back(i);
      for (int d = 0; d < data.dims(); ++d) {
        fold_backup_.cols[d].push_back(data.at(perm[i], d));
      }
    }
  }
}

int64_t TsunamiIndex::RepairQuarantinedFromDelta() {
  if (fold_backup_.pos.empty() || store_.QuarantinedBlocks() == 0) return 0;
  int64_t repaired = 0;
  const int64_t rows = store_.size();
  const int64_t num_blocks = (rows + kScanBlockRows - 1) / kScanBlockRows;
  const std::vector<int64_t>& pos = fold_backup_.pos;
  for (int d = 0; d < store_.dims(); ++d) {
    const EncodedColumn& col = store_.encoded(d);
    for (int64_t b = 0; b < num_blocks; ++b) {
      if (!col.IsQuarantined(b)) continue;
      const int64_t lo = b * kScanBlockRows;
      const int64_t hi = std::min(lo + kScanBlockRows, rows);
      const int64_t n = hi - lo;
      // Repairable iff every row of the block was a folded delta row:
      // `pos` is strictly ascending, so covering [lo, hi) takes exactly n
      // consecutive entries starting at value lo.
      const auto it = std::lower_bound(pos.begin(), pos.end(), lo);
      const int64_t idx = it - pos.begin();
      if (idx + n > static_cast<int64_t>(pos.size())) continue;
      if (pos[idx] != lo || pos[idx + n - 1] != hi - 1) continue;
      if (store_.RepairBlock(d, b, fold_backup_.cols[d].data() + idx, n)) {
        ++repaired;
      }
    }
  }
  return repaired;
}

std::unique_ptr<TsunamiIndex> TsunamiIndex::RepairedCopy(
    int64_t* repaired) const {
  // Member-wise copy is deep for everything that matters (ColumnStore and
  // the grids hold value vectors; EncodedColumn's per-block verification
  // state copies via relaxed atomic loads) — except each grid's raw store
  // pointer, which must be re-bound to the clone's store, exactly as
  // LoadFromFile does after deserializing.
  std::unique_ptr<TsunamiIndex> clone(new TsunamiIndex(*this));
  for (Region& reg : clone->regions_) {
    if (reg.has_grid) reg.grid.Attach(&clone->store_, reg.begin);
  }
  const int64_t healed = clone->RepairQuarantinedFromDelta();
  if (repaired != nullptr) *repaired = healed;
  return clone;
}

Dataset TsunamiIndex::MaterializeData() const {
  Dataset data(store_.dims(), {});
  data.Reserve(store_.size());
  std::vector<Value> row(store_.dims());
  for (int64_t r = 0; r < store_.size(); ++r) {
    for (int d = 0; d < store_.dims(); ++d) row[d] = store_.Get(r, d);
    data.AppendRow(row);
  }
  return data;
}

void TsunamiIndex::PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                             QueryResult* counters) const {
  static thread_local std::vector<int> hits;
  if (use_grid_tree_) {
    tree_.CollectRegions(query, &hits);
  } else {
    hits.assign(1, 0);
  }
  for (int region : hits) {
    const Region& reg = regions_[region];
    if (reg.has_grid) {
      reg.grid.PlanRanges(query, tasks, counters);
      continue;
    }
    // Unindexed region (no query type intersected it at build time): scan
    // it whole; exact when the query's box contains the region's box.
    bool exact = true;
    for (const Predicate& p : query.filters) {
      if (p.lo > reg.box_lo[p.dim] || p.hi < reg.box_hi[p.dim]) {
        exact = false;
        break;
      }
    }
    ++counters->cell_ranges;
    AppendRangeTask(tasks, RangeTask{reg.begin, reg.end, exact});
  }
}

int64_t TsunamiIndex::IndexSizeBytes() const {
  int64_t bytes = use_grid_tree_ ? tree_.SizeBytes() : 0;
  for (const Region& reg : regions_) {
    bytes += static_cast<int64_t>(sizeof(Region));
    if (reg.has_grid) bytes += reg.grid.SizeBytes();
  }
  return bytes;
}


bool TsunamiIndex::SaveToFile(const std::string& path,
                              std::string* error) const {
  BinaryWriter writer;
  writer.PutString(name_);
  writer.PutBool(use_grid_tree_);
  // Delta section (format v3): dims, row count, one column per dim. The
  // index no longer buffers inserts, so it is always written empty — which
  // keeps the payload byte-identical to the format every earlier
  // checkpoint used, with no version branch in either direction.
  writer.PutVarI64(store_.dims());
  writer.PutVarI64(0);
  for (int d = 0; d < store_.dims(); ++d) writer.PutValueVec({});
  tree_.Serialize(&writer);
  store_.Serialize(&writer);

  writer.PutVarU64(regions_.size());
  for (const Region& region : regions_) {
    writer.PutBool(region.has_grid);
    if (region.has_grid) {
      region.grid.Serialize(&writer);
      region.plan.Serialize(&writer);
    }
    writer.PutDoubleVec(region.workload_sel);
    writer.PutVarI64(region.query_count);
    writer.PutVarI64(region.begin);
    writer.PutVarI64(region.end);
    writer.PutValueVec(region.box_lo);
    writer.PutValueVec(region.box_hi);
  }

  writer.PutVarI64(stats_.num_query_types);
  writer.PutVarI64(stats_.tree_nodes);
  writer.PutVarI64(stats_.tree_depth);
  writer.PutVarI64(stats_.num_regions);
  writer.PutVarI64(stats_.num_indexed_regions);
  writer.PutVarI64(stats_.min_region_points);
  writer.PutVarI64(stats_.median_region_points);
  writer.PutVarI64(stats_.max_region_points);
  writer.PutDouble(stats_.avg_fms_per_region);
  writer.PutDouble(stats_.avg_ccdfs_per_region);
  writer.PutVarI64(stats_.total_cells);
  writer.PutVarI64(stats_.regions_reused);
  writer.PutDouble(stats_.optimize_seconds);
  writer.PutDouble(stats_.sort_seconds);

  return WriteFramedFile(path, FileKind::kTsunamiIndex, writer.buffer(),
                         error);
}

std::unique_ptr<TsunamiIndex> TsunamiIndex::LoadFromFile(
    const std::string& path, std::string* error) {
  auto fail = [error](const std::string& message)
      -> std::unique_ptr<TsunamiIndex> {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  std::string payload;
  if (!ReadFramedFile(path, FileKind::kTsunamiIndex, &payload, error)) {
    return nullptr;
  }
  BinaryReader reader(payload);
  std::unique_ptr<TsunamiIndex> index(new TsunamiIndex());
  index->name_ = reader.GetString();
  index->use_grid_tree_ = reader.GetBool();
  {
    const int64_t delta_dims = reader.GetVarI64();
    const int64_t delta_rows = reader.GetVarI64();
    if (!reader.ok() || delta_dims < 0 || delta_dims > 4096 ||
        delta_rows < 0) {
      return fail("corrupt snapshot: delta buffer");
    }
    // Rows here were inserted into an index that had its own buffer; this
    // index cannot hold them, and dropping them would lose data.
    if (delta_rows > 0) {
      return fail("unsupported snapshot: delta buffer carries " +
                  std::to_string(delta_rows) +
                  " row(s); re-ingest them through IngestStore");
    }
    std::vector<Value> col;
    for (int64_t d = 0; d < delta_dims; ++d) {
      if (!reader.GetValueVec(&col) || !col.empty()) {
        return fail("corrupt snapshot: delta buffer");
      }
    }
  }
  if (!index->tree_.Deserialize(&reader)) {
    return fail("corrupt snapshot: grid tree");
  }
  if (!index->store_.Deserialize(&reader)) {
    return fail("corrupt snapshot: column store");
  }

  uint64_t num_regions = reader.GetVarU64();
  if (!reader.ok() || num_regions > reader.remaining() + 1) {
    return fail("corrupt snapshot: region count");
  }
  index->regions_.clear();
  index->regions_.resize(num_regions);
  const int64_t store_rows = index->store_.size();
  for (uint64_t i = 0; i < num_regions; ++i) {
    Region& region = index->regions_[i];
    region.has_grid = reader.GetBool();
    if (region.has_grid) {
      if (!region.grid.Deserialize(&reader)) {
        return fail("corrupt snapshot: region grid");
      }
      if (!region.plan.Deserialize(&reader)) {
        return fail("corrupt snapshot: region plan");
      }
    }
    if (!reader.GetDoubleVec(&region.workload_sel)) {
      return fail("corrupt snapshot: region workload summary");
    }
    region.query_count = reader.GetVarI64();
    region.begin = reader.GetVarI64();
    region.end = reader.GetVarI64();
    if (!reader.GetValueVec(&region.box_lo) ||
        !reader.GetValueVec(&region.box_hi)) {
      return fail("corrupt snapshot: region box");
    }
    if (region.begin < 0 || region.begin > region.end ||
        region.end > store_rows ||
        (region.has_grid &&
         region.grid.num_rows() != region.end - region.begin)) {
      return fail("corrupt snapshot: region range");
    }
    if (region.has_grid) {
      region.grid.Attach(&index->store_, region.begin);
    }
  }

  Stats& stats = index->stats_;
  stats.num_query_types = static_cast<int>(reader.GetVarI64());
  stats.tree_nodes = static_cast<int>(reader.GetVarI64());
  stats.tree_depth = static_cast<int>(reader.GetVarI64());
  stats.num_regions = static_cast<int>(reader.GetVarI64());
  stats.num_indexed_regions = static_cast<int>(reader.GetVarI64());
  stats.min_region_points = reader.GetVarI64();
  stats.median_region_points = reader.GetVarI64();
  stats.max_region_points = reader.GetVarI64();
  stats.avg_fms_per_region = reader.GetDouble();
  stats.avg_ccdfs_per_region = reader.GetDouble();
  stats.total_cells = reader.GetVarI64();
  stats.regions_reused = static_cast<int>(reader.GetVarI64());
  stats.optimize_seconds = reader.GetDouble();
  stats.sort_seconds = reader.GetDouble();

  if (!reader.ok() || !reader.AtEnd()) {
    return fail("corrupt snapshot: trailing or truncated payload");
  }
  return index;
}

}  // namespace tsunami
