// Tsunami (§3): the end-to-end learned multi-dimensional index. Clusters
// the workload into query types, builds a Grid Tree to carve the space into
// low-skew regions, and indexes each region that queries touch with an
// optimized Augmented Grid. Regions no query intersects get no index.
//
// The index is read-optimized and immutable once built (§8). Inserts go
// through ingest::IngestStore: its delta chunks are scanned next to the
// index and periodically folded into a rebuilt one by the fold
// constructor below.
#ifndef TSUNAMI_CORE_TSUNAMI_H_
#define TSUNAMI_CORE_TSUNAMI_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/core/augmented_grid.h"
#include "src/core/grid_tree.h"
#include "src/core/optimizer.h"
#include "src/core/query_clustering.h"
#include "src/storage/column_store.h"

namespace tsunami {

struct TsunamiOptions {
  GridTreeOptions tree;
  AgdOptions agd;
  ClusteringOptions clustering;
  /// Disable to get the "Augmented Grid only" drill-down variant (§6.6):
  /// one Augmented Grid over the whole space.
  bool use_grid_tree = true;
  /// Disable to get the "Grid Tree only" variant: an instance of Flood
  /// (all-independent skeleton, GD-optimized) in each region.
  bool use_augmentation = true;
  /// Cluster query types with DBSCAN (§4.3.1). If false, the `type` labels
  /// already on the queries are used.
  bool cluster_queries = true;
  /// Row-sample size for clustering, selectivity estimation, and the Grid
  /// Tree build (thresholds are fractions, so a sample suffices).
  int64_t sample_rows = 100000;
  /// Threads for per-region optimization and grid building (§6.1 performs
  /// these in parallel) and for the column store's per-column encode.
  /// Regions and columns are independent, so any thread count produces an
  /// identical index; <= 1 builds inline.
  int build_threads = 1;
  /// Display name (benches rename the drill-down variants).
  std::string name = "Tsunami";
};

class TsunamiIndex : public RangePlanIndex {
 public:
  /// Index statistics after optimization (Tab. 4) plus build timings
  /// (Fig. 9b: sort time vs optimization time).
  struct Stats {
    int num_query_types = 0;
    int tree_nodes = 0;
    int tree_depth = 0;
    int num_regions = 0;
    int num_indexed_regions = 0;
    int64_t min_region_points = 0;
    int64_t median_region_points = 0;
    int64_t max_region_points = 0;
    double avg_fms_per_region = 0.0;
    double avg_ccdfs_per_region = 0.0;
    int64_t total_cells = 0;
    /// Regions whose previous plan was reused by the incremental
    /// constructor (0 for full builds).
    int regions_reused = 0;
    /// Clustering + tree + grid optimization, and data reorganization:
    /// each region's grid build (its cell sort) plus each column's gather,
    /// zone-map and encode step. Thread-time sums: with build_threads > 1
    /// they add up every build thread's share (regions and columns both
    /// run on the build scheduler), so together they can exceed the
    /// build's wall time.
    double optimize_seconds = 0.0;
    double sort_seconds = 0.0;
  };

  TsunamiIndex(const Dataset& data, const Workload& workload)
      : TsunamiIndex(data, workload, TsunamiOptions()) {}
  TsunamiIndex(const Dataset& data, const Workload& workload,
               const TsunamiOptions& options);

  /// Fold constructor — incremental re-optimization (§8): rebuilds
  /// `previous`'s rows plus `extra_rows` for `new_workload` while *reusing*
  /// the previous Grid Tree and, for regions whose workload barely changed,
  /// the previous Augmented Grid plans — only regions that saw significant
  /// shift pay the optimization cost again. The ingest compactor passes the
  /// rows of the delta chunks it folds; an empty `extra_rows` re-optimizes
  /// the same rows. The folded rows' raw values are kept as the repair
  /// source for RepairedCopy.
  TsunamiIndex(const TsunamiIndex& previous, const Dataset& extra_rows,
               const Workload& new_workload, const TsunamiOptions& options);

  std::string Name() const override { return name_; }
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return store_; }

  const Stats& stats() const { return stats_; }
  const GridTree& grid_tree() const { return tree_; }

  /// EXPLAIN-style description of the optimized structure: the Grid Tree's
  /// splits plus, per region, its row range, query count, skeleton,
  /// partition counts, cells, and outlier-buffer size.
  std::string Describe(const std::vector<std::string>& dim_names = {}) const;

  /// The indexed rows as a row-major dataset, in clustered order.
  Dataset MaterializeData() const;

  /// Copy-on-repair: clones this index, re-materializes the clone's
  /// quarantined (checksum-failed) blocks whose rows all came from the most
  /// recent fold, using the raw values retained from that fold, and returns
  /// it — `this` is never mutated, so readers pinned on a snapshot holding
  /// it can never observe a half-repaired block. The ingest layer publishes
  /// the clone as a new snapshot version. Blocks with any pre-fold row (and
  /// everything on an index without a fold, or loaded from a snapshot — the
  /// backup is not persisted) stay quarantined for a full rebuild to clear.
  /// Safe to call concurrently with scans of `this` (all mutable block
  /// state is atomic); `repaired` receives the number of blocks healed.
  std::unique_ptr<TsunamiIndex> RepairedCopy(int64_t* repaired = nullptr) const;

  // --- Persistence (§8 "Persistence") ---
  // A snapshot holds the clustered column store, the Grid Tree, every
  // region's Augmented Grid and plan, and build stats. Loading re-attaches
  // grids to the store and serves queries immediately, without re-running
  // optimization or re-sorting data.

  /// Writes a framed, checksummed snapshot to `path`.
  bool SaveToFile(const std::string& path,
                  std::string* error = nullptr) const;

  /// Reopens a snapshot. Returns nullptr (with `error` set) on missing
  /// file, version/kind mismatch, checksum failure, corrupt payload, or a
  /// delta section that carries rows (see SaveToFile).
  static std::unique_ptr<TsunamiIndex> LoadFromFile(
      const std::string& path, std::string* error = nullptr);

 private:
  TsunamiIndex() = default;  // For LoadFromFile.

  struct Region {
    bool has_grid = false;
    AugmentedGrid grid;
    GridPlan plan;  // Kept for incremental re-optimization (§8).
    std::vector<double> workload_sel;  // Per-dim avg selectivity summary.
    int64_t query_count = 0;
    int64_t begin = 0;  // Physical range [begin, end) in the store.
    int64_t end = 0;
    std::vector<Value> box_lo;  // Logical box (for exactness checks when
    std::vector<Value> box_hi;  // the region has no grid).
  };

  // Shared implementation of the two constructors. `previous` != nullptr
  // enables tree + plan reuse.
  void BuildIndex(const Dataset& data, const Workload& workload,
                  const TsunamiOptions& options,
                  const TsunamiIndex* previous);

  // Plans every region the Grid Tree says the query intersects: its grid
  // runs, or the raw region range for a region without a grid. The planned
  // ranges are the whole answer, so there is no FinishPlan work.
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override;

  // RepairedCopy's in-place half, run on the fresh clone: re-encodes every
  // quarantined block wholly covered by fold_backup_. Returns blocks healed.
  int64_t RepairQuarantinedFromDelta();

  std::string name_;
  bool use_grid_tree_ = true;
  /// Raw values of the rows the most recent fold added (`extra_rows`),
  /// keyed by their physical positions in the clustered store (ascending).
  /// The redundancy RepairQuarantinedFromDelta trades for: a corrupt
  /// freshly-folded block can be re-encoded from here. In-memory only —
  /// snapshots do not carry it.
  struct FoldBackup {
    std::vector<int64_t> pos;              // Ascending physical rows.
    std::vector<std::vector<Value>> cols;  // [dim][i]: value at pos[i].
  };
  FoldBackup fold_backup_;
  GridTree tree_;
  std::vector<Region> regions_;
  ColumnStore store_;
  Stats stats_;
};

}  // namespace tsunami

#endif  // TSUNAMI_CORE_TSUNAMI_H_
