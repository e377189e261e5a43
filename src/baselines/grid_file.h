// Grid File baseline (Nievergelt et al. [31], cited in §6.1/§7). Classic
// symmetric multikey structure: one *linear scale* (array of split values)
// per dimension, chosen from the data distribution only, and a directory
// mapping each grid cell to its bucket. Unlike Flood, partition counts are
// not workload-tuned — every dimension is treated equally — which is
// exactly the weakness the learned indexes exploit.
#ifndef TSUNAMI_BASELINES_GRID_FILE_H_
#define TSUNAMI_BASELINES_GRID_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

/// Static clustered Grid File: equi-depth linear scales per dimension, rows
/// clustered by cell in row-major cell order, and a directory of cell start
/// offsets.
class GridFileIndex : public RangePlanIndex {
 public:
  struct Options {
    /// Target rows per cell; partition counts per dimension are the largest
    /// symmetric counts that keep the expected cell at or above this.
    int64_t target_cell_rows = 4096;
    /// Hard cap on directory entries.
    int64_t max_cells = int64_t{1} << 22;
  };

  explicit GridFileIndex(const Dataset& data)
      : GridFileIndex(data, Options()) {}
  GridFileIndex(const Dataset& data, const Options& options);

  std::string Name() const override { return "GridFile"; }
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return store_; }

  int64_t num_cells() const { return num_cells_; }
  const std::vector<int>& partitions() const { return partitions_; }

 private:
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override;

  int BucketOf(int dim, Value v) const;

  int dims_ = 0;
  std::vector<int> partitions_;
  std::vector<int64_t> strides_;
  int64_t num_cells_ = 1;
  /// scales_[d] holds partitions_[d] - 1 split values: bucket b covers
  /// values in [scales_[d][b-1], scales_[d][b]) with open ends.
  std::vector<std::vector<Value>> scales_;
  std::vector<int64_t> cell_start_;  // Directory; size num_cells_ + 1.
  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_GRID_FILE_H_
