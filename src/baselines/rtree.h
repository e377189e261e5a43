// R-tree baseline (§7 cites R*-trees [3] among the classic spatial indexes;
// §6.1 excludes them because Flood already dominates them — this
// implementation lets that claim be reproduced). The tree is bulk-loaded
// with Sort-Tile-Recursive (STR) packing, the standard method for static
// data: it produces fully packed, square-ish leaves, which is the
// best-case configuration for a read-only R-tree.
#ifndef TSUNAMI_BASELINES_RTREE_H_
#define TSUNAMI_BASELINES_RTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

/// STR-packed R-tree over the shared column store. Leaves hold contiguous
/// physical row ranges (the index is clustered, like every index in this
/// library); internal nodes hold minimum bounding rectangles (MBRs).
class RTreeIndex : public RangePlanIndex {
 public:
  struct Options {
    int64_t page_size = 4096;  // Rows per leaf (tunable, §6.3).
    int fanout = 16;           // Children per internal node.
  };

  explicit RTreeIndex(const Dataset& data) : RTreeIndex(data, Options()) {}
  RTreeIndex(const Dataset& data, const Options& options);

  std::string Name() const override { return "RTree"; }
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return store_; }

  int64_t num_leaves() const { return num_leaves_; }
  int height() const { return height_; }

 private:
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override;

  struct Node {
    std::vector<Value> lo;  // MBR, inclusive.
    std::vector<Value> hi;
    int32_t first_child = -1;  // Index into nodes_; -1 for leaves.
    int32_t num_children = 0;
    int64_t begin = 0;  // Leaf row range [begin, end).
    int64_t end = 0;
  };

  bool Intersects(const Node& node, const Query& query) const;
  bool Covered(const Node& node, const Query& query) const;

  int dims_ = 0;
  std::vector<Node> nodes_;  // nodes_[root_] is the root.
  int32_t root_ = -1;
  int64_t num_leaves_ = 0;
  int height_ = 0;
  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_RTREE_H_
