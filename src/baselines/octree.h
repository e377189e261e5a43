// Hyperoctree (§6.1 baseline 3): recursively subdivides space equally into
// hyperoctants (2^d children per node, stored sparsely) until each leaf
// holds at most `page_size` points.
#ifndef TSUNAMI_BASELINES_OCTREE_H_
#define TSUNAMI_BASELINES_OCTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/common/workload_stats.h"
#include "src/storage/column_store.h"

namespace tsunami {

class HyperOctree : public RangePlanIndex {
 public:
  struct Options {
    int64_t page_size = 4096;
    int max_depth = 24;  // Safety bound against degenerate duplicates.
  };

  explicit HyperOctree(const Dataset& data) : HyperOctree(data, Options()) {}
  HyperOctree(const Dataset& data, const Options& options);

  std::string Name() const override { return "Hyperoctree"; }
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return store_; }

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }

 private:
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override;

  struct Node {
    int64_t begin = 0;
    int64_t end = 0;
    bool is_leaf = true;
    // Sparse children: (octant code, node index). An octant code has bit i
    // set iff the child covers the upper half of dimension i.
    std::vector<std::pair<uint32_t, int32_t>> children;
  };

  // Recursive build over rows [begin, end) of `perm`; boxes are tracked in
  // (lo, hi) per dimension. Returns the node index.
  int32_t BuildNode(const Dataset& data, std::vector<uint32_t>* perm,
                    int64_t begin, int64_t end, std::vector<Value>* lo,
                    std::vector<Value>* hi, int depth,
                    const Options& options);

  // Collects the leaf ranges the query must scan into `tasks`; the caller
  // submits them to the scan kernel as one batch.
  void PlanNode(int32_t node_idx, const Query& query, std::vector<Value>* lo,
                std::vector<Value>* hi, std::vector<RangeTask>* tasks,
                QueryResult* out) const;

  int dims_ = 0;
  std::vector<Node> nodes_;
  DimBounds bounds_;
  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_OCTREE_H_
