// K-d tree (§6.1 baseline 4): recursively partitions space at the median of
// one dimension per level, cycling dimensions round-robin in order of
// workload selectivity, until leaves hold at most `page_size` points.
#ifndef TSUNAMI_BASELINES_KDTREE_H_
#define TSUNAMI_BASELINES_KDTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/common/workload_stats.h"
#include "src/storage/column_store.h"

namespace tsunami {

class KdTree : public RangePlanIndex {
 public:
  struct Options {
    int64_t page_size = 4096;
  };

  KdTree(const Dataset& data, const Workload& workload)
      : KdTree(data, workload, Options()) {}
  KdTree(const Dataset& data, const Workload& workload,
         const Options& options);

  std::string Name() const override { return "KdTree"; }
  int64_t IndexSizeBytes() const override {
    return static_cast<int64_t>(nodes_.size()) * sizeof(Node);
  }
  const ColumnStore& store() const override { return store_; }

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }
  int64_t num_leaves() const;

 private:
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override;

  struct Node {
    int64_t begin = 0;
    int64_t end = 0;
    int split_dim = -1;  // -1 for leaves.
    Value split_value = 0;
    int32_t left = -1;
    int32_t right = -1;
  };

  int32_t BuildNode(const Dataset& data, std::vector<uint32_t>* perm,
                    int64_t begin, int64_t end, int dim_cursor,
                    const Options& options);

  // Collects the leaf ranges the query must scan into `tasks`; the caller
  // submits them to the scan kernel as one batch.
  void PlanNode(int32_t node_idx, const Query& query, std::vector<Value>* lo,
                std::vector<Value>* hi, std::vector<RangeTask>* tasks,
                QueryResult* out) const;

  int dims_ = 0;
  std::vector<int> dim_order_;  // Round-robin order (by selectivity).
  std::vector<Node> nodes_;
  DimBounds bounds_;
  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_KDTREE_H_
