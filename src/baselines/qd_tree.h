// Qd-tree (Yang et al. 2020, cited [46] in the paper): a workload-aware
// binary partitioning of the data into blocks, chosen to minimize the
// number of rows in blocks a query must read. The original paper targets
// disk blocks and trains cuts with reinforcement learning; this is the
// greedy variant it also describes, evaluated in-memory over the same
// column store as every other index here.
//
// Candidate cuts come from the workload's predicate boundaries (the
// qd-tree "cut set"); each node greedily takes the cut with the lowest
// expected scanned-rows cost over the queries that reach it. Like the Grid
// Tree, the qd-tree adapts to query skew; unlike Tsunami, its leaves are
// opaque blocks with no intra-block structure, so every intersecting block
// is scanned in full.
#ifndef TSUNAMI_BASELINES_QD_TREE_H_
#define TSUNAMI_BASELINES_QD_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

class QdTreeIndex : public RangePlanIndex {
 public:
  struct Options {
    /// Stop splitting below this many rows (the paper's block-size floor).
    int64_t min_leaf_rows = 4096;
    /// Queries sampled from the workload for cut selection.
    int max_sample_queries = 256;
    /// Candidate cuts evaluated per node (evenly subsampled when the
    /// workload offers more).
    int max_candidate_cuts = 64;
    /// A cut must reduce expected scanned rows by at least this fraction.
    double min_gain = 0.01;
    int max_depth = 32;
  };

  QdTreeIndex(const Dataset& data, const Workload& workload)
      : QdTreeIndex(data, workload, Options()) {}
  QdTreeIndex(const Dataset& data, const Workload& workload,
              const Options& options);

  std::string Name() const override { return "Qd-tree"; }
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return store_; }

  int64_t num_leaves() const { return num_leaves_; }
  int depth() const { return depth_; }

 private:
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override;

  struct Node {
    int dim = -1;       // Split dimension; -1 for leaves.
    Value cut = 0;      // Left: value < cut; right: value >= cut.
    int32_t left = -1;  // Child node ids; -1 for leaves.
    int32_t right = -1;
    int64_t begin = 0;  // Row range [begin, end) in the clustered store.
    int64_t end = 0;
    std::vector<Value> min;  // Per-dimension bounds of rows in the subtree
    std::vector<Value> max;  // (for exactness checks and skipping).
  };

  // Recursive build over perm[begin, end); returns the node id.
  int32_t BuildNode(const Dataset& data, std::vector<uint32_t>* perm,
                    int64_t begin, int64_t end,
                    const std::vector<const Query*>& queries,
                    const Options& options, int depth);

  // Collects the leaf ranges the query must scan into `tasks`; the caller
  // submits them to the scan kernel as one batch.
  void PlanNode(int32_t node_id, const Query& query,
                std::vector<RangeTask>* tasks, QueryResult* out) const;

  int dims_ = 0;
  std::vector<Node> nodes_;
  int64_t num_leaves_ = 0;
  int depth_ = 0;
  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_QD_TREE_H_
