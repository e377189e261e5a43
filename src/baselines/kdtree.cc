#include "src/baselines/kdtree.h"

#include <algorithm>
#include <numeric>

#include "src/common/random.h"

namespace tsunami {

KdTree::KdTree(const Dataset& data, const Workload& workload,
               const Options& options)
    : dims_(data.dims()), bounds_(ComputeBounds(data)) {
  Rng rng(11);
  const SortedSample sample(SampleDataset(data, 20000, &rng));
  dim_order_ = DimsBySelectivity(sample, workload, dims_);
  std::vector<uint32_t> perm(data.size());
  std::iota(perm.begin(), perm.end(), 0u);
  if (data.size() > 0) {
    BuildNode(data, &perm, 0, data.size(), 0, options);
  }
  store_ = ColumnStore(data, perm);
}

int32_t KdTree::BuildNode(const Dataset& data, std::vector<uint32_t>* perm,
                          int64_t begin, int64_t end, int dim_cursor,
                          const Options& options) {
  int32_t idx = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(Node{begin, end, -1, 0, -1, -1});
  if (end - begin <= options.page_size) return idx;

  // Pick the next dimension in round-robin order that can actually split
  // this segment (not all values equal).
  int dim = -1;
  for (int attempt = 0; attempt < dims_; ++attempt) {
    int candidate = dim_order_[(dim_cursor + attempt) % dims_];
    Value first = data.at((*perm)[begin], candidate);
    for (int64_t r = begin + 1; r < end; ++r) {
      if (data.at((*perm)[r], candidate) != first) {
        dim = candidate;
        dim_cursor = dim_cursor + attempt;
        break;
      }
    }
    if (dim >= 0) break;
  }
  if (dim < 0) return idx;  // All rows identical across dimensions.

  int64_t mid = begin + (end - begin) / 2;
  std::nth_element(perm->begin() + begin, perm->begin() + mid,
                   perm->begin() + end, [&](uint32_t a, uint32_t b) {
                     return data.at(a, dim) < data.at(b, dim);
                   });
  Value split = data.at((*perm)[mid], dim);
  // Ensure strict progress: move `mid` past duplicates of the split value so
  // the left side holds values <= split and the right side values > split.
  auto is_le = [&](uint32_t row) { return data.at(row, dim) <= split; };
  mid = std::partition(perm->begin() + begin + (mid - begin),
                       perm->begin() + end, is_le) -
        perm->begin();
  if (mid == end) {
    // All values <= split; split at values < split instead.
    mid = std::partition(perm->begin() + begin, perm->begin() + end,
                         [&](uint32_t row) { return data.at(row, dim) < split; }) -
          perm->begin();
    split = split - 1;  // Left now holds values <= split-1 < split.
  }

  Node node = nodes_[idx];
  node.split_dim = dim;
  node.split_value = split;
  nodes_[idx] = node;
  int32_t left =
      BuildNode(data, perm, begin, mid, (dim_cursor + 1) % dims_, options);
  int32_t right =
      BuildNode(data, perm, mid, end, (dim_cursor + 1) % dims_, options);
  nodes_[idx].split_dim = dim;
  nodes_[idx].split_value = split;
  nodes_[idx].left = left;
  nodes_[idx].right = right;
  return idx;
}

void KdTree::PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                       QueryResult* counters) const {
  if (nodes_.empty()) return;
  std::vector<Value> lo = bounds_.lo;
  std::vector<Value> hi = bounds_.hi;
  PlanNode(0, query, &lo, &hi, tasks, counters);
}

void KdTree::PlanNode(int32_t node_idx, const Query& query,
                      std::vector<Value>* lo, std::vector<Value>* hi,
                      std::vector<RangeTask>* tasks, QueryResult* out) const {
  const Node& node = nodes_[node_idx];
  if (node.split_dim < 0) {
    bool exact = true;
    for (const Predicate& p : query.filters) {
      if (p.lo > (*lo)[p.dim] || p.hi < (*hi)[p.dim]) {
        exact = false;
        break;
      }
    }
    ++out->cell_ranges;
    AppendRangeTask(tasks, RangeTask{node.begin, node.end, exact});
    return;
  }
  int dim = node.split_dim;
  const Predicate* p = query.FilterOn(dim);
  // Left child: values <= split; right child: values > split.
  if (p == nullptr || p->lo <= node.split_value) {
    Value saved = (*hi)[dim];
    (*hi)[dim] = std::min(saved, node.split_value);
    PlanNode(node.left, query, lo, hi, tasks, out);
    (*hi)[dim] = saved;
  }
  if (p == nullptr || p->hi > node.split_value) {
    Value saved = (*lo)[dim];
    (*lo)[dim] = std::max(saved, node.split_value + 1);
    PlanNode(node.right, query, lo, hi, tasks, out);
    (*lo)[dim] = saved;
  }
}

int64_t KdTree::num_leaves() const {
  int64_t leaves = 0;
  for (const Node& node : nodes_) {
    if (node.split_dim < 0) ++leaves;
  }
  return leaves;
}

}  // namespace tsunami
