#include "src/baselines/octree.h"

#include <algorithm>
#include <map>
#include <numeric>

namespace tsunami {

HyperOctree::HyperOctree(const Dataset& data, const Options& options)
    : dims_(data.dims()), bounds_(ComputeBounds(data)) {
  std::vector<uint32_t> perm(data.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<Value> lo = bounds_.lo;
  std::vector<Value> hi = bounds_.hi;
  if (data.size() > 0) {
    BuildNode(data, &perm, 0, data.size(), &lo, &hi, 0, options);
  }
  store_ = ColumnStore(data, perm);
}

int32_t HyperOctree::BuildNode(const Dataset& data,
                               std::vector<uint32_t>* perm, int64_t begin,
                               int64_t end, std::vector<Value>* lo,
                               std::vector<Value>* hi, int depth,
                               const Options& options) {
  int32_t idx = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(Node{begin, end, true, {}});
  bool splittable = false;
  for (int d = 0; d < dims_; ++d) {
    if ((*lo)[d] < (*hi)[d]) splittable = true;
  }
  if (end - begin <= options.page_size || depth >= options.max_depth ||
      !splittable) {
    return idx;
  }

  // Partition rows into hyperoctants around the box midpoint.
  std::vector<Value> mid(dims_);
  for (int d = 0; d < dims_; ++d) {
    mid[d] = (*lo)[d] + ((*hi)[d] - (*lo)[d]) / 2;
  }
  std::map<uint32_t, std::vector<uint32_t>> octants;  // Ordered for DFS.
  for (int64_t r = begin; r < end; ++r) {
    uint32_t row = (*perm)[r];
    uint32_t code = 0;
    for (int d = 0; d < dims_; ++d) {
      if (data.at(row, d) > mid[d]) code |= 1u << d;
    }
    octants[code].push_back(row);
  }
  if (octants.size() <= 1) {
    // All points in one octant (heavy duplication): subdividing cannot make
    // progress beyond shrinking the box; recurse with the shrunk box.
    uint32_t code = octants.begin()->first;
    std::vector<Value> clo = *lo, chi = *hi;
    for (int d = 0; d < dims_; ++d) {
      if (code & (1u << d)) {
        clo[d] = std::min(mid[d] + 1, (*hi)[d]);
      } else {
        chi[d] = mid[d];
      }
    }
    nodes_[idx].is_leaf = false;
    int32_t child =
        BuildNode(data, perm, begin, end, &clo, &chi, depth + 1, options);
    nodes_[idx].children.emplace_back(code, child);
    return idx;
  }

  nodes_[idx].is_leaf = false;
  int64_t offset = begin;
  for (auto& [code, rows] : octants) {
    int64_t child_begin = offset;
    for (uint32_t row : rows) (*perm)[offset++] = row;
    std::vector<Value> clo = *lo, chi = *hi;
    for (int d = 0; d < dims_; ++d) {
      if (code & (1u << d)) {
        clo[d] = std::min(mid[d] + 1, (*hi)[d]);
      } else {
        chi[d] = mid[d];
      }
    }
    int32_t child = BuildNode(data, perm, child_begin, offset, &clo, &chi,
                              depth + 1, options);
    nodes_[idx].children.emplace_back(code, child);
  }
  return idx;
}

void HyperOctree::PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                            QueryResult* counters) const {
  if (nodes_.empty()) return;
  std::vector<Value> lo = bounds_.lo;
  std::vector<Value> hi = bounds_.hi;
  PlanNode(0, query, &lo, &hi, tasks, counters);
}

void HyperOctree::PlanNode(int32_t node_idx, const Query& query,
                           std::vector<Value>* lo, std::vector<Value>* hi,
                           std::vector<RangeTask>* tasks,
                           QueryResult* out) const {
  const Node& node = nodes_[node_idx];
  if (node.is_leaf) {
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
  std::vector<Value> mid(dims_);
  for (int d = 0; d < dims_; ++d) {
    mid[d] = (*lo)[d] + ((*hi)[d] - (*lo)[d]) / 2;
  }
  for (const auto& [code, child] : node.children) {
    std::vector<Value> clo = *lo, chi = *hi;
    for (int d = 0; d < dims_; ++d) {
      if (code & (1u << d)) {
        clo[d] = std::min(mid[d] + 1, (*hi)[d]);
      } else {
        chi[d] = mid[d];
      }
    }
    bool intersects = true;
    for (const Predicate& p : query.filters) {
      if (p.hi < clo[p.dim] || p.lo > chi[p.dim]) {
        intersects = false;
        break;
      }
    }
    if (intersects) PlanNode(child, query, &clo, &chi, tasks, out);
  }
}

int64_t HyperOctree::IndexSizeBytes() const {
  int64_t bytes = 0;
  for (const Node& node : nodes_) {
    bytes += sizeof(Node) +
             static_cast<int64_t>(node.children.size()) *
                 sizeof(std::pair<uint32_t, int32_t>);
  }
  return bytes;
}

}  // namespace tsunami
