#include "src/baselines/rtree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tsunami {

namespace {

/// Recursively tiles `rows` (indices into `data`) into runs of `page_size`
/// using STR: sort by the current dimension, cut into vertical slabs sized
/// so that the final dimension produces full pages, recurse per slab.
void StrTile(const Dataset& data, std::vector<uint32_t>::iterator begin,
             std::vector<uint32_t>::iterator end, int dim, int dims,
             int64_t page_size) {
  int64_t n = end - begin;
  if (n <= page_size) return;
  std::sort(begin, end, [&](uint32_t a, uint32_t b) {
    return data.at(a, dim) < data.at(b, dim);
  });
  if (dim == dims - 1) return;  // Final dimension: pages are cut in order.
  int64_t num_pages = (n + page_size - 1) / page_size;
  // S = ceil(P^(1/k)) slabs, where k dimensions remain to tile.
  int remaining = dims - dim;
  int64_t slabs = static_cast<int64_t>(std::ceil(
      std::pow(static_cast<double>(num_pages), 1.0 / remaining)));
  slabs = std::clamp<int64_t>(slabs, 1, num_pages);
  int64_t slab_rows = (n + slabs - 1) / slabs;
  for (int64_t lo = 0; lo < n; lo += slab_rows) {
    int64_t hi = std::min(lo + slab_rows, n);
    StrTile(data, begin + lo, begin + hi, dim + 1, dims, page_size);
  }
}

}  // namespace

RTreeIndex::RTreeIndex(const Dataset& data, const Options& options)
    : dims_(data.dims()) {
  const int64_t n = data.size();
  const int64_t page_size = std::max<int64_t>(options.page_size, 1);
  const int fanout = std::max(options.fanout, 2);

  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  if (n > 0 && dims_ > 0) {
    StrTile(data, perm.begin(), perm.end(), 0, dims_, page_size);
  }
  store_ = ColumnStore(data, perm);

  // Leaf level: fully packed pages over the clustered layout.
  std::vector<int32_t> level;
  for (int64_t begin = 0; begin < n; begin += page_size) {
    int64_t end = std::min(begin + page_size, n);
    Node leaf;
    leaf.begin = begin;
    leaf.end = end;
    leaf.lo.assign(dims_, kValueMax);
    leaf.hi.assign(dims_, kValueMin);
    for (int64_t r = begin; r < end; ++r) {
      for (int d = 0; d < dims_; ++d) {
        Value v = store_.Get(r, d);
        leaf.lo[d] = std::min(leaf.lo[d], v);
        leaf.hi[d] = std::max(leaf.hi[d], v);
      }
    }
    level.push_back(static_cast<int32_t>(nodes_.size()));
    nodes_.push_back(std::move(leaf));
  }
  num_leaves_ = static_cast<int64_t>(level.size());
  height_ = level.empty() ? 0 : 1;

  // Pack each level into parents of `fanout` consecutive children. STR
  // ordering makes consecutive children spatially close.
  while (level.size() > 1) {
    std::vector<int32_t> parents;
    for (size_t i = 0; i < level.size(); i += fanout) {
      size_t j = std::min(i + fanout, level.size());
      Node parent;
      parent.lo.assign(dims_, kValueMax);
      parent.hi.assign(dims_, kValueMin);
      parent.first_child = level[i];
      parent.num_children = static_cast<int32_t>(j - i);
      for (size_t c = i; c < j; ++c) {
        const Node& child = nodes_[level[c]];
        for (int d = 0; d < dims_; ++d) {
          parent.lo[d] = std::min(parent.lo[d], child.lo[d]);
          parent.hi[d] = std::max(parent.hi[d], child.hi[d]);
        }
      }
      parents.push_back(static_cast<int32_t>(nodes_.size()));
      nodes_.push_back(std::move(parent));
    }
    level = std::move(parents);
    ++height_;
  }
  root_ = level.empty() ? -1 : level[0];
}

bool RTreeIndex::Intersects(const Node& node, const Query& query) const {
  for (const Predicate& p : query.filters) {
    if (p.hi < node.lo[p.dim] || p.lo > node.hi[p.dim]) return false;
  }
  return true;
}

bool RTreeIndex::Covered(const Node& node, const Query& query) const {
  for (const Predicate& p : query.filters) {
    if (p.lo > node.lo[p.dim] || p.hi < node.hi[p.dim]) return false;
  }
  return true;
}

void RTreeIndex::PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                           QueryResult* counters) const {
  if (root_ < 0) return;
  // Iterative DFS; children of one parent are consecutive node indices.
  static thread_local std::vector<int32_t> stack;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (!Intersects(node, query)) continue;
    if (node.first_child < 0) {
      ++counters->cell_ranges;
      AppendRangeTask(tasks,
                      RangeTask{node.begin, node.end, Covered(node, query)});
      continue;
    }
    for (int32_t c = 0; c < node.num_children; ++c) {
      stack.push_back(node.first_child + c);
    }
  }
}

int64_t RTreeIndex::IndexSizeBytes() const {
  // Each node stores a 2*dims MBR plus child/range bookkeeping.
  return static_cast<int64_t>(nodes_.size()) *
         (2 * dims_ * static_cast<int64_t>(sizeof(Value)) + 24);
}

}  // namespace tsunami
