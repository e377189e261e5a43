#include "src/baselines/qd_tree.h"

#include <algorithm>
#include <numeric>

namespace tsunami {

namespace {

// Does `q` intersect the box spanned by [min, max]?
bool Intersects(const Query& q, const std::vector<Value>& min,
                const std::vector<Value>& max) {
  for (const Predicate& p : q.filters) {
    if (max[p.dim] < p.lo || min[p.dim] > p.hi) return false;
  }
  return true;
}

// Is the box fully inside every filter of `q`?
bool Covered(const Query& q, const std::vector<Value>& min,
             const std::vector<Value>& max) {
  for (const Predicate& p : q.filters) {
    if (p.lo > min[p.dim] || p.hi < max[p.dim]) return false;
  }
  return true;
}

}  // namespace

QdTreeIndex::QdTreeIndex(const Dataset& data, const Workload& workload,
                         const Options& options)
    : dims_(data.dims()) {
  int64_t n = data.size();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);

  // Evenly subsample the workload for cut selection.
  std::vector<const Query*> queries;
  int64_t total = static_cast<int64_t>(workload.size());
  int64_t take = std::min<int64_t>(total, options.max_sample_queries);
  for (int64_t i = 0; i < take; ++i) {
    queries.push_back(&workload[i * total / take]);
  }

  if (n > 0) {
    BuildNode(data, &perm, 0, n, queries, options, 0);
  }
  store_ = ColumnStore(data, perm);
}

int32_t QdTreeIndex::BuildNode(const Dataset& data,
                               std::vector<uint32_t>* perm, int64_t begin,
                               int64_t end,
                               const std::vector<const Query*>& queries,
                               const Options& options, int depth) {
  int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  depth_ = std::max(depth_, depth);
  {
    Node& node = nodes_[id];
    node.begin = begin;
    node.end = end;
    node.min.assign(dims_, kValueMax);
    node.max.assign(dims_, kValueMin);
    for (int64_t i = begin; i < end; ++i) {
      for (int d = 0; d < dims_; ++d) {
        Value v = data.at((*perm)[i], d);
        node.min[d] = std::min(node.min[d], v);
        node.max[d] = std::max(node.max[d], v);
      }
    }
  }

  int64_t rows = end - begin;
  if (rows <= options.min_leaf_rows || depth >= options.max_depth ||
      queries.empty()) {
    ++num_leaves_;
    return id;
  }

  // Candidate cuts: predicate boundaries that fall strictly inside the
  // node's bounds in their dimension. A cut (d, v) sends `x < v` left.
  std::vector<std::pair<int, Value>> cuts;
  for (const Query* q : queries) {
    for (const Predicate& p : q->filters) {
      if (p.lo > nodes_[id].min[p.dim] && p.lo <= nodes_[id].max[p.dim]) {
        cuts.emplace_back(p.dim, p.lo);
      }
      if (p.hi >= nodes_[id].min[p.dim] && p.hi < nodes_[id].max[p.dim] &&
          p.hi < kValueMax) {
        cuts.emplace_back(p.dim, p.hi + 1);
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  if (cuts.empty()) {
    ++num_leaves_;
    return id;
  }
  if (static_cast<int>(cuts.size()) > options.max_candidate_cuts) {
    std::vector<std::pair<int, Value>> sampled;
    for (int i = 0; i < options.max_candidate_cuts; ++i) {
      sampled.push_back(cuts[i * cuts.size() / options.max_candidate_cuts]);
    }
    cuts = std::move(sampled);
  }

  // Queries that reach this node.
  std::vector<const Query*> node_queries;
  for (const Query* q : queries) {
    if (Intersects(*q, nodes_[id].min, nodes_[id].max)) {
      node_queries.push_back(q);
    }
  }
  if (node_queries.empty()) {
    ++num_leaves_;
    return id;
  }

  // Expected scanned rows if this node stays a leaf.
  double leaf_cost =
      static_cast<double>(node_queries.size()) * static_cast<double>(rows);

  // Greedy: evaluate each candidate's expected scanned rows.
  double best_cost = leaf_cost;
  int best_dim = -1;
  Value best_cut = 0;
  for (const auto& [dim, cut] : cuts) {
    int64_t n_left = 0;
    for (int64_t i = begin; i < end; ++i) {
      n_left += data.at((*perm)[i], dim) < cut;
    }
    if (n_left == 0 || n_left == rows) continue;
    int64_t n_right = rows - n_left;
    double cost = 0.0;
    for (const Query* q : node_queries) {
      const Predicate* p = q->FilterOn(dim);
      // The child boxes differ from the parent only in `dim`.
      bool hits_left = p == nullptr || p->lo < cut;
      bool hits_right = p == nullptr || p->hi >= cut;
      if (hits_left) cost += static_cast<double>(n_left);
      if (hits_right) cost += static_cast<double>(n_right);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_dim = dim;
      best_cut = cut;
    }
  }
  if (best_dim < 0 || best_cost > leaf_cost * (1.0 - options.min_gain)) {
    ++num_leaves_;
    return id;
  }

  auto mid_it = std::stable_partition(
      perm->begin() + begin, perm->begin() + end,
      [&](uint32_t r) { return data.at(r, best_dim) < best_cut; });
  int64_t mid = mid_it - perm->begin();

  // Split the query set: children only see queries that can reach them.
  std::vector<const Query*> left_queries, right_queries;
  for (const Query* q : node_queries) {
    const Predicate* p = q->FilterOn(best_dim);
    if (p == nullptr || p->lo < best_cut) left_queries.push_back(q);
    if (p == nullptr || p->hi >= best_cut) right_queries.push_back(q);
  }

  int32_t left = BuildNode(data, perm, begin, mid, left_queries, options,
                           depth + 1);
  int32_t right =
      BuildNode(data, perm, mid, end, right_queries, options, depth + 1);
  // `nodes_` may have reallocated during recursion; re-index.
  nodes_[id].dim = best_dim;
  nodes_[id].cut = best_cut;
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

void QdTreeIndex::PlanNode(int32_t node_id, const Query& query,
                           std::vector<RangeTask>* tasks,
                           QueryResult* out) const {
  const Node& node = nodes_[node_id];
  if (!Intersects(query, node.min, node.max)) return;
  if (node.dim < 0) {
    ++out->cell_ranges;
    AppendRangeTask(tasks, RangeTask{node.begin, node.end,
                                     Covered(query, node.min, node.max)});
    return;
  }
  PlanNode(node.left, query, tasks, out);
  PlanNode(node.right, query, tasks, out);
}

void QdTreeIndex::PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                            QueryResult* counters) const {
  if (!nodes_.empty()) PlanNode(0, query, tasks, counters);
}

int64_t QdTreeIndex::IndexSizeBytes() const {
  // Per node: split metadata plus the two per-dimension bound vectors.
  return static_cast<int64_t>(nodes_.size()) *
         (sizeof(int) + sizeof(Value) + 2 * sizeof(int32_t) +
          2 * sizeof(int64_t) + 2 * dims_ * sizeof(Value));
}

}  // namespace tsunami
