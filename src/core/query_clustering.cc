#include "src/core/query_clustering.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>

namespace tsunami {

std::vector<int> Dbscan(const std::vector<std::vector<double>>& points,
                        double eps, int min_pts, int* num_clusters) {
  int n = static_cast<int>(points.size());
  std::vector<int> label(n, -1);  // -1 = unvisited/noise.
  double eps2 = eps * eps;
  auto dist2 = [&](int a, int b) {
    double s = 0.0;
    size_t k = std::min(points[a].size(), points[b].size());
    for (size_t i = 0; i < k; ++i) {
      double d = points[a][i] - points[b][i];
      s += d * d;
    }
    return s;
  };
  auto neighbors = [&](int i) {
    std::vector<int> out;
    for (int j = 0; j < n; ++j) {
      if (dist2(i, j) <= eps2) out.push_back(j);
    }
    return out;
  };

  int next_cluster = 0;
  for (int i = 0; i < n; ++i) {
    if (label[i] != -1) continue;
    std::vector<int> seeds = neighbors(i);
    if (static_cast<int>(seeds.size()) < min_pts) continue;  // Not core.
    int cluster = next_cluster++;
    label[i] = cluster;
    std::queue<int> frontier;
    for (int j : seeds) frontier.push(j);
    while (!frontier.empty()) {
      int j = frontier.front();
      frontier.pop();
      if (label[j] != -1) continue;
      label[j] = cluster;
      std::vector<int> js = neighbors(j);
      if (static_cast<int>(js.size()) >= min_pts) {
        for (int k : js) {
          if (label[k] == -1) frontier.push(k);
        }
      }
    }
  }
  // Gather remaining noise points into one catch-all cluster.
  bool has_noise = false;
  for (int i = 0; i < n; ++i) {
    if (label[i] == -1) {
      has_noise = true;
      label[i] = next_cluster;
    }
  }
  if (has_noise) ++next_cluster;
  if (num_clusters != nullptr) *num_clusters = next_cluster;
  return label;
}

std::vector<int> ClusterQueryTypes(const SortedSample& sample,
                                   const Workload& workload,
                                   const ClusteringOptions& options,
                                   int* num_types) {
  int n = static_cast<int>(workload.size());
  std::vector<int> type(n, 0);
  // Group queries by the exact set of dimensions they filter.
  std::map<std::vector<int>, std::vector<int>> groups;
  for (int i = 0; i < n; ++i) {
    std::vector<int> dims;
    for (const Predicate& p : workload[i].filters) dims.push_back(p.dim);
    std::sort(dims.begin(), dims.end());
    groups[dims].push_back(i);
  }
  int next_type = 0;
  for (const auto& [dims, members] : groups) {
    // Selectivity embedding: one coordinate per filtered dimension.
    std::vector<std::vector<double>> embeddings(members.size());
    for (size_t m = 0; m < members.size(); ++m) {
      const Query& q = workload[members[m]];
      for (int dim : dims) {
        const Predicate* p = q.FilterOn(dim);
        embeddings[m].push_back(p != nullptr ? sample.Selectivity(*p) : 1.0);
      }
    }
    int clusters = 0;
    std::vector<int> local =
        Dbscan(embeddings, options.eps, options.min_pts, &clusters);
    for (size_t m = 0; m < members.size(); ++m) {
      type[members[m]] = next_type + local[m];
    }
    next_type += std::max(clusters, 1);
  }
  if (num_types != nullptr) *num_types = next_type;
  return type;
}

Workload LabelQueryTypes(const SortedSample& sample, const Workload& workload,
                         const ClusteringOptions& options, int* num_types) {
  std::vector<int> types =
      ClusterQueryTypes(sample, workload, options, num_types);
  Workload labeled = workload;
  for (size_t i = 0; i < labeled.size(); ++i) labeled[i].type = types[i];
  return labeled;
}

}  // namespace tsunami
