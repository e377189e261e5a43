// Query-type clustering (§4.3.1): queries filtering different dimension sets
// are distinct types; within each dimension set, queries are embedded by
// their per-dimension filter selectivities and clustered with DBSCAN
// (eps = 0.2, which the paper never needed to tune).
#ifndef TSUNAMI_CORE_QUERY_CLUSTERING_H_
#define TSUNAMI_CORE_QUERY_CLUSTERING_H_

#include <vector>

#include "src/common/types.h"
#include "src/common/workload_stats.h"

namespace tsunami {

/// Generic DBSCAN over points in R^k with Euclidean distance. Returns one
/// cluster id per point in [0, num_clusters); noise points that are not
/// density-reachable from any core point are gathered into one extra
/// cluster per call (so every point gets a usable type id).
std::vector<int> Dbscan(const std::vector<std::vector<double>>& points,
                        double eps, int min_pts, int* num_clusters);

struct ClusteringOptions {
  double eps = 0.2;
  int min_pts = 4;
};

/// Clusters `workload` into query types and returns one type id per query
/// (dense ids in [0, *num_types)). `sample` is a row sample used to
/// estimate per-dimension filter selectivities for the embeddings.
std::vector<int> ClusterQueryTypes(const SortedSample& sample,
                                   const Workload& workload,
                                   const ClusteringOptions& options,
                                   int* num_types);

/// Copies the workload with `type` set from ClusterQueryTypes.
Workload LabelQueryTypes(const SortedSample& sample, const Workload& workload,
                         const ClusteringOptions& options, int* num_types);

}  // namespace tsunami

#endif  // TSUNAMI_CORE_QUERY_CLUSTERING_H_
