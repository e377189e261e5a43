#include "src/query/router.h"

#include <algorithm>
#include <cmath>

#include "src/common/stats.h"
#include "src/core/query_clustering.h"

namespace tsunami {

AccessPathRouter::AccessPathRouter(
    std::vector<const MultiDimIndex*> indexes, const Dataset& data,
    const Workload& calibration, const Options& options)
    : indexes_(std::move(indexes)), dims_(data.dims()) {
  // Sorted per-dimension sample columns: selectivity of [lo, hi] is the
  // rank difference of its endpoints.
  int64_t n = data.size();
  int64_t stride =
      std::max<int64_t>(1, n / std::max<int64_t>(options.max_sample_rows, 1));
  sample_.resize(dims_);
  for (int d = 0; d < dims_; ++d) {
    for (int64_t r = 0; r < n; r += stride) {
      sample_[d].push_back(data.at(r, d));
    }
    std::sort(sample_[d].begin(), sample_[d].end());
  }
  if (indexes_.empty() || calibration.empty()) return;

  // Embed and cluster the calibration workload (§4.3.1): queries with
  // different dimension signatures never share a cluster, so cluster
  // within signature groups.
  std::vector<uint64_t> masks(calibration.size());
  std::vector<std::vector<double>> embeddings(calibration.size());
  for (size_t i = 0; i < calibration.size(); ++i) {
    embeddings[i] = Embed(calibration[i], &masks[i]);
  }
  std::vector<uint64_t> unique_masks = masks;
  std::sort(unique_masks.begin(), unique_masks.end());
  unique_masks.erase(std::unique(unique_masks.begin(), unique_masks.end()),
                     unique_masks.end());

  std::vector<double> total_micros(indexes_.size(), 0.0);
  for (uint64_t mask : unique_masks) {
    std::vector<int> members;
    std::vector<std::vector<double>> group;
    for (size_t i = 0; i < calibration.size(); ++i) {
      if (masks[i] == mask) {
        members.push_back(static_cast<int>(i));
        group.push_back(embeddings[i]);
      }
    }
    int num_clusters = 0;
    std::vector<int> labels =
        Dbscan(group, options.eps, options.min_pts, &num_clusters);
    for (int c = 0; c < num_clusters; ++c) {
      CalibratedType type;
      type.dim_mask = mask;
      type.centroid.assign(dims_, 0.0);
      std::vector<int> cluster_members;
      for (size_t g = 0; g < group.size(); ++g) {
        if (labels[g] != c) continue;
        cluster_members.push_back(members[g]);
        for (int d = 0; d < dims_; ++d) type.centroid[d] += group[g][d];
      }
      if (cluster_members.empty()) continue;
      type.count = static_cast<int64_t>(cluster_members.size());
      for (int d = 0; d < dims_; ++d) {
        type.centroid[d] /= static_cast<double>(type.count);
      }

      // Measure each index on an even subsample of the cluster.
      int take = std::min<int>(options.max_measured_per_type,
                               static_cast<int>(cluster_members.size()));
      type.avg_micros.assign(indexes_.size(), 0.0);
      for (size_t x = 0; x < indexes_.size(); ++x) {
        volatile int64_t sink = 0;  // Defeats dead-code elimination.
        // One untimed query first: an index's first query on this thread
        // pays one-off costs (its thread-local plan buffer, cold code) that
        // would otherwise be charged to whichever type is measured first.
        sink = sink + indexes_[x]->Execute(calibration[cluster_members[0]]).agg;
        Timer timer;
        for (int rep = 0; rep < options.repeats; ++rep) {
          for (int t = 0; t < take; ++t) {
            const Query& q =
                calibration[cluster_members[t * cluster_members.size() /
                                            take]];
            sink = sink + indexes_[x]->Execute(q).agg;
          }
        }
        type.avg_micros[x] = timer.ElapsedNanos() / 1e3 /
                             (static_cast<double>(take) * options.repeats);
        // Weight the global fallback by cluster size.
        total_micros[x] += type.avg_micros[x] * static_cast<double>(
                                                    type.count);
      }
      type.winner = static_cast<int>(
          std::min_element(type.avg_micros.begin(), type.avg_micros.end()) -
          type.avg_micros.begin());
      types_.push_back(std::move(type));
    }
  }
  if (!types_.empty()) {
    fallback_ = static_cast<int>(
        std::min_element(total_micros.begin(), total_micros.end()) -
        total_micros.begin());
  }
}

std::vector<double> AccessPathRouter::Embed(const Query& query,
                                            uint64_t* mask) const {
  *mask = 0;
  std::vector<double> embedding(dims_, 0.0);
  for (const Predicate& p : query.filters) {
    if (p.dim >= 0 && p.dim < 64) *mask |= uint64_t{1} << p.dim;
    const std::vector<Value>& column = sample_[p.dim];
    if (column.empty()) continue;
    auto lo = std::lower_bound(column.begin(), column.end(), p.lo);
    auto hi = std::upper_bound(column.begin(), column.end(), p.hi);
    embedding[p.dim] =
        static_cast<double>(hi - lo) / static_cast<double>(column.size());
  }
  return embedding;
}

int AccessPathRouter::RouteIndex(const Query& query) const {
  if (types_.empty()) return fallback_;
  uint64_t mask = 0;
  std::vector<double> embedding = Embed(query, &mask);
  const CalibratedType* best = nullptr;
  double best_dist = 0.0;
  for (const CalibratedType& type : types_) {
    if (type.dim_mask != mask) continue;
    double dist = 0.0;
    for (int d = 0; d < dims_; ++d) {
      double delta = embedding[d] - type.centroid[d];
      dist += delta * delta;
    }
    if (best == nullptr || dist < best_dist) {
      best = &type;
      best_dist = dist;
    }
  }
  // Unseen dimension signature: fall back to the global winner.
  return best != nullptr ? best->winner : fallback_;
}

const MultiDimIndex& AccessPathRouter::Route(const Query& query) const {
  return *indexes_[RouteIndex(query)];
}

QueryPlan AccessPathRouter::Prepare(const Query& query) const {
  int choice = RouteIndex(query);
  QueryPlan plan = indexes_[choice]->Prepare(query);
  plan.routed_index = choice;
  return plan;
}

QueryResult AccessPathRouter::ExecutePlan(const QueryPlan& plan,
                                          ExecContext& ctx) const {
  // Plans this router prepared carry their access path; replays skip the
  // embed + nearest-type routing cost. A foreign (untagged) plan's tasks
  // address some other index's clustered store and cannot be trusted here,
  // so only its query is honored: route and execute from scratch.
  if (plan.routed_index >= 0 &&
      plan.routed_index < static_cast<int>(indexes_.size())) {
    return indexes_[plan.routed_index]->ExecutePlan(plan, ctx);
  }
  return Route(plan.query).Execute(plan.query);
}

int64_t AccessPathRouter::IndexSizeBytes() const {
  int64_t bytes = 0;
  for (const std::vector<Value>& column : sample_) {
    bytes += static_cast<int64_t>(column.size()) * sizeof(Value);
  }
  for (const CalibratedType& type : types_) {
    bytes += static_cast<int64_t>(sizeof(CalibratedType)) +
             static_cast<int64_t>(type.centroid.size() +
                                  type.avg_micros.size()) *
                 static_cast<int64_t>(sizeof(double));
  }
  return bytes;
}

std::string AccessPathRouter::Describe() const {
  std::string out = "access-path routing table (" +
                    std::to_string(types_.size()) + " learned types)\n";
  for (const CalibratedType& type : types_) {
    out += "  dims {";
    bool first = true;
    for (int d = 0; d < dims_; ++d) {
      if ((type.dim_mask >> d) & 1) {
        if (!first) out += ",";
        out += std::to_string(d);
        first = false;
      }
    }
    out += "} x" + std::to_string(type.count) + ":";
    for (size_t x = 0; x < indexes_.size(); ++x) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s=%.1fus",
                    indexes_[x]->Name().c_str(), type.avg_micros[x]);
      out += buf;
    }
    out += " -> " + indexes_[type.winner]->Name() + "\n";
  }
  out += "  fallback -> " + indexes_[fallback_]->Name() + "\n";
  return out;
}

}  // namespace tsunami
