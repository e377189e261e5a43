#include "src/core/workload_monitor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

namespace tsunami {
namespace {

std::vector<int> FilteredDims(const Query& q) {
  std::vector<int> dims;
  for (const Predicate& p : q.filters) dims.push_back(p.dim);
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  return dims;
}

std::vector<double> Embedding(const SortedSample& sample, const Query& q,
                              const std::vector<int>& dims) {
  std::vector<double> e;
  e.reserve(dims.size());
  for (int dim : dims) {
    const Predicate* p = q.FilterOn(dim);
    e.push_back(p != nullptr ? sample.Selectivity(*p) : 1.0);
  }
  return e;
}

}  // namespace

WorkloadMonitor::WorkloadMonitor(const Dataset& sample,
                                 const Workload& typed_workload,
                                 const WorkloadMonitorOptions& options)
    : sample_(sample), options_(options) {
  // One centroid per (dimension set, type): mean embedding + frequency.
  std::map<std::pair<std::vector<int>, int>, std::vector<const Query*>>
      groups;
  for (const Query& q : typed_workload) {
    groups[{FilteredDims(q), std::max(q.type, 0)}].push_back(&q);
  }
  for (const auto& [key, members] : groups) {
    TypeCentroid centroid;
    centroid.dims = key.first;
    centroid.embedding.assign(centroid.dims.size(), 0.0);
    for (const Query* q : members) {
      std::vector<double> e = Embedding(sample_, *q, centroid.dims);
      for (size_t i = 0; i < e.size(); ++i) centroid.embedding[i] += e[i];
    }
    for (double& v : centroid.embedding) v /= members.size();
    centroid.build_fraction =
        static_cast<double>(members.size()) /
        std::max<size_t>(typed_workload.size(), 1);
    centroids_.push_back(std::move(centroid));
  }
  observed_counts_.assign(centroids_.size(), 0);
}

int WorkloadMonitor::MatchType(const Query& query) const {
  const std::vector<int> dims = FilteredDims(query);
  const std::vector<double> e = Embedding(sample_, query, dims);
  int best = -1;
  double best_dist = options_.eps;
  for (size_t c = 0; c < centroids_.size(); ++c) {
    if (centroids_[c].dims != dims) continue;
    double dist2 = 0.0;
    for (size_t i = 0; i < e.size(); ++i) {
      double d = e[i] - centroids_[c].embedding[i];
      dist2 += d * d;
    }
    double dist = std::sqrt(dist2);
    if (dist <= best_dist) {
      best_dist = dist;
      best = static_cast<int>(c);
    }
  }
  return best;
}

void WorkloadMonitor::Observe(const Query& query) {
  int type = MatchType(query);
  if (type < 0) {
    ++unknown_count_;
  } else {
    ++observed_counts_[type];
  }
  ++observed_;
}

double WorkloadMonitor::unknown_fraction() const {
  if (observed_ == 0) return 0.0;
  return static_cast<double>(unknown_count_) / observed_;
}

double WorkloadMonitor::frequency_drift() const {
  if (observed_ == 0) return 0.0;
  // Total-variation distance between build-time and observed frequencies
  // over the known types plus the "unknown" bucket.
  double tv = unknown_fraction();  // Build-time unknown mass is zero.
  for (size_t c = 0; c < centroids_.size(); ++c) {
    double observed_frac =
        static_cast<double>(observed_counts_[c]) / observed_;
    tv += std::abs(observed_frac - centroids_[c].build_fraction);
  }
  return tv / 2.0;
}

bool WorkloadMonitor::ShouldReoptimize() const {
  if (observed_ < options_.window) return false;
  return !Reason().empty();
}

std::string WorkloadMonitor::Reason() const {
  if (observed_ < options_.window) return "";
  if (unknown_fraction() > options_.new_type_threshold) {
    return "new query type";
  }
  for (size_t c = 0; c < centroids_.size(); ++c) {
    double observed_frac =
        static_cast<double>(observed_counts_[c]) / observed_;
    if (centroids_[c].build_fraction > 0.05 &&
        observed_frac <
            centroids_[c].build_fraction * options_.disappeared_factor) {
      return "type disappeared";
    }
  }
  if (frequency_drift() > options_.frequency_drift_threshold) {
    return "frequency drift";
  }
  return "";
}

void WorkloadMonitor::Reset() {
  observed_counts_.assign(centroids_.size(), 0);
  unknown_count_ = 0;
  observed_ = 0;
}

}  // namespace tsunami
