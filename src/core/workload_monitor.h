// Workload-shift detection (§8 "Data and Workload Shift"): Tsunami adapts
// quickly once re-optimization is triggered, but the paper leaves open how
// to *detect* that the workload changed. This monitor implements the
// detectors the paper proposes: an existing query type disappearing, a new
// query type appearing, and relative type frequencies drifting.
#ifndef TSUNAMI_CORE_WORKLOAD_MONITOR_H_
#define TSUNAMI_CORE_WORKLOAD_MONITOR_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/common/workload_stats.h"

namespace tsunami {

struct WorkloadMonitorOptions {
  /// Distance threshold for "this query belongs to a known type": same as
  /// the clustering eps (§4.3.1).
  double eps = 0.2;
  /// Observations to accumulate before judging (a full window).
  int window = 256;
  /// Fraction of recent queries not matching any build-time type that
  /// signals a new query type.
  double new_type_threshold = 0.20;
  /// Total-variation distance between build-time and observed type
  /// frequencies that signals drift.
  double frequency_drift_threshold = 0.30;
  /// Fraction below which a formerly-common type counts as disappeared.
  double disappeared_factor = 0.10;
};

/// Tracks observed queries against the workload the index was optimized
/// for and reports when re-optimization is merited.
///
/// Build-time query types are summarized by centroids of the same
/// selectivity embeddings used for clustering (§4.3.1): one centroid per
/// (filtered-dimension-set, type) pair.
class WorkloadMonitor {
 public:
  /// `sample` estimates filter selectivities; `typed_workload` must carry
  /// type labels (e.g. from LabelQueryTypes or TsunamiIndex's clustering).
  WorkloadMonitor(const Dataset& sample, const Workload& typed_workload,
                  const WorkloadMonitorOptions& options =
                      WorkloadMonitorOptions());

  /// Records one executed query.
  void Observe(const Query& query);

  /// True once a full window has been observed and at least one detector
  /// fires. Call Reset() after re-optimizing.
  bool ShouldReoptimize() const;

  /// Human-readable reason for the last ShouldReoptimize() == true, empty
  /// otherwise ("new query type", "type disappeared", "frequency drift").
  std::string Reason() const;

  /// Clears the observation window (after a rebuild).
  void Reset();

  int64_t observed() const { return observed_; }
  double unknown_fraction() const;
  double frequency_drift() const;

 private:
  struct TypeCentroid {
    std::vector<int> dims;           // Sorted filtered-dimension set.
    std::vector<double> embedding;   // Mean per-dim selectivity.
    double build_fraction = 0.0;     // Frequency in the build workload.
  };

  // Index of the centroid matching `query` within eps, or -1.
  int MatchType(const Query& query) const;

  SortedSample sample_;
  WorkloadMonitorOptions options_;
  std::vector<TypeCentroid> centroids_;
  std::vector<int64_t> observed_counts_;  // Per centroid.
  int64_t unknown_count_ = 0;
  int64_t observed_ = 0;
};

}  // namespace tsunami

#endif  // TSUNAMI_CORE_WORKLOAD_MONITOR_H_
