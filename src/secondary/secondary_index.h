// Secondary indexes over a host-clustered table.
//
// The paper's introduction motivates clustered multi-dimensional indexes by
// the weaknesses of secondary indexes: "their large storage overhead and
// the latency incurred by chasing pointers make them viable only when the
// predicate on the indexed dimension has a very high selectivity" (§1), and
// §7 discusses Correlation Map [20] and Hermit [45], which shrink secondary
// indexes by exploiting column correlation. This module makes both claims
// reproducible:
//
//  * SortedSecondaryIndex — the conventional design: a sorted
//    (value, row id) list over one column of a table clustered by another.
//    Lookups chase row ids into the host store (random access), so cost
//    scales with the candidate count; storage is O(n).
//  * CorrelationSecondaryIndex — a Hermit/Correlation-Map-style learned
//    design: per-segment robust linear mappings from the indexed column to
//    the host (clustered) column plus an explicit outlier row-id buffer.
//    A filter over the indexed column becomes a host-range scan, and the
//    structure is model-sized instead of O(n).
//
// Both implement MultiDimIndex over a store sorted by the host dimension,
// so they slot directly into the benchmark harness; bench_secondary
// reproduces the selectivity crossover and the size gap.
#ifndef TSUNAMI_SECONDARY_SECONDARY_INDEX_H_
#define TSUNAMI_SECONDARY_SECONDARY_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/linear_model.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

/// Conventional secondary index: sorted (value, row id) pairs over
/// `key_dim` of a table clustered by `host_dim`. Queries filtering
/// `key_dim` probe candidates by row id; anything else falls back to a
/// scan of the host-sorted store (using the host filter when present).
class SortedSecondaryIndex : public MultiDimIndex {
 public:
  SortedSecondaryIndex(const Dataset& data, int host_dim, int key_dim);

  std::string Name() const override { return "SecondaryBTree"; }
  QueryResult Execute(const Query& query) const override;

  /// Host-scan queries (no key filter) plan their bounded host range as a
  /// task batch. Key-filtered queries plan no tasks: random row-id chasing
  /// cannot be expressed as contiguous RangeTasks, so FinishPlan runs the
  /// probes.
  QueryPlan Prepare(const Query& query) const override;
  void FinishPlan(const QueryPlan& plan, QueryResult* result) const override;

  /// The entry list: one (value, row id) pair per row.
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return store_; }

  int key_dim() const { return key_dim_; }

 private:
  /// Probes every row whose key lies in the query's key filter.
  void ProbeKeys(const Query& query, QueryResult* out) const;

  int host_dim_ = 0;
  int key_dim_ = 0;
  std::vector<Value> keys_;      // Sorted.
  std::vector<uint32_t> rows_;   // Parallel to keys_.
  ColumnStore store_;            // Clustered by host_dim_.
};

/// Hermit-style learned secondary index: segments the indexed column,
/// fits a robust bounded linear mapping key -> host per segment, and
/// buffers rows outside the tightened error band in an explicit outlier
/// list. A filter [lo, hi] over the key maps to one host range per
/// overlapping segment (merged when adjacent), scanned in the clustered
/// store; outliers are probed individually.
class CorrelationSecondaryIndex : public MultiDimIndex {
 public:
  struct Options {
    int segments = 64;
    /// Residual quantile fence: rows outside the
    /// [fraction, 1 - fraction] residual band of their segment become
    /// outliers when that tightens the band by at least `min_shrink`.
    double outlier_fraction = 0.01;
    double min_shrink = 2.0;
  };

  CorrelationSecondaryIndex(const Dataset& data, int host_dim, int key_dim)
      : CorrelationSecondaryIndex(data, host_dim, key_dim, Options()) {}
  CorrelationSecondaryIndex(const Dataset& data, int host_dim, int key_dim,
                            const Options& options);

  std::string Name() const override { return "SecondaryHermit"; }
  QueryResult Execute(const Query& query) const override;

  /// Plans the merged host ranges (key-filtered queries) or the bounded
  /// host scan up front; execution scans them as one batch and then probes
  /// the uncovered outliers (the plan epilogue below).
  QueryPlan Prepare(const Query& query) const override;

  /// Probes the outlier rows no planned range covers — the non-range half
  /// of a Hermit plan, run by base ExecutePlan and by QueryService's Await
  /// after the task scans.
  void FinishPlan(const QueryPlan& plan, QueryResult* result) const override;

  /// Segment boundaries + models + outlier row ids: model-sized.
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return store_; }

  int64_t num_outliers() const {
    return static_cast<int64_t>(outliers_.size());
  }
  int num_segments() const { return static_cast<int>(models_.size()); }

 private:
  struct Segment {
    Value key_lo = 0;  // Inclusive key range this segment covers.
    Value key_hi = 0;
  };

  int host_dim_ = 0;
  int key_dim_ = 0;
  std::vector<Segment> segments_;
  std::vector<BoundedLinearModel> models_;  // Parallel to segments_.
  std::vector<uint32_t> outliers_;          // Host-store row ids, sorted.
  ColumnStore store_;                       // Clustered by host_dim_.
};

}  // namespace tsunami

#endif  // TSUNAMI_SECONDARY_SECONDARY_INDEX_H_
