// ZM-index (Wang et al. 2019, cited [44] in the paper): the standard
// Z-order space-filling curve combined with an RMI learned over the
// Z-addresses. Rows are sorted by Morton code; a two-layer RMI predicts a
// row's position from its code, replacing the page directory of a
// conventional Z-order index.
//
// The ZM-index learns only from the *data* distribution, never from the
// query workload — the property §7 contrasts with Tsunami. It appears here
// (with the greedy qd-tree, qd_tree.h) so that contrast is reproducible:
// see bench_related_baselines.
#ifndef TSUNAMI_BASELINES_ZM_INDEX_H_
#define TSUNAMI_BASELINES_ZM_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cdf/cdf_model.h"
#include "src/common/index.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

class ZmIndex : public RangePlanIndex {
 public:
  struct Options {
    int bits_per_dim = 0;  // 0 = auto: min(16, 63 / dims).
    int rmi_leaves = 256;
    /// Knots per bucket CDF model. Bucketing only requires that build and
    /// query use the same monotone model, so a compact model stays correct;
    /// coarser models just widen the scanned Z-range.
    int cdf_knots = 1024;
  };

  explicit ZmIndex(const Dataset& data) : ZmIndex(data, Options()) {}
  ZmIndex(const Dataset& data, const Options& options);

  std::string Name() const override { return "ZM-index"; }

  /// Bucket models + RMI + error bound. The Z-addresses themselves are not
  /// materialized: they are recomputed from the clustered store on demand,
  /// so the index overhead stays model-sized.
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return store_; }

  /// Worst-case RMI position error observed at build time (rows).
  int64_t max_error() const { return max_error_; }

 private:
  /// One range: the rows whose Z-addresses lie between the query box's
  /// corner codes, located through the RMI plus a last-mile search.
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override;

  uint32_t BucketOf(int dim, Value v) const;
  uint64_t CodeOfRow(int64_t row) const;

  /// First row index in [lo, hi) whose Z-address is >= z.
  int64_t LowerBound(int64_t lo, int64_t hi, uint64_t z) const;

  int dims_ = 0;
  int bits_per_dim_ = 8;
  int64_t num_rows_ = 0;
  std::vector<std::unique_ptr<EquiDepthCdf>> bucket_models_;
  std::unique_ptr<RmiCdf> rmi_;
  int64_t max_error_ = 0;
  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_ZM_INDEX_H_
