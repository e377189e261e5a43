// The analytic query cost model (§5.3.1):
//   Time = w0 * (#cell ranges) + w1 * (#scanned points) * (#filtered dims)
// and a sample-based evaluator that predicts it for any (skeleton,
// partitions) candidate without building the grid.
#ifndef TSUNAMI_CORE_COST_MODEL_H_
#define TSUNAMI_CORE_COST_MODEL_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/linear_model.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/core/skeleton.h"
#include "src/storage/scan_kernel.h"

namespace tsunami {

class ExecContext;
struct QueryPlan;

/// Cost-model weights, in nanoseconds. w0 is the cost of one lookup-table
/// access plus the cache miss of jumping to a new physical range; w1 the
/// cost of scanning one dimension of one point.
///
/// The per-width terms refine w1 for encoded blocks: scanning a dimension
/// whose blocks narrowed to 8/16/32-bit codes costs proportionally less
/// bandwidth and packs more lanes per vector. 0 means uncalibrated — every
/// consumer falls back to w1, which keeps default-constructed weights
/// exactly at the pre-encoding model. CalibrateCostWeights measures all
/// four terms; the evaluator picks one per filtered dimension from an
/// estimate of that dimension's block value span under the candidate
/// layout (the sort dimension's blocks are narrow, other dimensions span
/// roughly one cell).
struct CostWeights {
  double w0 = 400.0;
  double w1 = 1.5;
  double w1_u8 = 0.0;
  double w1_u16 = 0.0;
  double w1_u32 = 0.0;

  /// The scan term for a dimension whose typical block spans `span` values
  /// (w1 when uncalibrated, narrowing disabled, or the span needs raw
  /// 64-bit blocks).
  double ScanCostForSpan(double span) const {
    if (span < 0.0 || span > 4294967295.0) return w1;
    if (span <= 255.0) return w1_u8 > 0.0 ? w1_u8 : w1;
    if (span <= 65535.0) return w1_u16 > 0.0 ? w1_u16 : w1;
    return w1_u32 > 0.0 ? w1_u32 : w1;
  }
};

/// Micro-measures w0/w1 on this machine (used by benches for Fig. 12b's
/// predicted-vs-actual comparison). Takes ~100 ms. The scan half runs the
/// same batched kernel path real queries execute, under `options` — pass
/// the ExecContext's ScanOptions (e.g. a forced SIMD tier) so calibrated
/// costs match the tier used at execution time.
CostWeights CalibrateCostWeights(const ScanOptions& options = {});

/// Calibrates with the scan options (SIMD tier) of the context that will
/// execute the queries.
CostWeights CalibrateCostWeights(const ExecContext& ctx);

/// Predicted execution time in nanoseconds for an already-prepared plan of
/// any index, straight from the §5.3.1 analytic form: w0 per planned range
/// plus the per-row scan term over the rows the ranges cover — filtered
/// dimensions for inexact ranges, aggregate columns for exact ones. This
/// is the admission-control half of the model: QueryService compares it
/// against a query's deadline budget and rejects (kDeadlineInfeasible) work
/// that could not finish even on an idle machine. FinishPlan work (delta
/// chunks, secondary-index probes) is not charged, so a plan with no tasks
/// predicts 0 and is never rejected.
double PredictPlanNanos(const QueryPlan& plan, const CostWeights& weights);

/// Predicts average query time for Augmented Grid candidates over a region,
/// using a point sample and a query subsample (§5.3.1: "the features of
/// this cost model can be efficiently computed or estimated").
class GridCostEvaluator {
 public:
  /// `rows` are the region's row ids into `data`; `queries` the queries
  /// intersecting the region.
  GridCostEvaluator(const Dataset& data, const std::vector<uint32_t>& rows,
                    const Workload& queries, int max_sample_points,
                    int max_sample_queries, uint64_t seed);

  /// Predicted average per-query time in ns over the query subsample.
  /// `sort_dim` = -1 picks the default heuristic (most selective non-base
  /// grid dimension); the optimizer searches over explicit choices. The
  /// candidate's layout on the point sample (grid dimension order, sort
  /// dimension, conditional structures, every point's partitions) is built
  /// once per call and shared by every sample query.
  double Cost(const Skeleton& skeleton, const std::vector<int>& partitions,
              const CostWeights& weights, int sort_dim = -1) const;

  /// Predicted time in ns for one specific query (used for Fig. 12b).
  double PredictQueryNanos(const Skeleton& skeleton,
                           const std::vector<int>& partitions,
                           const CostWeights& weights, const Query& query,
                           int sort_dim = -1) const;

  // --- Workload/data statistics used by the optimizer's heuristics. ---
  int dims() const { return dims_; }
  int64_t region_rows() const { return total_rows_; }
  int sample_points() const { return n_; }
  /// The point sample's values in `dim`, in sample order.
  const std::vector<Value>& sample_column(int dim) const { return vals_[dim]; }
  /// The query subsample Cost averages over.
  const Workload& sample_queries() const { return queries_; }
  double avg_selectivity(int dim) const { return avg_sel_[dim]; }
  bool is_filtered(int dim) const { return filtered_[dim]; }
  /// Most- to least-selective dimension order (never-filtered last).
  const std::vector<int>& selectivity_order() const { return sel_order_; }
  /// Sample Pearson correlation between two dimensions.
  double correlation(int x, int y) const { return corr_[x][y]; }
  /// Width of the functional-mapping error band for mapping x -> y,
  /// relative to y's domain (the §5.3.2 "10% of Y's domain" heuristic).
  double FmErrorBandRatio(int x, int y) const;
  /// Fraction of empty cells in a g-by-g equi-depth grid over (x, y)
  /// (the §5.3.2 "25% of cells in the XY hyperplane empty" heuristic).
  double EmptyCellFraction(int x, int y, int g = 16) const;

 private:
  struct Layout;
  Layout BuildLayout(const Skeleton& skeleton,
                     const std::vector<int>& partitions, int sort_dim) const;
  // One query's prediction over a built layout.
  double QueryNanos(const Layout& layout, const Skeleton& skeleton,
                    const std::vector<int>& partitions,
                    const CostWeights& weights, const Query& query) const;
  const BoundedLinearModel& FittedFm(int mapped, int target) const;
  int PartOfRank(int64_t rank, int p) const {
    int idx = static_cast<int>(rank * p / std::max(n_, 1));
    return idx < 0 ? 0 : (idx >= p ? p - 1 : idx);
  }

  int dims_ = 0;
  int n_ = 0;  // Sample size.
  int64_t total_rows_ = 0;
  double scale_ = 1.0;  // total_rows_ / n_.
  std::vector<std::vector<Value>> vals_;    // [dim][point].
  std::vector<std::vector<Value>> sorted_;  // [dim], ascending.
  // Per-dim value spans used to estimate block code widths: the typical
  // span of a kScanBlockRows-row window of the dimension's sorted order
  // (what blocks of the sort dimension see) and the full domain span.
  std::vector<double> local_span_;
  std::vector<double> full_span_;
  std::vector<std::vector<int32_t>> rank_;  // [dim][point], 0..n-1 distinct.
  std::vector<std::vector<int32_t>> order_;  // [dim], points by ascending value.
  Workload queries_;
  std::vector<double> avg_sel_;
  std::vector<bool> filtered_;
  std::vector<int> sel_order_;
  std::vector<std::vector<double>> corr_;
  mutable std::map<std::pair<int, int>, BoundedLinearModel> fm_cache_;
};

}  // namespace tsunami

#endif  // TSUNAMI_CORE_COST_MODEL_H_
