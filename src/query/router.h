// Access-path routing: pick the cheapest index for each query.
//
// The paper envisions Tsunami as "the building block for a
// multi-dimensional in-memory key-value store or ... commercial in-memory
// analytics accelerators" (§1). An integrating system rarely has exactly
// one access path: alongside the clustered multi-dimensional index there
// are secondary indexes (src/secondary) whose cost profile is the mirror
// image — unbeatable for needle lookups, linearly degrading for wide
// ranges (§1, bench_secondary). The router makes the choice per query, the
// same way Tsunami itself adapts: learn from a sample workload.
//
// Calibration clusters the sample into query types (§4.3.1 machinery:
// dimension-set signature + selectivity embedding, DBSCAN) and measures
// every index on every type. At query time the query is embedded, matched
// to the nearest calibrated type with the same dimension signature, and
// dispatched to that type's winner.
#ifndef TSUNAMI_QUERY_ROUTER_H_
#define TSUNAMI_QUERY_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"

namespace tsunami {

/// Implements MultiDimIndex itself, so a router slots anywhere an index
/// does: behind a QueryEngine (SQL over routed access paths), inside
/// RunWorkload, or even as an input to another router.
class AccessPathRouter : public MultiDimIndex {
 public:
  struct Options {
    /// Queries measured per (type, index) pair: min(cluster size, this).
    int max_measured_per_type = 16;
    /// Timing repeats per measured query.
    int repeats = 2;
    /// Row sample used for selectivity embeddings.
    int64_t max_sample_rows = 20000;
    /// DBSCAN parameters (§4.3.1 defaults).
    double eps = 0.2;
    int min_pts = 4;
  };

  /// `indexes` are borrowed and must outlive the router; at least one is
  /// required and all must hold the same logical table. `data` supplies
  /// the selectivity sample; `calibration` is the sample workload to
  /// learn from.
  AccessPathRouter(std::vector<const MultiDimIndex*> indexes,
                   const Dataset& data, const Workload& calibration)
      : AccessPathRouter(std::move(indexes), data, calibration, Options()) {}
  AccessPathRouter(std::vector<const MultiDimIndex*> indexes,
                   const Dataset& data, const Workload& calibration,
                   const Options& options);

  /// The index calibration chose for this query's type.
  const MultiDimIndex& Route(const Query& query) const;

  std::string Name() const override { return "Router"; }

  /// Routes and executes.
  QueryResult Execute(const Query& query) const override {
    return Route(query).Execute(query);
  }

  /// Routes and plans: the returned plan is the routed index's plan,
  /// tagged with the chosen access path (QueryPlan::routed_index) so
  /// ExecutePlan forwards straight back to it without re-routing — the
  /// tasks address that index's clustered store.
  QueryPlan Prepare(const Query& query) const override;
  QueryResult ExecutePlan(const QueryPlan& plan,
                          ExecContext& ctx) const override;

  /// A routed plan's tasks address the chosen access path's clustered
  /// store, not the router's; external executors (QueryService) must scan
  /// and finish against that index.
  const MultiDimIndex& PlanTarget(const QueryPlan& plan) const override {
    if (plan.routed_index >= 0 &&
        plan.routed_index < static_cast<int>(indexes_.size())) {
      return indexes_[plan.routed_index]->PlanTarget(plan);
    }
    return *this;
  }

  /// The router's own overhead: the selectivity sample plus the
  /// calibration table (the routed indexes account for themselves).
  int64_t IndexSizeBytes() const override;

  /// The first registered index's store (all hold the same table).
  const ColumnStore& store() const override { return indexes_[0]->store(); }

  /// Human-readable calibration table: one row per learned type with its
  /// dimension signature, per-index average microseconds, and the winner.
  std::string Describe() const;

  int num_types() const { return static_cast<int>(types_.size()); }

 private:
  /// Position in indexes_ of the access path Route() would pick.
  int RouteIndex(const Query& query) const;

  struct CalibratedType {
    uint64_t dim_mask = 0;  // Bit d set when dimension d is filtered.
    std::vector<double> centroid;  // Selectivity embedding (size = dims).
    std::vector<double> avg_micros;  // Parallel to indexes_.
    int winner = 0;
    int64_t count = 0;  // Calibration queries of this type.
  };

  std::vector<double> Embed(const Query& query, uint64_t* mask) const;

  std::vector<const MultiDimIndex*> indexes_;
  std::vector<CalibratedType> types_;
  int fallback_ = 0;  // Winner over the whole calibration workload.
  int dims_ = 0;
  // Per-dimension sorted sample columns for selectivity estimation.
  std::vector<std::vector<Value>> sample_;
};

}  // namespace tsunami

#endif  // TSUNAMI_QUERY_ROUTER_H_
