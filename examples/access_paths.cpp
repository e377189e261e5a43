// Access-path routing demo: one table, three access paths — a clustered
// Tsunami index, a conventional row-id secondary index, and a learned
// correlation secondary index — with a router that learns per query type
// which one to dispatch to (§1: Tsunami as a building block inside a
// larger system).
//
//   $ ./build/examples/access_paths
#include <cstdio>
#include <memory>

#include "src/baselines/full_scan.h"
#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/query/router.h"
#include "src/secondary/secondary_index.h"

using namespace tsunami;

namespace {

// An orders table: (order_date, order_id, amount). Clustered by date;
// order_id grows with date (tight correlation — ids are assigned in
// arrival order).
Dataset MakeOrders(int64_t rows) {
  Rng rng(99);
  Dataset data(3, {});
  data.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    Value date = i / 100;
    Value order_id = i * 10 + rng.UniformValue(0, 9);
    data.AppendRow({date, order_id, rng.UniformValue(100, 99999)});
  }
  return data;
}

}  // namespace

int main() {
  Dataset data = MakeOrders(400000);
  std::printf("orders table: %lld rows (order_date, order_id, amount)\n\n",
              static_cast<long long>(data.size()));

  // The mixed workload an order-management dashboard produces: exact
  // order-id lookups (support tickets) and date-range revenue scans
  // (reports).
  Rng rng(5);
  Workload calibration;
  for (int i = 0; i < 80; ++i) {
    Query lookup;
    Value id = rng.UniformValue(0, data.size() - 1) * 10;
    lookup.filters = {Predicate{1, id, id + 9}};
    calibration.push_back(lookup);

    Query report;
    Value day = rng.UniformValue(0, 3800);
    report.filters = {Predicate{0, day, day + 150}};
    report.SetAggregates({{AggKind::kSum, 2}});
    calibration.push_back(report);
  }

  // Three access paths over the same table. The clustered index is laid
  // out for the reporting workload (that is what the table is sorted
  // for); the lookup traffic is what secondary indexes exist to absorb.
  Workload reports_only;
  for (const Query& q : calibration) {
    if (q.agg_spec(0).op == AggKind::kSum) reports_only.push_back(q);
  }
  TsunamiOptions options;
  options.sample_rows = 50000;
  TsunamiIndex clustered(data, reports_only, options);
  SortedSecondaryIndex btree(data, /*host_dim=*/0, /*key_dim=*/1);
  CorrelationSecondaryIndex hermit(data, /*host_dim=*/0, /*key_dim=*/1);
  std::printf("access paths:\n");
  for (const MultiDimIndex* index :
       {static_cast<const MultiDimIndex*>(&clustered),
        static_cast<const MultiDimIndex*>(&btree),
        static_cast<const MultiDimIndex*>(&hermit)}) {
    std::printf("  %-16s %10.1f KiB index overhead\n",
                index->Name().c_str(), index->IndexSizeBytes() / 1024.0);
  }

  AccessPathRouter router({&clustered, &btree, &hermit}, data, calibration);
  std::printf("\n%s\n", router.Describe().c_str());

  // Verify routed execution end to end against a full scan.
  FullScanIndex full(data);
  int mismatches = 0;
  for (const Query& q : calibration) {
    if (router.Execute(q).agg != full.Execute(q).agg) ++mismatches;
  }
  std::printf("verification: %d mismatches across %zu routed queries\n",
              mismatches, calibration.size());
  return mismatches == 0 ? 0 : 1;
}
