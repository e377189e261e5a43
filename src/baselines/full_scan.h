// Trivial baseline: scan every row for every query.
#ifndef TSUNAMI_BASELINES_FULL_SCAN_H_
#define TSUNAMI_BASELINES_FULL_SCAN_H_

#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

/// Full scan over the column store in original row order. The reference
/// implementation every other index is validated against: its plan is one
/// inexact range over every row, the scan ExecuteFullScan runs.
class FullScanIndex : public RangePlanIndex {
 public:
  explicit FullScanIndex(const Dataset& data) : store_(data) {}

  std::string Name() const override { return "FullScan"; }
  int64_t IndexSizeBytes() const override { return 0; }
  const ColumnStore& store() const override { return store_; }

 private:
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override {
    (void)query;
    ++counters->cell_ranges;
    AppendRangeTask(tasks, RangeTask{0, store_.size(), /*exact=*/false});
  }

  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_FULL_SCAN_H_
