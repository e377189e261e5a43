#include "src/flood/flood.h"

#include <numeric>

#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/workload_stats.h"

namespace tsunami {

FloodIndex::FloodIndex(const Dataset& data, const Workload& workload,
                       const FloodOptions& options) {
  Timer optimize_timer;
  AgdOptions agd = options.agd;
  agd.independent_only = true;

  std::vector<uint32_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  GridPlan plan =
      OptimizeGrid(data, rows, workload, OptimizeMethod::kGd, agd);

  Rng rng(agd.seed);
  const SortedSample sample(SampleDataset(data, 50000, &rng));
  AugmentedGrid::BuildOptions build_options;
  build_options.selectivity_order =
      DimsBySelectivity(sample, workload, data.dims());
  build_options.sort_dim = plan.sort_dim;
  build_options.max_cells = agd.max_cells;
  optimize_seconds_ = optimize_timer.ElapsedSeconds();

  Timer sort_timer;
  grid_.Build(data, &rows, plan.skeleton, plan.partitions, build_options);
  store_ = ColumnStore(data, rows);
  grid_.Attach(&store_, 0);
  sort_seconds_ = sort_timer.ElapsedSeconds();
}

}  // namespace tsunami
