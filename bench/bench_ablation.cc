// Ablations of the design choices DESIGN.md calls out, beyond the paper's
// own figures: Grid Tree histogram resolution (§4.3.2's 128 bins), the
// skew-tree merge regularizer (§4.3.2's 10% factor), the region budget,
// parallel index construction (§6.1), CDF model choice (§2.2: "the choice
// of modeling technique is orthogonal"), snapshot reopen vs rebuild
// (§8 Persistence), derived phase columns for periodic correlations
// (§8 Complex Correlations), and the disjoint-box decomposition that backs
// OR / IN / NOT clauses.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench/bench_util.h"
#include "src/cdf/cdf_model.h"
#include "src/core/periodic.h"
#include "src/exec/task_scheduler.h"
#include "src/query/bool_expr.h"

using namespace tsunami;

namespace {

double BuildAndMeasure(const Benchmark& bench, const TsunamiOptions& options,
                       TsunamiIndex::Stats* stats_out) {
  TsunamiIndex index(bench.data, bench.workload, options);
  if (stats_out != nullptr) *stats_out = index.stats();
  return bench::MeasureAvgQueryNanos(index, bench.workload, 2) / 1e3;
}

}  // namespace

int main() {
  int64_t rows = RowsFromEnv(100000);
  Benchmark bench = MakeTaxiBenchmark(rows);
  TsunamiOptions base = bench::BenchTsunami(rows);

  bench::PrintHeader("Ablation 1: Grid Tree histogram bins (Sec 4.3.2)");
  std::printf("%8s %12s %10s %10s\n", "bins", "query (us)", "regions",
              "tree B");
  for (int bins : {16, 64, 128, 256}) {
    TsunamiOptions options = base;
    options.tree.hist_bins = bins;
    TsunamiIndex index(bench.data, bench.workload, options);
    std::printf("%8d %12.1f %10d %10lld\n", bins,
                bench::MeasureAvgQueryNanos(index, bench.workload, 2) / 1e3,
                index.stats().num_regions,
                static_cast<long long>(index.grid_tree().SizeBytes()));
    std::fflush(stdout);
  }

  bench::PrintHeader(
      "Ablation 2: skew-tree merge regularizer (Sec 4.3.2, default 1.10)");
  std::printf("%8s %12s %10s %10s\n", "factor", "query (us)", "nodes",
              "regions");
  for (double factor : {1.0, 1.1, 1.3, 2.0}) {
    TsunamiOptions options = base;
    options.tree.merge_factor = factor;
    TsunamiIndex::Stats stats;
    double micros = BuildAndMeasure(bench, options, &stats);
    std::printf("%8.2f %12.1f %10d %10d\n", factor, micros, stats.tree_nodes,
                stats.num_regions);
  }

  // The budget is a soft stop: reaching it ends further splitting, but all
  // children of already-committed multi-way splits still become regions
  // (the paper's Tab. 4 trees behave the same way: budget 40, 27-39 leaves).
  bench::PrintHeader("Ablation 3: region budget (Tab. 4 trees: 27-39 leaves)");
  std::printf("%8s %12s %10s %12s\n", "budget", "query (us)", "regions",
              "cells");
  for (int max_regions : {1, 4, 16, 40}) {
    TsunamiOptions options = base;
    options.tree.max_regions = max_regions;
    if (max_regions == 1) options.use_grid_tree = false;
    TsunamiIndex::Stats stats;
    double micros = BuildAndMeasure(bench, options, &stats);
    std::printf("%8d %12.1f %10d %12lld\n", max_regions, micros,
                stats.num_regions,
                static_cast<long long>(stats.total_cells));
  }

  bench::PrintHeader("Ablation 4: parallel build (Sec 6.1)");
  std::printf("%8s %12s %14s\n", "threads", "build (s)", "query (us)");
  std::printf("(this machine reports %d hardware threads)\n",
              TaskScheduler::DefaultThreads());
  for (int threads : {1, 2, 4}) {
    TsunamiOptions options = base;
    options.build_threads = threads;
    Timer timer;
    TsunamiIndex index(bench.data, bench.workload, options);
    double build = timer.ElapsedSeconds();
    std::printf("%8d %12.2f %14.1f\n", threads, build,
                bench::MeasureAvgQueryNanos(index, bench.workload, 2) / 1e3);
  }

  bench::PrintHeader(
      "Ablation 5: CDF model choice (Sec 2.2: 'orthogonal') — fare column");
  {
    std::vector<Value> column(bench.data.size());
    for (int64_t r = 0; r < bench.data.size(); ++r) {
      column[r] = bench.data.at(r, 4);
    }
    std::vector<Value> sorted = column;
    std::sort(sorted.begin(), sorted.end());
    std::printf("%12s %12s %12s %12s\n", "model", "build (ms)", "bytes",
                "mean |err|");
    for (int which = 0; which < 2; ++which) {
      Timer timer;
      std::unique_ptr<CdfModel> model;
      if (which == 0) {
        model = EquiDepthCdf::Build(column, 1024);
      } else {
        model = RmiCdf::Build(column, 256);
      }
      double build_ms = timer.ElapsedSeconds() * 1e3;
      // Mean absolute CDF error against the exact empirical CDF.
      double err = 0.0;
      const int kProbes = 2000;
      for (int i = 0; i < kProbes; ++i) {
        Value v = sorted[static_cast<int64_t>(
            static_cast<double>(i) / kProbes * (sorted.size() - 1))];
        double exact =
            static_cast<double>(std::lower_bound(sorted.begin(), sorted.end(),
                                                 v) -
                                sorted.begin()) /
            static_cast<double>(sorted.size());
        err += std::abs(model->Cdf(v) - exact);
      }
      std::printf("%12s %12.2f %12lld %12.5f\n",
                  which == 0 ? "EquiDepth" : "RMI", build_ms,
                  static_cast<long long>(model->SizeBytes()),
                  err / kProbes);
    }
  }

  bench::PrintHeader("Ablation 6: snapshot reopen vs rebuild (Sec 8)");
  {
    TsunamiOptions options = base;
    Timer timer;
    TsunamiIndex index(bench.data, bench.workload, options);
    double build = timer.ElapsedSeconds();
    const std::string path =
        (std::filesystem::temp_directory_path() / "ablation.snapshot")
            .string();
    timer.Reset();
    std::string error;
    bool saved = index.SaveToFile(path, &error);
    double save = timer.ElapsedSeconds();
    timer.Reset();
    auto loaded = TsunamiIndex::LoadFromFile(path, &error);
    double load = timer.ElapsedSeconds();
    std::printf("rebuild %.2fs | save %.3fs | reopen %.3fs (%s)\n", build,
                save, load,
                saved && loaded != nullptr ? "ok" : error.c_str());
    std::remove(path.c_str());
  }

  bench::PrintHeader(
      "Ablation 7: derived phase column for periodic data (Sec 8)");
  {
    // Time/load table with a daily cycle; the workload asks phase-of-day
    // questions ("this hour band, any day").
    constexpr Value kDay = 1440;
    Rng rng(2025);
    Dataset raw(2, {});
    int64_t n = std::min<int64_t>(rows, 200000);
    for (int64_t i = 0; i < n; ++i) {
      Value t = rng.UniformValue(0, 90 * kDay - 1);
      double angle = 2.0 * M_PI * static_cast<double>(t % kDay) / kDay;
      raw.AppendRow({t, static_cast<Value>(520.0 - 380.0 * std::cos(angle) +
                                           40.0 * rng.NextGaussian())});
    }
    Dataset augmented = AugmentWithPhases(raw, {PhaseColumnSpec{0, kDay}});
    Workload phase_queries;
    for (int i = 0; i < 100; ++i) {
      Value m = rng.UniformValue(0, kDay - 61);
      Value lo = rng.UniformValue(100, 800);
      Query q;
      q.filters = {Predicate{2, m, m + 60}, Predicate{1, lo, lo + 99}};
      q.type = 0;
      phase_queries.push_back(q);
    }
    // Raw schema: the index can only use the load band.
    Workload load_only;
    for (const Query& q : phase_queries) {
      Query r;
      r.filters = {q.filters[1]};
      r.type = 0;
      load_only.push_back(r);
    }
    TsunamiOptions options = base;
    TsunamiIndex raw_index(raw, load_only, options);
    TsunamiIndex aug_index(augmented, phase_queries, options);
    int64_t fetched = 0, scanned = 0;
    for (size_t i = 0; i < phase_queries.size(); ++i) {
      fetched += raw_index.Execute(load_only[i]).matched;
      scanned += aug_index.Execute(phase_queries[i]).scanned;
    }
    std::printf("%-28s %14s %14s\n", "variant", "query (us)",
                "rows touched");
    std::printf("%-28s %14.1f %14lld\n", "raw + app post-filter",
                bench::MeasureAvgQueryNanos(raw_index, load_only, 2) / 1e3,
                static_cast<long long>(fetched));
    std::printf("%-28s %14.1f %14lld\n", "phase-augmented index",
                bench::MeasureAvgQueryNanos(aug_index, phase_queries, 2) /
                    1e3,
                static_cast<long long>(scanned));
  }

  bench::PrintHeader(
      "Ablation 8: disjoint-box decomposition for OR clauses");
  {
    TsunamiOptions options = base;
    TsunamiIndex index(bench.data, bench.workload, options);
    // k-way IN-style disjunctions over the first dimension.
    Rng rng(9);
    std::printf("%8s %12s %12s\n", "OR arms", "boxes", "query (us)");
    for (int arms : {1, 2, 4, 8}) {
      std::vector<BoolExpr> alts;
      for (int a = 0; a < arms; ++a) {
        Value lo = rng.UniformValue(0, 800000);
        alts.push_back(BoolExpr::Leaf(Predicate{0, lo, lo + 50000}));
      }
      BoolExpr expr = BoolExpr::Or(std::move(alts));
      NormalizeResult norm = ToDisjointBoxes(expr, bench.data.dims());
      Query proto;
      Timer timer;
      const int kReps = 200;
      for (int rep = 0; rep < kReps; ++rep) {
        ExecuteBoxUnion(index, norm.boxes, proto);
      }
      std::printf("%8d %12zu %12.1f\n", arms, norm.boxes.size(),
                  timer.ElapsedNanos() / 1e3 / kReps);
    }
  }

  std::printf(
      "\nshape check: 128 bins and factor 1.1 sit on the flat part of their\n"
      "curves; more regions help until region overhead dominates; build\n"
      "time scales down with threads (on multi-core machines) while query\n"
      "time is unchanged; both\n"
      "CDF models are accurate (the grid only needs monotonicity); reopen\n"
      "is orders faster than rebuild; the phase column turns periodic\n"
      "queries from result-sized fetches into index-pruned scans; OR cost\n"
      "grows linearly in the number of disjoint boxes.\n");
  return 0;
}
