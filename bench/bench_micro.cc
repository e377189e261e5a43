// Micro-benchmarks (google-benchmark) for the core primitives, including
// the two ablations DESIGN.md calls out: the exact-range scan skip and the
// sort-dimension binary-search refinement. main() additionally runs the
// scan kernel's portable-vs-SIMD tier sweep and writes
// BENCH_scan_kernel.json before the registered benchmarks. `--scan` runs
// only that tier sweep (about a second); `--encoding`, `--service` and
// `--overload` run only their own sections.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/baselines/full_scan.h"
#include "src/baselines/zorder.h"
#include "src/cdf/cdf_model.h"
#include "src/common/emd.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/core/augmented_grid.h"
#include "src/core/periodic.h"
#include "src/core/skew.h"
#include "src/datasets/synthetic.h"
#include "src/flood/flood.h"
#include "src/query/bool_expr.h"
#include "src/query/router.h"
#include "src/serve/query_service.h"
#include "src/storage/column_store.h"
#include "src/storage/scan_kernel.h"
#include "src/storage/simd_dispatch.h"

namespace tsunami {
namespace {

const Benchmark& SharedBench() {
  static const Benchmark* bench =
      new Benchmark(MakeScalingBenchmark(8, 100000, true, 201));
  return *bench;
}

void BM_ColumnScanChecked(benchmark::State& state) {
  ColumnStore store(SharedBench().data);
  Query q = SharedBench().workload[0];
  for (auto _ : state) {
    QueryResult r;
    store.ScanRange(0, store.size(), q, /*exact=*/false, &r);
    benchmark::DoNotOptimize(r.agg);
  }
  state.SetItemsProcessed(state.iterations() * store.size());
}
BENCHMARK(BM_ColumnScanChecked);

// Ablation: the exact-range scan optimization (§6.1) vs checked scanning.
void BM_ColumnScanExact(benchmark::State& state) {
  ColumnStore store(SharedBench().data);
  Query q = SharedBench().workload[0];
  for (auto _ : state) {
    QueryResult r;
    store.ScanRange(0, store.size(), q, /*exact=*/true, &r);
    benchmark::DoNotOptimize(r.agg);
  }
  state.SetItemsProcessed(state.iterations() * store.size());
}
BENCHMARK(BM_ColumnScanExact);

void BM_EquiDepthCdfLookup(benchmark::State& state) {
  std::vector<Value> column(SharedBench().data.raw().begin(),
                            SharedBench().data.raw().begin() + 100000);
  auto model = EquiDepthCdf::Build(column, 512);
  Rng rng(202);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model->PartitionOf(rng.UniformValue(0, 1 << 30), 64));
  }
}
BENCHMARK(BM_EquiDepthCdfLookup);

void BM_RmiCdfLookup(benchmark::State& state) {
  std::vector<Value> column(SharedBench().data.raw().begin(),
                            SharedBench().data.raw().begin() + 100000);
  auto model = RmiCdf::Build(column, 128);
  Rng rng(203);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Cdf(rng.UniformValue(0, 1 << 30)));
  }
}
BENCHMARK(BM_RmiCdfLookup);

void BM_MortonEncode(benchmark::State& state) {
  Rng rng(204);
  std::vector<uint32_t> coords(8);
  for (auto& c : coords) c = static_cast<uint32_t>(rng.NextBelow(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MortonEncode(coords, 8));
  }
}
BENCHMARK(BM_MortonEncode);

void BM_EmdSkew(benchmark::State& state) {
  Rng rng(205);
  std::vector<double> pdf(128);
  for (double& m : pdf) m = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SkewOfMass(pdf));
  }
}
BENCHMARK(BM_EmdSkew);

// Grid query execution with and without sort-dimension refinement: the
// refined grid binary-searches runs, the unrefined one scans whole runs.
void GridQueryBench(benchmark::State& state, bool refine) {
  const Benchmark& b = SharedBench();
  std::vector<uint32_t> rows(b.data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  AugmentedGrid grid;
  std::vector<int> partitions(8, 8);
  const Workload& workload = b.workload;
  AugmentedGrid::BuildOptions options;
  if (refine) {
    // Sort by the workload's most selective dimension (the smallest filter
    // widths are on dim 0), so binary-search refinement narrows runs.
    options.sort_dim = 0;
  } else {
    // Sort by the least selective dimension: refinement buys nothing.
    options.sort_dim = 7;
  }
  grid.Build(b.data, &rows, Skeleton::AllIndependent(8), partitions, options);
  ColumnStore store(b.data, rows);
  grid.Attach(&store, 0);
  size_t i = 0;
  for (auto _ : state) {
    QueryResult r;
    grid.Execute(workload[i % workload.size()], &r);
    ++i;
    benchmark::DoNotOptimize(r.agg);
  }
}
void BM_GridQueryRefined(benchmark::State& state) {
  GridQueryBench(state, true);
}
void BM_GridQueryUnrefined(benchmark::State& state) {
  GridQueryBench(state, false);
}
BENCHMARK(BM_GridQueryRefined);
BENCHMARK(BM_GridQueryUnrefined);

void BM_FloodQuery(benchmark::State& state) {
  const Benchmark& b = SharedBench();
  FloodOptions options;
  options.agd.max_sample_points = 1024;
  options.agd.max_sample_queries = 32;
  static const FloodIndex* index = new FloodIndex(b.data, b.workload, options);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->Execute(b.workload[i % b.workload.size()]).agg);
    ++i;
  }
}
BENCHMARK(BM_FloodQuery);

// Disjunctive-filter machinery: normalization cost per OR arm count.
// IN-list shape (all arms over one dimension) — the common case; cost is
// quadratic in arms (each new box is subtracted against accepted ones).
void BM_DisjointBoxNormalize(benchmark::State& state) {
  const int arms = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<BoolExpr> alts;
  for (int a = 0; a < arms; ++a) {
    Value lo = rng.UniformValue(0, 1 << 20);
    alts.push_back(BoolExpr::Leaf(Predicate{0, lo, lo + 1000}));
  }
  BoolExpr expr = BoolExpr::Or(std::move(alts));
  for (auto _ : state) {
    NormalizeResult norm = ToDisjointBoxes(expr, 4);
    benchmark::DoNotOptimize(norm.boxes.size());
  }
}
BENCHMARK(BM_DisjointBoxNormalize)->Arg(2)->Arg(8)->Arg(32);

// Cross-dimension ORs fragment combinatorially (each slab splits against
// every other-dimension slab); the NormalizeLimits cap bounds the damage.
// Kept small here — this is the adversarial shape, not the common one.
void BM_DisjointBoxNormalizeCrossDim(benchmark::State& state) {
  const int arms = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<BoolExpr> alts;
  for (int a = 0; a < arms; ++a) {
    Value lo = rng.UniformValue(0, 1 << 20);
    alts.push_back(BoolExpr::Leaf(Predicate{a % 4, lo, lo + 1000}));
  }
  BoolExpr expr = BoolExpr::Or(std::move(alts));
  for (auto _ : state) {
    NormalizeResult norm = ToDisjointBoxes(expr, 4);
    benchmark::DoNotOptimize(norm.boxes.size());
  }
}
BENCHMARK(BM_DisjointBoxNormalizeCrossDim)->Arg(4)->Arg(8);

// Phase arithmetic + period scoring (Sec 8 periodic support).
void BM_ScorePeriods(benchmark::State& state) {
  Rng rng(6);
  Dataset data(2, {});
  for (int i = 0; i < 50000; ++i) {
    Value t = rng.UniformValue(0, 1440 * 90);
    data.AppendRow({t, (t % 1440) / 3 + rng.UniformValue(-20, 20)});
  }
  std::vector<Value> candidates = {60, 720, 1440, 10080};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScorePeriods(data, 0, 1, candidates).size());
  }
}
BENCHMARK(BM_ScorePeriods);

// Route() dispatch overhead (embed + nearest-type match).
void BM_RouterDispatch(benchmark::State& state) {
  const Benchmark& b = SharedBench();
  static const FullScanIndex* full = new FullScanIndex(b.data);
  static const AccessPathRouter* router =
      new AccessPathRouter({full}, b.data, b.workload);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&router->Route(b.workload[i % b.workload.size()]));
    ++i;
  }
}
BENCHMARK(BM_RouterDispatch);

// --- Scan-kernel tiers: portable (kNone) vs SIMD over selectivities ------
//
// Clustered data (sorted by dim 0, the layout every clustering index
// produces) so the zone maps see the locality they were built for. Two
// shapes: full-store scans at swept selectivities (the "large range" case)
// and short ranges at the sizes grid cells produce after refinement. The
// SIMD column is the best runtime-dispatched instruction set, or the tier
// forced with --simd.

Dataset MakeClusteredData(int64_t rows, int dims, uint64_t seed) {
  Rng rng(seed);
  Dataset data(dims, {});
  std::vector<Value> row(dims);
  for (int64_t i = 0; i < rows; ++i) {
    for (int d = 0; d < dims; ++d) row[d] = rng.UniformValue(0, 1 << 20);
    data.AppendRow(row);
  }
  std::vector<int64_t> order(rows);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return data.at(a, 0) < data.at(b, 0);
  });
  Dataset sorted(dims, {});
  sorted.Reserve(rows);
  for (int64_t i : order) {
    for (int d = 0; d < dims; ++d) row[d] = data.at(i, d);
    sorted.AppendRow(row);
  }
  return sorted;
}

// Best-of-`reps` seconds for scanning `tasks` at `tier`.
double TimeScan(const ColumnStore& store, std::span<const RangeTask> tasks,
                const Query& query, SimdTier tier, int reps) {
  double best = 0.0;
  int64_t sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    QueryResult r = InitResult(query);
    store.ScanRanges(tasks, query, &r, ScanOptions{tier});
    double seconds = timer.ElapsedSeconds();
    sink += r.agg;
    if (rep == 0 || seconds < best) best = seconds;
  }
  if (sink == INT64_MIN) std::printf("impossible\n");
  return best;
}

// The scan kernel at the portable tier (SimdTier::kNone) against the
// detected tier, or the one forced with --simd.
void RunScanKernelAB(SimdTier forced_tier,
                     std::vector<std::string>* records) {
  const SimdTier simd_tier =
      forced_tier == SimdTier::kAuto ? DetectSimdTier() : forced_tier;
  const char* tier = SimdTierName(simd_tier);
  bench::PrintHeader("scan kernel tiers (portable vs SIMD)");
  std::printf("SIMD tier: %s%s\n", tier,
              forced_tier == SimdTier::kAuto ? "" : " (forced via --simd)");
  const int64_t kRows = 1 << 20;
  const int kDims = 4;
  Dataset data = MakeClusteredData(kRows, kDims, 401);
  ColumnStore store(data);
  Rng rng(402);

  // Full-range scans over swept selectivities: a filter on the clustered
  // dimension sized to the target fraction plus a 50% filter on dim 1.
  std::printf("%-22s %13s %13s %10s\n", "shape", "none ns/row",
              "simd ns/row", "simd/none");
  for (double sel : {0.001, 0.01, 0.1, 0.5, 0.9}) {
    Query q;
    Value width = static_cast<Value>(sel * (1 << 20));
    Value lo = rng.UniformValue(0, (1 << 20) - width);
    q.filters.push_back(Predicate{0, lo, lo + width});
    q.filters.push_back(Predicate{1, 0, 1 << 19});
    q.SetAggregates({{AggKind::kSum, 2}});
    RangeTask task{0, store.size(), false};
    double none = TimeScan(store, {&task, 1}, q, SimdTier::kNone, 5);
    double simd = TimeScan(store, {&task, 1}, q, simd_tier, 5);
    double speedup = simd > 0 ? none / simd : 0.0;
    std::printf("full sel=%-13g %13.3f %13.3f %9.2fx\n", sel,
                none * 1e9 / kRows, simd * 1e9 / kRows, speedup);
    records->push_back(bench::EnvRecord("full_range", tier, /*threads=*/1,
                                        /*batch_size=*/1)
                           .Num("selectivity", sel)
                           .Int("rows_per_scan", kRows)
                           .Num("none_ns_per_row", none * 1e9 / kRows)
                           .Num("simd_ns_per_row", simd * 1e9 / kRows)
                           .Num("simd_speedup_vs_none", speedup)
                           .Finish());
  }

  // Short per-cell ranges: the sizes indexes hand the kernel after grid
  // refinement. Random offsets, moderately selective residual filters —
  // the per-block predicate passes have to earn their keep (no zone-map
  // skipping to hide behind).
  for (int64_t range_len : {256, 1024, 4096}) {
    Query q;
    q.filters.push_back(Predicate{1, 0, 1 << 19});
    q.filters.push_back(Predicate{2, 0, 3 << 18});
    const int kTasks = 512;
    std::vector<RangeTask> tasks;
    for (int t = 0; t < kTasks; ++t) {
      int64_t begin = rng.UniformValue(0, kRows - range_len);
      tasks.push_back(RangeTask{begin, begin + range_len, false});
    }
    int64_t scanned = range_len * kTasks;
    double none = TimeScan(store, tasks, q, SimdTier::kNone, 5);
    double simd = TimeScan(store, tasks, q, simd_tier, 5);
    double speedup = simd > 0 ? none / simd : 0.0;
    std::printf("cell rows=%-12lld %13.3f %13.3f %9.2fx\n",
                static_cast<long long>(range_len), none * 1e9 / scanned,
                simd * 1e9 / scanned, speedup);
    records->push_back(bench::EnvRecord("per_cell_range", tier, /*threads=*/1,
                                        /*batch_size=*/kTasks)
                           .Int("rows_per_scan", range_len)
                           .Int("num_ranges", kTasks)
                           .Num("none_ns_per_row", none * 1e9 / scanned)
                           .Num("simd_ns_per_row", simd * 1e9 / scanned)
                           .Num("simd_speedup_vs_none", speedup)
                           .Finish());
  }
  // scan_wide's shape: three filters on uint8/uint16 code columns and
  // COUNT+SUM+MIN+MAX of one uint32 column, over the full store and over
  // 256/1024-row cells, timed at `sel` (the query's selectivity) with
  // `zone_covered` of the three filters proved by every block's zone map.
  auto time_wide = [&](const char* label, const ColumnStore& wide_store,
                       const Query& q, double sel, int zone_covered) {
    for (int64_t range_len : {int64_t{0}, int64_t{256}, int64_t{1024}}) {
      std::vector<RangeTask> tasks;
      if (range_len == 0) {
        tasks.push_back(RangeTask{0, wide_store.size(), false});
      } else {
        for (int t = 0; t < 512; ++t) {
          int64_t begin = rng.UniformValue(0, kRows - range_len);
          tasks.push_back(RangeTask{begin, begin + range_len, false});
        }
      }
      int64_t scanned = 0;
      for (const RangeTask& task : tasks) scanned += task.end - task.begin;
      double none = TimeScan(wide_store, tasks, q, SimdTier::kNone, 5);
      double simd = TimeScan(wide_store, tasks, q, simd_tier, 5);
      double speedup = simd > 0 ? none / simd : 0.0;
      char shape[32];
      std::snprintf(shape, sizeof(shape), "%s %s sel=%g", label,
                    range_len == 0 ? "full" : range_len == 256 ? "c256"
                                                               : "c1024",
                    sel);
      std::printf("%-22s %13.3f %13.3f %9.2fx\n", shape,
                  none * 1e9 / scanned, simd * 1e9 / scanned, speedup);
      records->push_back(
          bench::EnvRecord("wide_multi_agg", tier, /*threads=*/1,
                           /*batch_size=*/static_cast<int64_t>(tasks.size()))
              .Num("selectivity", sel)
              .Int("zone_covered_filters", zone_covered)
              .Int("rows_per_scan", range_len == 0 ? kRows : range_len)
              .Int("num_ranges", static_cast<int64_t>(tasks.size()))
              .Num("none_ns_per_row", none * 1e9 / scanned)
              .Num("simd_ns_per_row", simd * 1e9 / scanned)
              .Num("simd_speedup_vs_none", speedup)
              .Finish());
    }
  };
  const std::vector<AggregateSpec> wide_aggs = {
      {AggKind::kCount, 0}, {AggKind::kSum, 3}, {AggKind::kMin, 3},
      {AggKind::kMax, 3}};
  // Values uniform within every block, so zone maps neither skip nor cover
  // blocks and every block runs all three predicate passes and the fold.
  // Each filter keeps the cube root of the target selectivity: at 0.001
  // the first filter keeps 10% of the rows.
  Dataset wide(4, {});
  wide.Reserve(kRows);
  std::vector<Value> row(4);
  for (int64_t i = 0; i < kRows; ++i) {
    row[0] = rng.UniformValue(0, 250);           // uint8 codes.
    row[1] = rng.UniformValue(0, 60000);         // uint16 codes.
    row[2] = rng.UniformValue(0, 250);           // uint8 codes.
    row[3] = rng.UniformValue(0, Value{1} << 30);  // uint32 codes.
    wide.AppendRow(row);
  }
  const ColumnStore wide_store(wide);
  for (double sel : {0.001, 0.05, 0.5}) {
    const double keep = std::cbrt(sel);
    const Query q({Predicate{0, 0, static_cast<Value>(keep * 250)},
                   Predicate{1, 0, static_cast<Value>(keep * 60000)},
                   Predicate{2, 0, static_cast<Value>(keep * 250)}},
                  wide_aggs);
    time_wide("wide", wide_store, q, sel, /*zone_covered=*/0);
  }
  // The same shape with the d0 and d1 filters proved by every block's zone
  // map: their values stay inside the filters' ranges, though not inside
  // the whole code domain (which the code-space translation would already
  // skip). Only the d2 filter, keeping `sel` of the rows, runs a pass.
  for (int64_t i = 0; i < kRows; ++i) {
    wide.raw()[i * 4] = rng.UniformValue(0, 200);
    wide.raw()[i * 4 + 1] = rng.UniformValue(0, 50000);
  }
  const ColumnStore covered_store(wide);
  for (double sel : {0.05, 0.5}) {
    const Query q({Predicate{0, 0, 220}, Predicate{1, 0, 55000},
                   Predicate{2, 0, static_cast<Value>(sel * 250)}},
                  wide_aggs);
    time_wide("cov2", covered_store, q, sel, /*zone_covered=*/2);
  }
}

// --- Encoded column blocks: raw vs FOR-narrowed code scans -----------------
//
// A/B for the compressed-execution layer: the same data built into a
// raw-block store (encode=false) and an encoded store (8/16/32-bit codes,
// chosen per block), scanned with identical queries per tier x code width
// x selectivity. The filter and aggregate columns carry block-local ranges
// sized to the target width and spanning every block (so zone maps neither
// skip nor cover blocks — the measurement isolates the predicate
// passes, which is where narrow lanes pay). Single-threaded throughput on
// this 1-core container; hw_threads and first-pass bytes_scanned are
// stamped with each record.
void RunEncodingAB(std::vector<std::string>* records) {
  bench::PrintHeader("encoded blocks (raw vs 8/16/32-bit code scans)");
  const int64_t kRows = 1 << 21;
  const int kDims = 3;
  const int64_t hw_threads = TaskScheduler::DefaultThreads();
  struct WidthCase {
    const char* name;
    int bits;
    Value range;  // Block-local value range -> code width.
  };
  const WidthCase kCases[] = {
      {"u8", 8, 250}, {"u16", 16, 60000}, {"u32", 32, 1 << 20}};
  std::vector<SimdTier> tiers;
  for (SimdTier tier :
       {SimdTier::kAvx512, SimdTier::kAvx2, SimdTier::kNeon}) {
    if (SimdTierSupported(tier)) tiers.push_back(tier);
  }
  tiers.push_back(SimdTier::kNone);
  std::printf("%-6s %-8s %-6s %14s %14s %10s\n", "width", "tier", "sel",
              "raw ns/row", "coded ns/row", "speedup");
  for (const WidthCase& wc : kCases) {
    Rng rng(501);
    Dataset data(kDims, {});
    data.Reserve(kRows);
    std::vector<Value> row(kDims);
    for (int64_t i = 0; i < kRows; ++i) {
      // Every block spans [base, base + range] on every dimension: the
      // codec narrows to exactly wc.bits, and any interior filter is
      // checked per row in every block.
      for (int d = 0; d < kDims; ++d) {
        row[d] = 1000 + rng.UniformValue(0, wc.range);
      }
      data.AppendRow(row);
    }
    ColumnStore raw(data, /*encode=*/false);
    ColumnStore coded(data, /*encode=*/true);
    int64_t widths[4] = {0, 0, 0, 0};
    coded.encoded(0).WidthHistogram(widths);
    const int64_t narrow_blocks =
        widths[0] + widths[1] + widths[2];  // Sanity: all but maybe none.
    for (SimdTier tier : tiers) {
      const char* tier_name = SimdTierName(tier);
      for (double sel : {0.01, 0.1, 0.5}) {
        Query q;
        Value width = std::max<Value>(1, static_cast<Value>(sel * wc.range));
        q.filters.push_back(
            Predicate{0, 1000 + wc.range / 4, 1000 + wc.range / 4 + width});
        q.SetAggregates({{AggKind::kSum, 1}});
        RangeTask task{0, raw.size(), false};
        double t_raw = TimeScan(raw, {&task, 1}, q, tier, 5);
        double t_coded = TimeScan(coded, {&task, 1}, q, tier, 5);
        double speedup = t_coded > 0 ? t_raw / t_coded : 0.0;
        std::printf("%-6s %-8s %-6g %14.3f %14.3f %9.2fx\n", wc.name,
                    tier_name, sel, t_raw * 1e9 / kRows,
                    t_coded * 1e9 / kRows, speedup);
        records->push_back(
            bench::EnvRecord("encoded_scan", tier_name, /*threads=*/1,
                             /*batch_size=*/1)
                .Int("hw_threads", hw_threads)
                .Int("code_width_bits", wc.bits)
                .Num("selectivity", sel)
                .Int("rows_per_scan", kRows)
                // First-pass bytes for the filter column: what the
                // predicate pass actually streams.
                .Int("bytes_scanned_raw",
                     kRows * static_cast<int64_t>(sizeof(Value)))
                .Int("bytes_scanned_encoded", kRows * (wc.bits / 8))
                .Int("narrow_blocks", narrow_blocks)
                .Num("raw_ns_per_row", t_raw * 1e9 / kRows)
                .Num("encoded_ns_per_row", t_coded * 1e9 / kRows)
                .Num("speedup", speedup)
                .Finish());
      }
    }
  }
}

// --- Batch API throughput: prepared plans vs per-query dispatch ------------
//
// Fig7-style serving shape: Tsunami over the shared 8-d benchmark, the
// workload arriving as batches that recur (the steady state an accelerator
// front-end sees). Per-query dispatch re-plans inside Execute() on every
// recurrence; the batch API prepares each batch once and replays the plans.
// Both sides run inline at the auto-dispatched tier — no scheduler, no
// forced tier — so the recorded speedup isolates the amortization the API
// adds and stays comparable across machines (the scheduler's inter-query
// parallelism is a separate, additive win).
void RunBatchApiThroughput(std::vector<std::string>* records) {
  bench::PrintHeader("batch API (prepared ExecutePlans vs per-query Execute)");
  const Benchmark& b = SharedBench();
  // Default build options: the production-shaped index (fully sampled
  // optimization), whose per-query planning cost is what batching amortizes.
  TsunamiIndex index(b.data, b.workload, TsunamiOptions());
  const char* tier = SimdTierName(DetectSimdTier());
  const int kReps = 8;  // Times each batch recurs.
  std::printf("%-12s %14s %14s %10s  (threads=1, tier=%s, reps=%d)\n",
              "batch size", "per-query us", "batch us", "speedup", tier,
              kReps);
  for (size_t batch_size : {size_t{16}, size_t{64}, size_t{256}}) {
    // Stride-sample the workload so every batch size sees the same mix of
    // cheap and expensive queries.
    Workload batch;
    size_t take = std::min(batch_size, b.workload.size());
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(b.workload[i * b.workload.size() / take]);
    }
    // Best-of-5 for both paths, with one untimed warmup each, so a single
    // scheduler hiccup cannot decide the comparison.
    int64_t sink = 0;
    for (const Query& q : batch) sink += index.Execute(q).agg;
    double per_query_s = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
      // Old API: one Execute per query, re-planned every recurrence.
      Timer timer;
      for (int rep = 0; rep < kReps; ++rep) {
        for (const Query& q : batch) sink += index.Execute(q).agg;
      }
      double seconds = timer.ElapsedSeconds();
      if (trial == 0 || seconds < per_query_s) per_query_s = seconds;
    }
    // Batch API: prepare once, replay the plans each recurrence.
    ExecContext ctx;
    {
      std::vector<QueryResult> warm = index.ExecuteBatch(
          std::span<const Query>(batch.data(), batch.size()), ctx);
      sink += warm[0].agg;
    }
    double batch_s = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
      Timer timer;
      std::vector<QueryPlan> plans;
      plans.reserve(batch.size());
      for (const Query& q : batch) plans.push_back(index.Prepare(q));
      for (int rep = 0; rep < kReps; ++rep) {
        std::vector<QueryResult> results = index.ExecutePlans(plans, ctx);
        sink += results[0].agg;
      }
      double seconds = timer.ElapsedSeconds();
      if (trial == 0 || seconds < batch_s) batch_s = seconds;
    }
    if (sink == INT64_MIN) std::printf("impossible\n");
    const double n = static_cast<double>(batch.size()) * kReps;
    double speedup = batch_s > 0 ? per_query_s / batch_s : 0.0;
    std::printf("%-12zu %14.2f %14.2f %9.2fx\n", batch.size(),
                per_query_s * 1e6 / n, batch_s * 1e6 / n, speedup);
    records->push_back(
        bench::EnvRecord("batch_api", tier, /*threads=*/1,
                         static_cast<int64_t>(batch.size()))
            .Int("reps", kReps)
            .Num("per_query_us", per_query_s * 1e6 / n)
            .Num("batch_us", batch_s * 1e6 / n)
            .Num("batch_qps", batch_s > 0 ? n / batch_s : 0.0)
            .Num("speedup", speedup)
            .Finish());
  }
}

// --- Serving path: plan-cache amortization + work-stealing skewed batch ---
//
// Two acceptance shapes for the QueryService redesign, both stamped into
// BENCH_scan_kernel.json:
//  * plan_cache: repeated ad-hoc traffic (a handful of recurring
//    rectangles) served cold (Prepare + ExecutePlan per arrival) vs via
//    the cache-hit path (CachedPlan + ExecutePlan) vs end-to-end
//    service.Run — the hit path must beat cold planning;
//  * skewed_batch: 1 giant region query + 63 needles at >= 4 threads,
//    ExecuteBatch (across-query parallelism only) vs the
//    service's work-stealing chunks (across + within): per-batch p50/p99
//    wall time, plus per-needle completion latency — ExecuteBatch hands
//    every answer back only when the whole batch returns, the service
//    Awaits each needle as soon as its own (priority-boosted) chunks
//    finish instead of behind the region query.
void RunQueryServiceBench(std::vector<std::string>* records) {
  bench::PrintHeader("query service (plan cache + work-stealing)");
  const Benchmark& b = SharedBench();
  TsunamiIndex index(b.data, b.workload, TsunamiOptions());
  const char* tier = SimdTierName(DetectSimdTier());

  // --- Plan-cache amortization on repeated ad-hoc traffic. ---
  {
    // 24 recurring rectangles (stride-sampled), 16 recurrences each.
    Workload adhoc;
    const size_t kDistinct = 24;
    for (size_t i = 0; i < kDistinct; ++i) {
      adhoc.push_back(b.workload[i * b.workload.size() / kDistinct]);
    }
    const int kReps = 16;
    int64_t sink = 0;
    ExecContext inline_ctx;
    auto best_of = [&](auto&& body) {
      double best = 0.0;
      for (int trial = 0; trial < 5; ++trial) {
        Timer timer;
        body();
        double seconds = timer.ElapsedSeconds();
        if (trial == 0 || seconds < best) best = seconds;
      }
      return best;
    };
    // Warmup both paths once (touches columns, faults pages).
    for (const Query& q : adhoc) sink += index.Execute(q).agg;

    double cold_s = best_of([&] {
      // Cold serving: every arrival re-plans (the pre-cache front end).
      for (int rep = 0; rep < kReps; ++rep) {
        for (const Query& q : adhoc) {
          QueryPlan plan = index.Prepare(q);
          sink += index.ExecutePlan(plan, inline_ctx).agg;
        }
      }
    });
    // Cache-hit serving: same traffic through the service's plan cache;
    // after the first round every arrival replays a cached plan.
    QueryService cache_service(&index, ServiceOptions{/*threads=*/0,
                                                      /*plan_cache_capacity=*/
                                                      1024,
                                                      /*chunk_rows=*/
                                                      16 * kScanBlockRows});
    double hit_s = best_of([&] {
      for (int rep = 0; rep < kReps; ++rep) {
        for (const Query& q : adhoc) {
          std::shared_ptr<const QueryPlan> plan = cache_service.CachedPlan(q);
          sink += index.ExecutePlan(*plan, inline_ctx).agg;
        }
      }
    });
    // End-to-end async service at hardware threads, for the record.
    QueryService service(&index);
    double run_s = best_of([&] {
      for (int rep = 0; rep < kReps; ++rep) {
        for (const Query& q : adhoc) sink += service.Run(q).agg;
      }
    });
    if (sink == INT64_MIN) std::printf("impossible\n");
    const double n = static_cast<double>(adhoc.size()) * kReps;
    double hit_rate = cache_service.plan_cache().stats().HitRate();
    std::printf(
        "plan cache:   cold %8.2f us/q   hit %8.2f us/q   (%.2fx, hit rate "
        "%.0f%%)   service.Run %8.2f us/q\n",
        cold_s * 1e6 / n, hit_s * 1e6 / n, hit_s > 0 ? cold_s / hit_s : 0.0,
        100.0 * hit_rate, run_s * 1e6 / n);
    records->push_back(
        bench::EnvRecord("service_plan_cache", tier, /*threads=*/1,
                         static_cast<int64_t>(adhoc.size()))
            .Int("reps", kReps)
            .Num("cold_prepare_us", cold_s * 1e6 / n)
            .Num("cache_hit_us", hit_s * 1e6 / n)
            // cold/hit are inline (the stamped threads=1); service.Run uses
            // the default service's own workers — attribute them.
            .Num("service_run_us", run_s * 1e6 / n)
            .Int("service_run_threads", service.scheduler().num_threads())
            .Num("speedup", hit_s > 0 ? cold_s / hit_s : 0.0)
            .Num("cache_hit_rate", hit_rate)
            .Int("rng_seed", 201)  // SharedBench workload generator.
            .Finish());
  }

  // --- Skewed batch: ExecuteBatch (PR-3) vs work-stealing service. ---
  //
  // The skew must be real: a 2M-row clustered table where the one region
  // query (inexact ~65% scan, 2 aggregates) dwarfs 63 needle queries on
  // the clustered dimension. Across-query parallelism alone serializes
  // behind the region query; the service's stolen chunks split it.
  const int64_t kRows = 1 << 21;
  Dataset big_data = MakeClusteredData(kRows, 4, 403);
  Rng rng(404);
  Workload opt_workload;
  for (int i = 0; i < 32; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, (1 << 20) - (1 << 14));
    q.filters.push_back(Predicate{0, lo, lo + (1 << 14)});
    opt_workload.push_back(q);
  }
  FloodOptions flood_options;
  flood_options.agd = bench::BenchAgd();
  FloodIndex big(big_data, opt_workload, flood_options);

  Workload batch;
  Query region;
  region.filters.push_back(Predicate{1, 0, 3 << 18});    // ~75%, unclustered
  region.filters.push_back(Predicate{2, 0, 900 << 10});  // ~88%, unclustered
  region.SetAggregates({{AggKind::kSum, 3}, {AggKind::kCount, 0}});
  batch.push_back(region);
  for (int i = 0; i < 63; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, (1 << 20) - (1 << 10));
    q.filters.push_back(Predicate{0, lo, lo + (1 << 10)});
    batch.push_back(q);
  }

  for (int threads : {4, TaskScheduler::DefaultThreads()}) {
    if (threads < 4) continue;  // The claim is "at >= 4 threads".
    const int kBatches = 40;
    int64_t sink = 0;
    // Batch path: across-query parallelism (one scheduler chunk per query,
    // each query inline on its worker), no intra-query stealing.
    TaskScheduler batch_scheduler(threads);
    ExecContext ctx(&batch_scheduler);
    // Service path: every query decomposed into stealable chunks. Chunks
    // of 64 blocks: coarse enough that per-chunk bookkeeping is noise,
    // fine enough that a 2M-row query still splits ~32 ways.
    ServiceOptions service_options;
    service_options.threads = threads;
    service_options.chunk_rows = 64 * kScanBlockRows;
    QueryService service(&big, service_options);
    // Needles ride at priority 1: the serving API's head-of-line fix. Under
    // ExecuteBatch every needle's answer is available only when the whole
    // batch returns; the service completes each needle as soon as its own
    // chunks finish, jumping the region query's chunk backlog.
    SubmitOptions needle_options;
    needle_options.priority = 1;
    const std::span<const Query> needles(batch.data() + 1, batch.size() - 1);
    // One untimed warmup per path, then the paths measured in interleaved
    // reps (A, B, A, B, ...) so host drift hits both percentiles equally;
    // the idle path's threads sleep while the other runs.
    std::vector<double> batch_lat, service_lat;
    std::vector<double> batch_needle, service_needle;
    sink += big.ExecuteBatch(
                   std::span<const Query>(batch.data(), batch.size()), ctx)[0]
                .agg;
    {
      QueryService::Ticket region_ticket = service.Submit(batch[0]);
      for (QueryService::Ticket t :
           service.SubmitBatch(needles, needle_options)) {
        sink += service.Await(t).agg;
      }
      sink += service.Await(region_ticket).agg;
    }
    // Snapshot after the warmup so the stamped steal count covers exactly
    // the measured reps (the latency vectors exclude the warmup too).
    int64_t steals_before = service.scheduler().stats().steals;
    for (int rep = 0; rep < kBatches; ++rep) {
      {
        Timer timer;
        std::vector<QueryResult> results = big.ExecuteBatch(
            std::span<const Query>(batch.data(), batch.size()), ctx);
        double seconds = timer.ElapsedSeconds();
        batch_lat.push_back(seconds);
        // Results arrive together: each needle waits for the full batch.
        batch_needle.push_back(seconds);
        sink += results[0].agg;
      }
      {
        Timer timer;
        QueryService::Ticket region_ticket = service.Submit(batch[0]);
        std::vector<QueryService::Admission> tickets =
            service.SubmitBatch(needles, needle_options);
        for (QueryService::Ticket t : tickets) {
          // Worker-stamped completion latency: on a saturated host the
          // awaiting thread is descheduled behind the workers, so Await's
          // return time would overstate when the needle actually finished.
          AwaitInfo info;
          sink += service.Await(t, &info).agg;
          service_needle.push_back(info.latency_seconds);
        }
        sink += service.Await(region_ticket).agg;
        service_lat.push_back(timer.ElapsedSeconds());
      }
    }
    if (sink == INT64_MIN) std::printf("impossible\n");
    int64_t steals =
        service.scheduler().stats().steals - steals_before;
    double eb_p50 = Percentile(batch_lat, 50);
    double eb_p99 = Percentile(batch_lat, 99);
    double sv_p50 = Percentile(service_lat, 50);
    double sv_p99 = Percentile(service_lat, 99);
    double eb_needle_p50 = Percentile(batch_needle, 50);
    double sv_needle_p50 = Percentile(service_needle, 50);
    std::printf(
        "skewed batch: %d threads (%d hw cores)  ExecuteBatch p50 %8.2f us "
        "p99 %8.2f us  service p50 %8.2f us p99 %8.2f us  (p50 %.2fx, p99 "
        "%.2fx, %lld steals)\n"
        "  needle latency: ExecuteBatch p50 %8.2f us (head-of-line: waits "
        "for the region query)  service p50 %8.2f us  (%.1fx)\n",
        threads, TaskScheduler::DefaultThreads(), eb_p50 * 1e6, eb_p99 * 1e6,
        sv_p50 * 1e6, sv_p99 * 1e6, sv_p50 > 0 ? eb_p50 / sv_p50 : 0.0,
        sv_p99 > 0 ? eb_p99 / sv_p99 : 0.0, static_cast<long long>(steals),
        eb_needle_p50 * 1e6, sv_needle_p50 * 1e6,
        sv_needle_p50 > 0 ? eb_needle_p50 / sv_needle_p50 : 0.0);
    if (TaskScheduler::DefaultThreads() < threads) {
      std::printf(
        "  (host exposes %d core(s): no intra-batch parallelism to "
        "reclaim, so batch wall time is parity at best and its "
        "percentiles are scheduling noise; the claim this host can "
        "support is the needle-latency split above — the full batch "
        "p50 split needs >= %d real cores)\n",
        TaskScheduler::DefaultThreads(), threads);
    }
    records->push_back(
        bench::EnvRecord("service_skewed_batch", tier, threads,
                         static_cast<int64_t>(batch.size()))
            .Int("batches", kBatches)
            .Int("rows", kRows)
            .Int("hw_threads", TaskScheduler::DefaultThreads())
            .Num("execute_batch_p50_us", eb_p50 * 1e6)
            .Num("execute_batch_p99_us", eb_p99 * 1e6)
            .Num("service_p50_us", sv_p50 * 1e6)
            .Num("service_p99_us", sv_p99 * 1e6)
            .Num("p50_speedup", sv_p50 > 0 ? eb_p50 / sv_p50 : 0.0)
            .Num("p99_speedup", sv_p99 > 0 ? eb_p99 / sv_p99 : 0.0)
            .Num("execute_batch_needle_p50_us", eb_needle_p50 * 1e6)
            .Num("service_needle_p50_us", sv_needle_p50 * 1e6)
            .Num("needle_p50_speedup",
                 sv_needle_p50 > 0 ? eb_needle_p50 / sv_needle_p50 : 0.0)
            .Int("steal_count", steals)
            .Int("rng_seed", 404)  // Workload generator for this sweep.
            .Finish());
    if (threads == TaskScheduler::DefaultThreads()) break;  // No duplicate row.
  }
}

// --- Overload sweep: bounded admission + shedding vs an unbounded queue. ---
//
// Offered load is a burst of 32 * mult queries (80% priority-0 best-effort,
// 20% priority-1 with a deadline) fired without awaiting — deliberately
// past capacity from mult >= 4 on this host. The bounded service must keep
// its in-use chunk budget under the cap at every instant, shed or reject
// low-priority traffic first, and keep the worker-stamped p99 of *admitted*
// queries bounded as the burst grows; the unbounded baseline instead lets
// its queue depth grow with the burst size (every offered query is
// admitted, so latency is open-loop queueing delay).
void RunOverloadBench(std::vector<std::string>* records) {
  bench::PrintHeader("overload shedding (bounded admission)");
  const Benchmark& b = SharedBench();
  TsunamiIndex index(b.data, b.workload, TsunamiOptions());
  const char* tier = SimdTierName(DetectSimdTier());
  const int hw = TaskScheduler::DefaultThreads();
  const int64_t kQueryCap = 32;
  const int64_t kChunkCap = 256;

  Rng rng(505);
  for (int mult : {1, 2, 4, 8}) {
    const int offered = 32 * mult;
    // This burst's traffic: cycled workload needles, every 8th query a
    // full-table multi-aggregate region query so chunks pile up fast.
    // 20% of arrivals are priority-1 dashboards with a deadline; the rest
    // is best-effort backlog.
    std::vector<std::pair<Query, SubmitOptions>> traffic;
    for (int i = 0; i < offered; ++i) {
      Query q;
      if (i % 8 == 7) {
        q.filters.push_back(Predicate{0, 0, kValueMax});
        q.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
      } else {
        q = b.workload[rng.NextBelow(b.workload.size())];
      }
      SubmitOptions sub;
      if (i % 5 == 4) {
        sub.priority = 1;
        sub.deadline_seconds = 0.25;
      }
      traffic.emplace_back(q, sub);
    }

    struct BurstResult {
      int64_t admitted = 0;
      int64_t rejected = 0;
      int64_t completed = 0;
      int64_t not_completed = 0;  // Shed / timed out / cancelled awaits.
      int64_t max_chunks = 0;     // Max admitted-chunk gauge mid-burst.
      int64_t max_queue_depth = 0;
      std::vector<double> latencies;  // Worker-stamped, completed only.
    };
    auto run_burst = [&traffic](QueryService& service) {
      BurstResult out;
      std::vector<QueryService::Admission> tickets;
      tickets.reserve(traffic.size());
      for (const auto& [q, sub] : traffic) {
        tickets.push_back(service.Submit(q, sub));
        ServiceStats mid = service.stats();
        out.max_chunks = std::max(out.max_chunks, mid.admitted_chunks);
        out.max_queue_depth = std::max(out.max_queue_depth, mid.queue_depth);
        ++(tickets.back().admitted() ? out.admitted : out.rejected);
      }
      for (const QueryService::Admission& t : tickets) {
        if (!t.admitted()) continue;
        AwaitInfo info;
        service.Await(t, &info);
        if (info.outcome == QueryOutcome::kCompleted) {
          ++out.completed;
          out.latencies.push_back(info.latency_seconds);
        } else {
          ++out.not_completed;
        }
      }
      return out;
    };

    ServiceOptions bounded_options;
    bounded_options.threads = hw;
    bounded_options.chunk_rows = 4 * kScanBlockRows;
    bounded_options.max_queued_queries = kQueryCap;
    bounded_options.max_queued_chunks = kChunkCap;
    QueryService bounded(&index, bounded_options);
    ServiceOptions unbounded_options = bounded_options;
    unbounded_options.max_queued_queries = 0;
    unbounded_options.max_queued_chunks = 0;
    QueryService open(&index, unbounded_options);

    BurstResult bs = run_burst(bounded);
    BurstResult us = run_burst(open);
    ServiceStats bstats = bounded.stats();

    double b_p50 = Percentile(bs.latencies, 50) * 1e6;
    double b_p99 = Percentile(bs.latencies, 99) * 1e6;
    double u_p99 = Percentile(us.latencies, 99) * 1e6;
    std::printf(
        "overload x%d: offered %3d  bounded admitted %3lld rejected %3lld "
        "shed %3lld (max chunks %3lld/%lld)  admitted p99 %9.1f us  |  "
        "unbounded admitted %3d, max queue depth %4lld, p99 %9.1f us\n",
        mult, offered, static_cast<long long>(bs.admitted),
        static_cast<long long>(bs.rejected),
        static_cast<long long>(bstats.shed),
        static_cast<long long>(bs.max_chunks),
        static_cast<long long>(kChunkCap), b_p99, offered,
        static_cast<long long>(us.max_queue_depth), u_p99);
    records->push_back(
        bench::EnvRecord("overload_shedding", tier, hw, offered)
            .Int("hw_threads", hw)
            .Int("burst_multiplier", mult)
            .Int("query_cap", kQueryCap)
            .Int("chunk_cap", kChunkCap)
            .Int("offered", offered)
            .Int("admitted", bs.admitted)
            .Int("rejected", bs.rejected)
            .Int("shed", bstats.shed)
            .Int("completed", bs.completed)
            .Int("not_completed", bs.not_completed)
            .Int("max_admitted_chunks", bs.max_chunks)
            .Num("admitted_p50_us", b_p50)
            .Num("admitted_p99_us", b_p99)
            .Int("unbounded_admitted", us.admitted)
            .Int("unbounded_max_queue_depth", us.max_queue_depth)
            .Num("unbounded_p99_us", u_p99)
            .Int("rng_seed", 505)  // Burst traffic generator.
            .Finish());
  }
}

// --- Client fairness: per-client caps vs one greedy client. ---
//
// One greedy client keeps the service's bounded admission budget saturated
// with full-table queries (open loop, topped up every round) while four
// polite clients each run a needle closed-loop: submit, retry on rejection
// with a short pause (what a real client's bounded-backoff loop does), then
// await. Without a per-client cap the greedy client holds the entire
// low-priority query budget, so every polite query must out-wait the whole
// greedy backlog — end-to-end p99 and retry counts blow up. With
// max_inflight_per_client set, the greedy client is bounced with
// kClientBusy beyond its slots and the polite experience stays bounded.
void RunClientFairnessBench(std::vector<std::string>* records) {
  bench::PrintHeader("client fairness (per-client admission caps)");
  const Benchmark& b = SharedBench();
  TsunamiIndex index(b.data, b.workload, TsunamiOptions());
  const char* tier = SimdTierName(DetectSimdTier());
  const int hw = TaskScheduler::DefaultThreads();

  Query heavy;
  heavy.filters.push_back(Predicate{0, 0, kValueMax});
  heavy.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});

  const int kRounds = 16;
  const int kPolite = 4;
  const int kGreedyPerRound = 16;
  const int kMaxAttempts = 2000;
  Rng rng(606);
  std::vector<Query> polite_queries;
  for (int i = 0; i < kRounds * kPolite; ++i) {
    polite_queries.push_back(b.workload[rng.NextBelow(b.workload.size())]);
  }

  for (int64_t cap : {int64_t{0}, int64_t{4}}) {
    ServiceOptions so;
    so.threads = hw;
    so.chunk_rows = 4 * kScanBlockRows;
    // Queries are the contended budget (the low-priority watermark admits
    // 16); chunks stay unbounded so the comparison isolates the cap.
    so.max_queued_queries = 32;
    so.max_inflight_per_client = cap;
    QueryService service(&index, so);

    int64_t greedy_admitted = 0, greedy_busy = 0, greedy_full = 0;
    int64_t polite_admitted = 0, polite_rejected = 0, polite_attempts = 0;
    int64_t max_queue_depth = 0, max_active = 0;
    std::vector<QueryService::Admission> greedy_tickets;
    std::vector<double> polite_latencies;  // End-to-end, retries included.
    SubmitOptions greedy_sub;
    greedy_sub.client_id = 1;
    // Tops the greedy backlog up to whatever admission will give it.
    auto greedy_refill = [&] {
      for (int g = 0; g < kGreedyPerRound; ++g) {
        QueryService::Admission a = service.Submit(heavy, greedy_sub);
        if (a.admitted()) {
          greedy_tickets.push_back(a);
          ++greedy_admitted;
        } else if (a.outcome == AdmissionOutcome::kClientBusy) {
          ++greedy_busy;
        } else {
          ++greedy_full;
        }
      }
    };
    size_t next_polite = 0;
    for (int round = 0; round < kRounds; ++round) {
      greedy_refill();
      ServiceStats mid = service.stats();
      max_queue_depth = std::max(max_queue_depth, mid.queue_depth);
      max_active = std::max(max_active, mid.active_queries);
      for (int p = 0; p < kPolite; ++p) {
        const Query& q = polite_queries[next_polite++];
        SubmitOptions polite_sub;
        polite_sub.client_id = 2 + p;
        Timer end_to_end;
        QueryService::Admission a;
        int attempts = 0;
        while (true) {
          ++attempts;
          a = service.Submit(q, polite_sub);
          if (a.admitted() || attempts >= kMaxAttempts) break;
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        polite_attempts += attempts;
        if (!a.admitted()) {
          ++polite_rejected;
          continue;
        }
        ++polite_admitted;
        AwaitInfo info;
        service.Await(a, &info);
        if (info.outcome == QueryOutcome::kCompleted) {
          polite_latencies.push_back(end_to_end.ElapsedSeconds());
        }
      }
    }
    for (const QueryService::Admission& t : greedy_tickets) {
      service.Await(t);
    }

    const double p50 = Percentile(polite_latencies, 50) * 1e6;
    const double p99 = Percentile(polite_latencies, 99) * 1e6;
    const double mean_attempts =
        static_cast<double>(polite_attempts) /
        static_cast<double>(kRounds * kPolite);
    std::printf(
        "per-client cap %3lld: greedy admitted %3lld busy %3lld full %3lld"
        "  |  polite admitted %3lld rejected %3lld  attempts/query %5.1f  "
        "p50 %9.1f us  p99 %9.1f us  (max active %3lld, queue depth "
        "%4lld)\n",
        static_cast<long long>(cap), static_cast<long long>(greedy_admitted),
        static_cast<long long>(greedy_busy),
        static_cast<long long>(greedy_full),
        static_cast<long long>(polite_admitted),
        static_cast<long long>(polite_rejected), mean_attempts, p50, p99,
        static_cast<long long>(max_active),
        static_cast<long long>(max_queue_depth));
    records->push_back(
        bench::EnvRecord("client_fairness", tier, hw,
                         kGreedyPerRound + kPolite)
            .Int("hw_threads", hw)
            .Int("per_client_cap", cap)
            .Int("rounds", kRounds)
            .Int("greedy_offered", kRounds * kGreedyPerRound)
            .Int("greedy_admitted", greedy_admitted)
            .Int("greedy_rejected_busy", greedy_busy)
            .Int("greedy_rejected_full", greedy_full)
            .Int("polite_offered", kRounds * kPolite)
            .Int("polite_admitted", polite_admitted)
            .Int("polite_rejected", polite_rejected)
            .Num("polite_attempts_per_query", mean_attempts)
            .Num("polite_p50_us", p50)
            .Num("polite_p99_us", p99)
            .Int("max_active_queries", max_active)
            .Int("max_queue_depth", max_queue_depth)
            .Int("rng_seed", 606)  // Polite traffic generator.
            .Finish());
  }
}

/// Removes every argv entry `handle` consumes (returns true for),
/// compacting the rest in place — the one flag-stripping loop shared by
/// the custom flags below (google-benchmark parses whatever remains).
template <typename Fn>
void StripArgs(int* argc, char** argv, Fn handle) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (!handle(std::string_view(argv[i]))) argv[out++] = argv[i];
  }
  *argc = out;
}

/// Parses and strips a `--simd=<auto|scalar|neon|avx2|avx512>` argument.
SimdTier ParseSimdFlag(int* argc, char** argv) {
  SimdTier tier = SimdTier::kAuto;
  StripArgs(argc, argv, [&tier](std::string_view arg) {
    if (arg.rfind("--simd=", 0) != 0) return false;
    std::string_view name = arg.substr(7);
    if (name == "auto") {
      tier = SimdTier::kAuto;
    } else if (name == "scalar" || name == "none") {
      tier = SimdTier::kNone;
    } else if (name == "neon") {
      tier = SimdTier::kNeon;
    } else if (name == "avx2") {
      tier = SimdTier::kAvx2;
    } else if (name == "avx512") {
      tier = SimdTier::kAvx512;
    } else {
      std::fprintf(stderr, "unknown --simd tier '%.*s'\n",
                   static_cast<int>(name.size()), name.data());
    }
    return true;
  });
  if (!SimdTierSupported(tier)) {
    // Downgrade to the tier that will actually run, so the JSON records
    // are stamped with the measured tier, not the requested one.
    std::fprintf(stderr,
                 "--simd=%s not supported on this machine; measuring the "
                 "scalar ops instead\n",
                 SimdTierName(tier));
    tier = SimdTier::kNone;
  }
  return tier;
}

/// Parses and strips `flag` (one of the section-only flags: `--scan` runs
/// the scan-kernel tier sweep, `--encoding` the raw-vs-coded sweep,
/// `--service` the serving-path section, `--overload` the shedding sweep).
bool ParseOnlyFlag(int* argc, char** argv, std::string_view flag) {
  bool found = false;
  StripArgs(argc, argv, [&found, flag](std::string_view arg) {
    if (arg != flag) return false;
    found = true;
    return true;
  });
  return found;
}

}  // namespace
}  // namespace tsunami

int main(int argc, char** argv) {
  bool scan_only = tsunami::ParseOnlyFlag(&argc, argv, "--scan");
  bool service_only = tsunami::ParseOnlyFlag(&argc, argv, "--service");
  bool encoding_only = tsunami::ParseOnlyFlag(&argc, argv, "--encoding");
  bool overload_only = tsunami::ParseOnlyFlag(&argc, argv, "--overload");
  tsunami::SimdTier tier = tsunami::ParseSimdFlag(&argc, argv);
  std::vector<std::string> records;
  if (overload_only) {
    // Overload-only run: writes its own artifact (like --service) so it
    // never truncates a previous full run's scan-kernel sections.
    tsunami::RunOverloadBench(&records);
    tsunami::RunClientFairnessBench(&records);
    if (tsunami::bench::WriteBenchJson("BENCH_query_service.json",
                                       "scan_kernel", records)) {
      std::printf("wrote BENCH_query_service.json\n");
    }
    return 0;
  }
  if (scan_only || encoding_only) {
    // Scan- or encoding-only run: both sweeps are part of the scan-kernel
    // bench family, so their records land in BENCH_scan_kernel.json.
    if (scan_only) tsunami::RunScanKernelAB(tier, &records);
    if (encoding_only) tsunami::RunEncodingAB(&records);
    if (tsunami::bench::WriteBenchJson("BENCH_scan_kernel.json",
                                       "scan_kernel", records)) {
      std::printf("wrote BENCH_scan_kernel.json\n");
    }
    return 0;
  }
  if (!service_only) {
    tsunami::RunScanKernelAB(tier, &records);
    tsunami::RunEncodingAB(&records);
    tsunami::RunBatchApiThroughput(&records);
  }
  // The serving-path records land in the full run's JSON; a --service run
  // writes its own artifact so it never truncates the scan-kernel and
  // batch-API sections a previous full run recorded.
  tsunami::RunQueryServiceBench(&records);
  tsunami::RunOverloadBench(&records);
  tsunami::RunClientFairnessBench(&records);
  const char* json_path =
      service_only ? "BENCH_query_service.json" : "BENCH_scan_kernel.json";
  if (tsunami::bench::WriteBenchJson(json_path, "scan_kernel", records)) {
    std::printf("wrote %s\n", json_path);
  }
  if (service_only) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
