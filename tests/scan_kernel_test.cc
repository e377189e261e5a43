// Cross-checks for the block-based scan kernel: every SIMD tier (forced
// tiers the CPU lacks fall back to the portable kNone loops) must agree
// bit-for-bit with the row-at-a-time oracle (tests/scan_oracle.h) on every
// QueryResult field, for every aggregate, range shape (empty / exact /
// ragged block edges / sub-SIMD-width tails), filter count, and through the
// batched multi-range executor and the grid's outlier buffer.
#include <numeric>

#include <gtest/gtest.h>

#include "src/baselines/full_scan.h"
#include "src/common/random.h"
#include "src/core/augmented_grid.h"
#include "src/exec/runner.h"
#include "src/exec/task_scheduler.h"
#include "src/ingest/delta_chunk.h"
#include "src/storage/column_store.h"
#include "src/storage/scan_kernel.h"
#include "src/storage/scan_kernel_simd.h"
#include "src/storage/simd_dispatch.h"
#include "tests/scan_oracle.h"

namespace tsunami {
namespace {

constexpr SimdTier kTiers[] = {SimdTier::kAuto, SimdTier::kNone,
                               SimdTier::kNeon, SimdTier::kAvx2,
                               SimdTier::kAvx512};

constexpr AggKind kAggs[] = {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                             AggKind::kMax, AggKind::kAvg};

// Random multi-dimensional data; `clustered` sorts by dim 0 so zone maps
// actually prune (the layout every clustering index produces).
Dataset MakeData(int64_t rows, int dims, bool clustered, uint64_t seed) {
  Rng rng(seed);
  Dataset data(dims, {});
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row(dims);
    for (int d = 0; d < dims; ++d) row[d] = rng.UniformValue(-5000, 5000);
    data.AppendRow(row);
  }
  if (clustered) {
    std::vector<Value>& raw = data.raw();
    std::vector<int64_t> order(rows);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return raw[a * dims] < raw[b * dims];
    });
    Dataset sorted(dims, {});
    for (int64_t i : order) {
      std::vector<Value> row(dims);
      for (int d = 0; d < dims; ++d) row[d] = data.at(i, d);
      sorted.AppendRow(row);
    }
    return sorted;
  }
  return data;
}

Query RandomQuery(Rng* rng, int dims, int num_filters, AggKind agg) {
  Query q;
  q.agg = agg;
  q.agg_dim = static_cast<int>(rng->NextBelow(dims));
  for (int f = 0; f < num_filters; ++f) {
    int dim = static_cast<int>(rng->NextBelow(dims));
    Value lo = rng->UniformValue(-6000, 6000);
    // Mix narrow, wide, and occasionally empty/equality ranges.
    Value width = rng->NextBelow(4) == 0 ? rng->UniformValue(0, 100)
                                         : rng->UniformValue(0, 8000);
    q.filters.push_back(Predicate{dim, lo, lo + width});
  }
  return q;
}

void ExpectSameResult(const QueryResult& got, const QueryResult& want,
                      const char* what) {
  EXPECT_EQ(got.agg, want.agg) << what;
  EXPECT_EQ(got.scanned, want.scanned) << what;
  EXPECT_EQ(got.matched, want.matched) << what;
  EXPECT_EQ(got.cell_ranges, want.cell_ranges) << what;
  EXPECT_EQ(got.extra, want.extra) << what;
}

TEST(ScanKernelTest, RandomizedCrossCheckAgainstScalar) {
  for (SimdTier tier : kTiers) {
    for (bool clustered : {false, true}) {
      Dataset data = MakeData(20000, 4, clustered, 901);
      ColumnStore store(data);
      Rng rng(902);
      for (int trial = 0; trial < 400; ++trial) {
        AggKind agg = kAggs[trial % 5];
        int num_filters = 1 + static_cast<int>(rng.NextBelow(8));
        Query q = RandomQuery(&rng, 4, num_filters, agg);
        // Ranges with ragged block edges, empty ranges, and full scans.
        int64_t begin = rng.UniformValue(0, store.size());
        int64_t end = rng.UniformValue(begin, store.size());
        if (trial % 17 == 0) end = begin;       // Empty.
        if (trial % 23 == 0) {                  // Full store.
          begin = 0;
          end = store.size();
        }
        QueryResult got = InitResult(q), want = InitResult(q);
        store.ScanRange(begin, end, q, /*exact=*/false, &got,
                        ScanOptions{tier});
        OracleScan(store, begin, end, q, /*exact=*/false, &want);
        ExpectSameResult(got, want, clustered ? "clustered" : "random");
      }
    }
  }
}

// Every SIMD tier (including forced-but-unsupported ones, which must fall
// back to the kNone ops) agrees bit-for-bit with the oracle on adversarial
// range shapes: begin/end straddling block boundaries, tails shorter than
// one SIMD width, empty-filter queries, no-match filters, and all-match
// blocks.
TEST(ScanKernelTest, SimdTiersBitForBitOnUnalignedRanges) {
  for (bool clustered : {false, true}) {
    Dataset data = MakeData(3 * kScanBlockRows + 117, 3, clustered, 921);
    ColumnStore store(data);
    // Hand-picked range shapes around the block/SIMD seams.
    std::vector<std::pair<int64_t, int64_t>> ranges;
    for (int64_t edge : {kScanBlockRows, 2 * kScanBlockRows}) {
      for (int64_t d : {1, 2, 3, 5, 7, 9, 15, 17}) {
        ranges.push_back({edge - d, edge + d});  // Straddles the boundary.
        ranges.push_back({edge, edge + d});      // Tail shorter than SIMD.
        ranges.push_back({edge - d, edge});
      }
    }
    ranges.push_back({0, store.size()});
    ranges.push_back({3, 4});
    // Filter shapes: normal, no-match, all-match, and no filters at all.
    std::vector<std::vector<Predicate>> filter_sets = {
        {Predicate{0, -2000, 2000}, Predicate{1, 0, 5000}},
        {Predicate{2, 99999, 99999}},                       // Matches nothing.
        {Predicate{0, -5000, 5000}, Predicate{1, -5000, 5000}},  // All match.
        {},                                                 // No filters.
    };
    for (SimdTier tier : kTiers) {
      for (const auto& filters : filter_sets) {
        for (const auto& [begin, end] : ranges) {
          for (AggKind agg : kAggs) {
            Query q;
            q.agg = agg;
            q.agg_dim = 2;
            q.filters = filters;
            QueryResult got = InitResult(q), want = InitResult(q);
            store.ScanRange(begin, end, q, /*exact=*/false, &got,
                            ScanOptions{tier});
            OracleScan(store, begin, end, q, /*exact=*/false, &want);
            ExpectSameResult(got, want, SimdTierName(tier));
          }
        }
      }
    }
  }
}

// Ops-table-level cross-check: every available tier's inner loops agree
// with the scalar table on random inputs at every length around the SIMD
// widths (0/1/.../17, 63, 64, 100, 1024), including empty and all-match
// selections.
TEST(ScanKernelTest, SimdOpsMatchScalarOpsAtEveryLength) {
  const SimdOps& ref = ScalarSimdOps();
  Rng rng(922);
  for (SimdTier tier :
       {SimdTier::kNeon, SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (!SimdTierSupported(tier)) continue;
    const SimdOps& ops = OpsForTier(tier);
    for (int n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 100, 1024}) {
      std::vector<Value> col(n);
      for (Value& v : col) v = rng.UniformValue(-1000, 1000);
      for (auto [lo, hi] : std::initializer_list<std::pair<Value, Value>>{
               {-300, 300}, {2000, 3000}, {-1000, 1000}, {5, 5}}) {
        std::vector<uint32_t> got(n);
        std::vector<uint32_t> want(n);
        int got_n = ops.first_pass(col.data(), n, lo, hi, got.data());
        int want_n = ref.first_pass(col.data(), n, lo, hi, want.data());
        ASSERT_EQ(got_n, want_n) << ops.name << " n=" << n;
        for (int i = 0; i < got_n; ++i) {
          EXPECT_EQ(got[i], want[i]) << ops.name << " n=" << n;
        }
        // Refine the survivors by a second predicate over the same column.
        std::vector<uint32_t> got2(got.begin(), got.end());
        std::vector<uint32_t> want2(want.begin(), want.end());
        int got2_n = ops.refine_pass(col.data(), got2.data(), got_n, -100, 150);
        int want2_n =
            ref.refine_pass(col.data(), want2.data(), want_n, -100, 150);
        ASSERT_EQ(got2_n, want2_n) << ops.name << " n=" << n;
        for (int i = 0; i < got2_n; ++i) {
          EXPECT_EQ(got2[i], want2[i]) << ops.name << " n=" << n;
        }
        EXPECT_EQ(ops.sum_gather(col.data(), got.data(), got_n),
                  ref.sum_gather(col.data(), want.data(), want_n));
        if (got_n > 0) {
          EXPECT_EQ(ops.min_gather(col.data(), got.data(), got_n),
                    ref.min_gather(col.data(), want.data(), want_n));
          EXPECT_EQ(ops.max_gather(col.data(), got.data(), got_n),
                    ref.max_gather(col.data(), want.data(), want_n));
        }
      }
      EXPECT_EQ(ops.sum_range(col.data(), n), ref.sum_range(col.data(), n))
          << ops.name << " n=" << n;
      if (n > 0) {
        EXPECT_EQ(ops.min_range(col.data(), n), ref.min_range(col.data(), n));
        EXPECT_EQ(ops.max_range(col.data(), n), ref.max_range(col.data(), n));
        Value mn_got, mx_got, mn_want, mx_want;
        int64_t s_got, s_want;
        ops.block_stats(col.data(), n, &mn_got, &mx_got, &s_got);
        ref.block_stats(col.data(), n, &mn_want, &mx_want, &s_want);
        EXPECT_EQ(mn_got, mn_want) << ops.name << " n=" << n;
        EXPECT_EQ(mx_got, mx_want) << ops.name << " n=" << n;
        EXPECT_EQ(s_got, s_want) << ops.name << " n=" << n;
      }
    }
  }
}

TEST(ScanKernelTest, DispatchResolvesToSupportedTier) {
  SimdTier best = DetectSimdTier();
  EXPECT_TRUE(SimdTierSupported(best)) << SimdTierName(best);
  EXPECT_EQ(&OpsForTier(SimdTier::kAuto), &OpsForTier(best));
  EXPECT_EQ(&OpsForTier(SimdTier::kNone), &ScalarSimdOps());
#if defined(TSUNAMI_DISABLE_SIMD)
  // The portable configuration must never dispatch off the scalar table.
  EXPECT_EQ(best, SimdTier::kNone);
#endif
}

TEST(ScanKernelTest, ExactRangesCrossCheck) {
  Dataset data = MakeData(10000, 3, /*clustered=*/true, 903);
  ColumnStore store(data);
  Rng rng(904);
  for (int trial = 0; trial < 200; ++trial) {
    Query q;
    q.agg = kAggs[trial % 5];
    q.agg_dim = static_cast<int>(rng.NextBelow(3));
    if (trial % 4 == 0) {
      q.SetAggregates({{q.agg, q.agg_dim},
                       {AggKind::kCount, 0},
                       {AggKind::kMax, (q.agg_dim + 1) % 3}});
    }
    int64_t begin = rng.UniformValue(0, store.size());
    int64_t end = rng.UniformValue(begin, store.size());
    QueryResult want = InitResult(q);
    OracleScan(store, begin, end, q, /*exact=*/true, &want);
    for (SimdTier tier : kTiers) {
      QueryResult got = InitResult(q);
      store.ScanRange(begin, end, q, /*exact=*/true, &got, ScanOptions{tier});
      ExpectSameResult(got, want, SimdTierName(tier));
    }
  }
}

TEST(ScanKernelTest, ExactSumUsesZoneMapSums) {
  // Beyond agreeing with the oracle, the exact-range SUM must equal a
  // directly computed sum — block sums included.
  Dataset data = MakeData(5000, 2, /*clustered=*/false, 905);
  ColumnStore store(data);
  Rng rng(906);
  for (int trial = 0; trial < 50; ++trial) {
    int64_t begin = rng.UniformValue(0, store.size());
    int64_t end = rng.UniformValue(begin, store.size());
    Query q;
    q.agg = AggKind::kSum;
    q.agg_dim = 1;
    int64_t expected = 0;
    for (int64_t r = begin; r < end; ++r) expected += data.at(r, 1);
    QueryResult vec;
    store.ScanRange(begin, end, q, /*exact=*/true, &vec);
    EXPECT_EQ(vec.agg, expected);
    EXPECT_EQ(vec.matched, end - begin);
  }
}

TEST(ScanKernelTest, BatchMatchesSequentialScans) {
  Dataset data = MakeData(30000, 3, /*clustered=*/true, 907);
  ColumnStore store(data);
  Rng rng(908);
  for (int trial = 0; trial < 60; ++trial) {
    Query q = RandomQuery(&rng, 3, 2, kAggs[trial % 5]);
    std::vector<RangeTask> tasks;
    int64_t cursor = 0;
    while (cursor < store.size()) {
      int64_t len = rng.UniformValue(0, 3000);
      int64_t end = std::min(store.size(), cursor + len);
      if (rng.NextBelow(3) != 0) {  // Leave gaps between tasks.
        tasks.push_back(
            RangeTask{cursor, end, /*exact=*/rng.NextBelow(5) == 0});
      }
      cursor = end + rng.UniformValue(0, 500);
    }
    QueryResult batched = InitResult(q), sequential = InitResult(q);
    store.ScanRanges(tasks, q, &batched);
    OracleScanTasks(store, tasks, q, &sequential);
    ExpectSameResult(batched, sequential, "batch");
  }
}

TEST(ScanKernelTest, ParallelRangeTasksMatchSerial) {
  Dataset data = MakeData(50000, 3, /*clustered=*/true, 909);
  ColumnStore store(data);
  TaskScheduler scheduler(4);
  ExecContext parallel_ctx(&scheduler);
  ExecContext serial_ctx;
  Rng rng(910);
  for (int trial = 0; trial < 40; ++trial) {
    Query q = RandomQuery(&rng, 3, 1 + trial % 3, kAggs[trial % 5]);
    std::vector<RangeTask> tasks;
    // One oversized task plus several small ones exercises the splitter.
    tasks.push_back(RangeTask{0, store.size() / 2, /*exact=*/false});
    for (int t = 0; t < 8; ++t) {
      int64_t begin = rng.UniformValue(store.size() / 2, store.size());
      int64_t end = std::min(store.size(), begin + rng.UniformValue(0, 2000));
      tasks.push_back(RangeTask{begin, end, /*exact=*/t % 4 == 0});
    }
    QueryResult parallel = ExecuteRangeTasks(store, tasks, q, parallel_ctx);
    QueryResult serial = ExecuteRangeTasks(store, tasks, q, serial_ctx);
    ExpectSameResult(parallel, serial, "parallel");
  }
}

TEST(ScanKernelTest, GridWithOutlierBufferCrossChecksAllAggregates) {
  // y ~ 2x with a few wild rows: the grid moves them to the outlier
  // buffer, which every query scans as a trailing (non-exact) task.
  Rng rng(911);
  Dataset data(2, {});
  for (int64_t i = 0; i < 8000; ++i) {
    Value x = rng.UniformValue(0, 1000000);
    Value y = 2 * x + rng.UniformValue(-50, 50);
    if (i < 10) y = rng.UniformValue(500000000, 600000000);
    data.AppendRow({x, y});
  }
  Skeleton s = Skeleton::AllIndependent(2);
  s.dims[1] = {PartitionStrategy::kMapped, 0};
  AugmentedGrid grid;
  AugmentedGrid::BuildOptions options;
  options.fm_outlier_fraction = 0.001;
  std::vector<uint32_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  grid.Build(data, &rows, s, {16, 1}, options);
  ColumnStore store(data, rows);
  grid.Attach(&store, 0);
  ASSERT_GT(grid.num_outliers(), 0);
  FullScanIndex reference(data);
  for (int trial = 0; trial < 100; ++trial) {
    Query q;
    q.agg = kAggs[trial % 5];
    q.agg_dim = trial % 2;
    Value lo = rng.UniformValue(0, 600000000);
    q.filters.push_back(Predicate{1, lo, lo + rng.UniformValue(0, 100000000)});
    if (trial % 2 == 0) {
      Value xlo = rng.UniformValue(0, 1000000);
      q.filters.push_back(Predicate{0, xlo, xlo + rng.UniformValue(0, 300000)});
    }
    QueryResult got = InitResult(q);
    grid.Execute(q, &got);
    QueryResult expected = reference.Execute(q);
    EXPECT_EQ(got.agg, expected.agg) << "trial " << trial;
    EXPECT_EQ(got.matched, expected.matched) << "trial " << trial;
  }
}

TEST(ScanKernelTest, PlanRangesMatchesExecute) {
  Dataset data = MakeData(20000, 3, /*clustered=*/false, 912);
  Skeleton s = Skeleton::AllIndependent(3);
  AugmentedGrid grid;
  std::vector<uint32_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  grid.Build(data, &rows, s, {8, 8, 8}, {});
  ColumnStore store(data, rows);
  grid.Attach(&store, 0);
  Rng rng(913);
  for (int trial = 0; trial < 100; ++trial) {
    Query q = RandomQuery(&rng, 3, 1 + trial % 3, kAggs[trial % 5]);
    QueryResult direct = InitResult(q);
    grid.Execute(q, &direct);
    QueryResult planned = InitResult(q);
    std::vector<RangeTask> tasks;
    grid.PlanRanges(q, &tasks, &planned);
    store.ScanRanges(tasks, q, &planned);
    ExpectSameResult(planned, direct, "plan+scan");
  }
}

// SUM and AVG whose true sum overflows int64 wrap modulo 2^64, and every
// path wraps identically: the oracle, every tier over encoded and raw
// stores (exact and filtered ranges), an unsealed and a sealed delta
// chunk, and a merge of two partial results.
TEST(ScanKernelTest, OverflowingSumWrapsIdenticallyEverywhere) {
  // Dim 0 numbers the rows; dim 1 sits at the int64 extremes. Block 0
  // spans kValueMax - {0, 1, 2} (narrow codes); blocks 1-2 alternate near
  // kValueMax and kValueMin (raw fallback blocks).
  const int64_t rows = 3 * kScanBlockRows;
  Dataset data(2, {});
  for (int64_t i = 0; i < rows; ++i) {
    Value v = kValueMax - i % 3;
    if (i >= kScanBlockRows) v = i % 2 == 0 ? kValueMax - i : kValueMin + i;
    data.AppendRow({i, v});
  }
  ColumnStore encoded(data, /*encode=*/true);
  ColumnStore raw(data, /*encode=*/false);
  ingest::DeltaChunk chunk(/*dims=*/2, /*capacity=*/rows, /*id=*/1);
  for (int64_t i = 0; i < rows; ++i) {
    const Value row[2] = {data.at(i, 0), data.at(i, 1)};
    ASSERT_TRUE(chunk.Append(row));
  }
  const Value lo = 5, hi = rows - 7;
  __int128 exact_sum = 0;
  uint64_t wrapped = 0;
  for (int64_t i = lo; i <= hi; ++i) {
    exact_sum += data.at(i, 1);
    wrapped += static_cast<uint64_t>(data.at(i, 1));
  }
  ASSERT_GT(exact_sum, static_cast<__int128>(kValueMax));  // Overflows.

  for (AggKind agg : {AggKind::kSum, AggKind::kAvg}) {
    Query q({Predicate{0, lo, hi}}, {AggregateSpec{agg, 1}});
    QueryResult want = InitResult(q);
    OracleScan(encoded, 0, rows, q, /*exact=*/false, &want);
    ASSERT_EQ(want.agg, static_cast<int64_t>(wrapped));
    QueryResult want_exact = InitResult(q);
    OracleScan(encoded, lo, hi + 1, q, /*exact=*/true, &want_exact);
    ASSERT_EQ(want_exact.agg, static_cast<int64_t>(wrapped));
    for (SimdTier tier : kTiers) {
      SCOPED_TRACE(SimdTierName(tier));
      for (const ColumnStore* store : {&encoded, &raw}) {
        QueryResult got = InitResult(q);
        store->ScanRange(0, rows, q, /*exact=*/false, &got, ScanOptions{tier});
        ExpectSameResult(got, want, "filtered");
        QueryResult got_exact = InitResult(q);
        store->ScanRange(lo, hi + 1, q, /*exact=*/true, &got_exact,
                         ScanOptions{tier});
        ExpectSameResult(got_exact, want_exact, "exact");
      }
      QueryResult delta = InitResult(q);
      chunk.Scan(q, &delta, ScanOptions{tier});
      EXPECT_EQ(delta.agg, want.agg) << "unsealed delta chunk";
      EXPECT_EQ(delta.matched, want.matched);
    }
    // Two partials, merged.
    QueryResult left = InitResult(q), right = InitResult(q);
    encoded.ScanRange(0, rows / 2, q, /*exact=*/false, &left);
    raw.ScanRange(rows / 2, rows, q, /*exact=*/false, &right);
    MergeQueryResults(q, right, &left);
    ExpectSameResult(left, want, "merged partials");
  }
  chunk.Seal();
  ASSERT_TRUE(chunk.sealed());
  for (AggKind agg : {AggKind::kSum, AggKind::kAvg}) {
    Query q({Predicate{0, lo, hi}}, {AggregateSpec{agg, 1}});
    for (SimdTier tier : kTiers) {
      QueryResult delta = InitResult(q);
      chunk.Scan(q, &delta, ScanOptions{tier});
      EXPECT_EQ(delta.agg, static_cast<int64_t>(wrapped))
          << "sealed delta chunk, " << SimdTierName(tier);
    }
  }
}

TEST(ScanKernelTest, ZoneMapsCoverEveryBlock) {
  Dataset data = MakeData(kScanBlockRows * 3 + 37, 2, false, 914);
  ColumnStore store(data);
  const ZoneMaps& zones = store.zone_maps();
  ASSERT_EQ(zones.num_blocks(), 4);
  for (int d = 0; d < 2; ++d) {
    int64_t total = 0;
    for (int64_t b = 0; b < zones.num_blocks(); ++b) {
      total += zones.Sum(d, b);
      EXPECT_LE(zones.Min(d, b), zones.Max(d, b));
    }
    int64_t expected = 0;
    for (int64_t r = 0; r < data.size(); ++r) expected += data.at(r, d);
    EXPECT_EQ(total, expected);
  }
}

}  // namespace
}  // namespace tsunami
