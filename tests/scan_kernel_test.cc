// Cross-checks for the block-based scan kernel: every SIMD tier (forced
// tiers the CPU lacks fall back to the portable kNone loops) must agree
// bit-for-bit with the row-at-a-time oracle (tests/scan_oracle.h) on every
// QueryResult field, for every aggregate, range shape (empty / exact /
// ragged block edges / sub-SIMD-width tails), filter count, zone-map
// coverage per filter, and through the batched multi-range executor, the
// grid's outlier buffer and coalesced range plans.
#include <bit>
#include <limits>
#include <numeric>
#include <type_traits>

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
  q.SetAggregates({{agg, static_cast<int>(rng->NextBelow(dims))}});
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
  EXPECT_EQ(got.degraded, want.degraded) << what;
  EXPECT_EQ(got.quarantined_blocks, want.quarantined_blocks) << what;
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
            q.SetAggregates({{agg, 2}});
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

// ---- Ops-table level: mask and fold ops vs row-at-a-time loops ----------

// Row-at-a-time reference for and_mask: clears the bit of every row outside
// [lo, hi] and every bit at or past `count` in the covered words.
template <typename T>
int RowAndMask(const T* codes, int count, T lo, T hi, uint64_t* mask) {
  int selected = 0;
  for (int base = 0; base < count; base += 64) {
    uint64_t bits = 0;
    for (int k = 0; k < 64 && base + k < count; ++k) {
      if (lo <= codes[base + k] && codes[base + k] <= hi) {
        bits |= uint64_t{1} << k;
      }
    }
    mask[base / 64] &= bits;
    for (int k = 0; k < 64; ++k) selected += (mask[base / 64] >> k) & 1;
  }
  return selected;
}

// Row-at-a-time reference for fold.
template <typename T>
CodeFold RowFold(const T* codes, int count, const uint64_t* mask) {
  CodeFold f{0, static_cast<int64_t>(std::numeric_limits<T>::max()),
             static_cast<int64_t>(std::numeric_limits<T>::min())};
  for (int i = 0; i < count; ++i) {
    if (mask != nullptr && ((mask[i / 64] >> (i % 64)) & 1) == 0) continue;
    f.sum += static_cast<uint64_t>(codes[i]);
    f.min = std::min<int64_t>(f.min, codes[i]);
    f.max = std::max<int64_t>(f.max, codes[i]);
  }
  return f;
}

// One code width's and_mask and fold entries.
template <typename T>
struct WidthOps {
  int (*and_mask)(const T*, int, T, T, uint64_t*);
  CodeFold (*fold)(const T*, int, const uint64_t*);
};

WidthOps<uint8_t> OpsOf(const SimdOps& ops, uint8_t) {
  return {ops.and_mask_u8, ops.fold_u8};
}
WidthOps<uint16_t> OpsOf(const SimdOps& ops, uint16_t) {
  return {ops.and_mask_u16, ops.fold_u16};
}
WidthOps<uint32_t> OpsOf(const SimdOps& ops, uint32_t) {
  return {ops.and_mask_u32, ops.fold_u32};
}
WidthOps<Value> OpsOf(const SimdOps& ops, Value) {
  return {ops.and_mask_i64, ops.fold_i64};
}

// Every supported tier's and_mask and fold at width T equal both the
// row-at-a-time loops and the portable table, at every length around the
// lane and mask-word widths and at unaligned slice offsets. Each case's
// codes sit in a buffer that ends exactly at the slice's last code, so an
// over-read is a heap-buffer-overflow under ASan. Lengths that are
// multiples of 64 catch an unguarded shift by 64 under UBSan.
template <typename T>
void CheckMaskAndFoldOps(Rng* rng) {
  constexpr bool kRaw = std::is_signed_v<T>;
  const T kMax = std::numeric_limits<T>::max();
  const T kMin = std::numeric_limits<T>::min();
  // Bounds: the full domain, each extreme alone, interior ranges, and (raw
  // values, which compare untranslated) an inverted range.
  std::vector<std::pair<T, T>> bounds = {
      {kMin, kMax}, {kMin, kMin}, {kMax, kMax}, {T{3}, T{200}},
      {T{1}, static_cast<T>(kMax / 2 + 1)}};
  if constexpr (kRaw) {
    bounds.push_back({-300, 300});
    bounds.push_back({5, -5});  // lo > hi: matches nothing.
  }
  const WidthOps<T> portable = OpsOf(ScalarSimdOps(), T{});
  for (SimdTier tier : {SimdTier::kNone, SimdTier::kNeon, SimdTier::kAvx2,
                        SimdTier::kAvx512}) {
    if (!SimdTierSupported(tier)) continue;
    const WidthOps<T> ops = OpsOf(OpsForTier(tier), T{});
    SCOPED_TRACE(SimdTierName(tier));
    for (int count : {0,  1,  2,  3,  4,  5,   6,   7,    8,    9,    10,
                      11, 12, 13, 14, 15, 16,  17,  31,   32,   33,   63,
                      64, 65, 127, 128, 1000, 1023, 1024}) {
      for (int off : {0, 1, 3, 61}) {
        SCOPED_TRACE(testing::Message() << "count=" << count << " off=" << off);
        // Codes: mostly small (so interior bounds split them), with the
        // width's extremes mixed in; raw values reach kValueMin/kValueMax,
        // so their sums wrap.
        std::vector<T> buffer(off + count);
        for (T& c : buffer) {
          const uint64_t r = rng->NextBelow(16);
          c = r == 0   ? kMin
              : r == 1 ? kMax
                       : static_cast<T>(kRaw ? rng->UniformValue(-1000, 1000)
                                             : rng->UniformValue(0, 1000));
        }
        const T* codes = buffer.data() + off;
        // Masks over [0, count): empty, full, only the last row, ~1% and
        // ~50% of the rows.
        std::vector<std::vector<uint64_t>> masks;
        for (int shape = 0; shape < 5; ++shape) {
          std::vector<uint64_t> m(kMaskWords, 0);
          for (int i = 0; i < count; ++i) {
            const bool set = shape == 1 || (shape == 2 && i == count - 1) ||
                             (shape == 3 && rng->NextBelow(100) == 0) ||
                             (shape == 4 && rng->NextBelow(2) == 0);
            if (set) m[i / 64] |= uint64_t{1} << (i % 64);
          }
          masks.push_back(std::move(m));
        }
        for (const std::vector<uint64_t>& in : masks) {
          const CodeFold want = RowFold(codes, count, in.data());
          EXPECT_EQ(ops.fold(codes, count, in.data()), want);
          EXPECT_EQ(portable.fold(codes, count, in.data()), want);
          for (auto [lo, hi] : bounds) {
            // Bits past `count` start set: and_mask must clear them in the
            // covered words and leave later words alone.
            std::vector<uint64_t> want_mask = in;
            for (int i = count; i < kScanBlockRows; ++i) {
              want_mask[i / 64] |= uint64_t{1} << (i % 64);
            }
            std::vector<uint64_t> got_mask = want_mask;
            std::vector<uint64_t> portable_mask = want_mask;
            const int want_n =
                RowAndMask(codes, count, lo, hi, want_mask.data());
            EXPECT_EQ(ops.and_mask(codes, count, lo, hi, got_mask.data()),
                      want_n);
            EXPECT_EQ(got_mask, want_mask) << "lo=" << lo << " hi=" << hi;
            EXPECT_EQ(
                portable.and_mask(codes, count, lo, hi, portable_mask.data()),
                want_n);
            EXPECT_EQ(portable_mask, want_mask);
          }
        }
        const CodeFold all = RowFold<T>(codes, count, nullptr);
        EXPECT_EQ(ops.fold(codes, count, nullptr), all);
        EXPECT_EQ(portable.fold(codes, count, nullptr), all);
      }
    }
  }
}

TEST(ScanKernelTest, MaskAndFoldOpsMatchRowLoopsAtEveryLength) {
  Rng rng(922);
  CheckMaskAndFoldOps<uint8_t>(&rng);
  CheckMaskAndFoldOps<uint16_t>(&rng);
  CheckMaskAndFoldOps<uint32_t>(&rng);
  CheckMaskAndFoldOps<Value>(&rng);
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
    const int column = static_cast<int>(rng.NextBelow(3));
    q.SetAggregates({{kAggs[trial % 5], column}});
    if (trial % 4 == 0) {
      q.SetAggregates({{kAggs[trial % 5], column},
                       {AggKind::kCount, 0},
                       {AggKind::kMax, (column + 1) % 3}});
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
    q.SetAggregates({{AggKind::kSum, 1}});
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
    q.SetAggregates({{kAggs[trial % 5], trial % 2}});
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

// Stores whose blocks all share one code width and whose last block is
// short: the last block's codes end where the column's exact-size payload
// ends, so under ASan any load past a slice's last code is a
// heap-buffer-overflow. Filtered and exact ranges that end at the last row
// must equal the oracle at every tier and width.
TEST(ScanKernelTest, RangesEndingAtTheLastRowReadNoCodePastIt) {
  const int64_t rows = 5 * kScanBlockRows + 37;
  const std::pair<int, Value> kWidths[] = {
      {1, 200}, {2, 60000}, {4, Value{3} << 30}, {8, Value{1} << 40}};
  for (auto [width, span] : kWidths) {
    SCOPED_TRACE(testing::Message() << "width=" << width);
    Rng rng(930 + width);
    Dataset data(2, {});
    for (int64_t i = 0; i < rows; ++i) {
      data.AppendRow({rng.UniformValue(0, span), rng.UniformValue(0, span)});
    }
    ColumnStore store(data, /*encode=*/true);
#if defined(TSUNAMI_DISABLE_ENCODING)
    const unsigned stored = 8;  // The build pins every block raw.
#else
    const unsigned stored = static_cast<unsigned>(width);
#endif
    for (int d = 0; d < 2; ++d) {
      int64_t widths[4] = {0, 0, 0, 0};
      store.encoded(d).WidthHistogram(widths);
      ASSERT_EQ(widths[std::countr_zero(stored)], store.encoded(d).num_blocks());
    }
    Query q({Predicate{0, span / 10, span - span / 10},
             Predicate{1, span / 4, span}},
            {AggregateSpec{AggKind::kCount, 0}, AggregateSpec{AggKind::kSum, 0},
             AggregateSpec{AggKind::kMin, 0}, AggregateSpec{AggKind::kMax, 0},
             AggregateSpec{AggKind::kAvg, 1}});
    for (int64_t begin : {int64_t{0}, rows - 1, rows - 36, rows - 37,
                          rows - 38, rows - 64, rows - 65, rows - 100,
                          4 * kScanBlockRows + 1, 5 * kScanBlockRows - 3}) {
      for (bool exact : {false, true}) {
        QueryResult want = InitResult(q);
        OracleScan(store, begin, rows, q, exact, &want);
        for (SimdTier tier : kTiers) {
          QueryResult got = InitResult(q);
          store.ScanRange(begin, rows, q, exact, &got, ScanOptions{tier});
          ExpectSameResult(got, want, SimdTierName(tier));
        }
      }
    }
  }
}

// Zone-map coverage per filter: a filter whose range holds a block's
// [min, max] runs no pass over the block. Every tier, over encoded and raw
// stores and exact and filtered ranges, must still answer like the oracle:
// covered and uncovered filters in one block, coverage that holds in one
// block but not in its neighbour, slices of a block, and more filters than
// SmallIndexSet holds.
TEST(ScanKernelTest, ZoneCoveredFiltersMatchOracleOnEveryTier) {
  // d0 is the row number, so block b's d0 zone is
  // [b * kScanBlockRows, (b + 1) * kScanBlockRows - 1].
  constexpr int64_t kRows = 4 * kScanBlockRows + 300;
  constexpr Value kB = kScanBlockRows;
  Rng rng(951);
  Dataset data(3, {});
  for (int64_t r = 0; r < kRows; ++r) {
    data.AppendRow({r, rng.UniformValue(0, 5000), rng.UniformValue(-700, 700)});
  }
  const ColumnStore probe(data);
  const ZoneMaps& zones = probe.zone_maps();
  const Value z1_lo = zones.Min(1, 1), z1_hi = zones.Max(1, 1);
  const Value z2_lo = zones.Min(2, 2), z2_hi = zones.Max(2, 2);
  ASSERT_LT(z1_lo + 1, z1_hi);

  std::vector<std::vector<Predicate>> cases = {
      // lo == zmin and hi == zmax: d1 covers block 1; d2 is partial.
      {{1, z1_lo, z1_hi}, {2, -300, 300}},
      // lo == zmin + 1: d1 no longer covers block 1.
      {{1, z1_lo + 1, z1_hi}, {2, -300, 300}},
      // d0 covers block 1 but only half of block 2, d2 covers block 2
      // exactly, and d1 is partial everywhere.
      {{0, kB, 2 * kB + kB / 2}, {2, z2_lo, z2_hi}, {1, 100, 4000}},
      // Every filter covers block 2 (the whole-block aggregate path), and
      // the covered d0 filter comes last.
      {{2, z2_lo, z2_hi}, {1, kValueMin, kValueMax}, {0, 2 * kB, 3 * kB - 1}},
      // A filter disjoint from some blocks next to covered ones.
      {{1, kValueMin, kValueMax}, {0, 3 * kB + 5, kRows + 10}},
  };
  // More filters than the covered set holds. Filters 5 and 66 drop rows;
  // every other one spans the whole domain, so every block covers it —
  // including 69, which shares filter 5's bit position modulo 64.
  std::vector<Predicate> many;
  for (int i = 0; i < 70; ++i) many.push_back({i % 3, kValueMin, kValueMax});
  many[5] = Predicate{2, -200, 500};
  many[66] = Predicate{1, 1000, 3500};
  ASSERT_GT(many.size(), SmallIndexSet::kCapacity);
  cases.push_back(many);

  const std::pair<int64_t, int64_t> ranges[] = {
      {0, kRows},                   // Whole store.
      {kB, 2 * kB},                 // Exactly block 1.
      {kB + 100, 3 * kB - 50},      // Slices of blocks 1 and 2.
      {2 * kB + 10, 2 * kB + 700},  // Inside one block.
      {4 * kB - 3, kRows}};         // Into the ragged last block.
  const std::vector<AggregateSpec> aggs = {{AggKind::kCount, 0},
                                           {AggKind::kSum, 1},
                                           {AggKind::kMin, 2},
                                           {AggKind::kMax, 1},
                                           {AggKind::kAvg, 0}};
  for (bool encode : {true, false}) {
    const ColumnStore store(data, encode);
    for (size_t c = 0; c < cases.size(); ++c) {
      const Query q(cases[c], aggs);
      for (auto [begin, end] : ranges) {
        for (bool exact : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "encode=" << encode << " case=" << c << " ["
                       << begin << ", " << end << ") exact=" << exact);
          QueryResult want = InitResult(q);
          OracleScan(store, begin, end, q, exact, &want);
          if (!exact && begin == 0) {
            EXPECT_GT(want.matched, 0);
            EXPECT_LT(want.matched, end - begin);
          }
          for (SimdTier tier : kTiers) {
            QueryResult got = InitResult(q);
            store.ScanRange(begin, end, q, exact, &got, ScanOptions{tier});
            ExpectSameResult(got, want, SimdTierName(tier));
          }
        }
      }
    }
  }
}

// ScanBlockSlice runs no pass for a filter in its covered set, even one
// that would drop rows (the caller vouches for it), and always runs the
// filters past the set's capacity.
TEST(ScanKernelTest, ScanBlockSliceSkipsOnlyCoveredFilters) {
  // One raw block: column 0 is the row number, column 1 is row % 10.
  std::vector<Value> raw(2 * kScanBlockRows);
  for (int64_t r = 0; r < kScanBlockRows; ++r) {
    raw[r] = r;
    raw[kScanBlockRows + r] = r % 10;
  }
  const BlockColumns block(raw.data(), kScanBlockRows);
  const SimdOps& ops = OpsForTier(SimdTier::kAuto);
  auto matched = [&](const Query& q, SmallIndexSet covered) {
    QueryResult out = InitResult(q);
    ScanBlockSlice(block, /*off=*/0, static_cast<int>(kScanBlockRows), q,
                   covered, ops, &out);
    return out.matched;
  };
  // Rows 0-99 pass filter 0; 514 of the block's rows (r % 10 < 5) pass
  // filter 1; 50 pass both.
  const Query two({{0, 0, 99}, {1, 0, 4}}, {});
  SmallIndexSet first, second;
  first.Insert(0);
  second.Insert(1);
  EXPECT_EQ(matched(two, SmallIndexSet{}), 50);
  EXPECT_EQ(matched(two, first), 514);
  EXPECT_EQ(matched(two, second), 100);

  Query many;
  for (int i = 0; i < 70; ++i) many.filters.push_back({i % 2});
  many.filters[5] = Predicate{1, 0, 4};
  many.filters[69] = Predicate{0, 0, 99};
  SmallIndexSet past_capacity;
  EXPECT_TRUE(past_capacity.Insert(69));
  EXPECT_TRUE(past_capacity.Insert(69));  // Never becomes a member.
  EXPECT_FALSE(past_capacity.Contains(69));
  EXPECT_FALSE(past_capacity.Contains(5));
  EXPECT_EQ(matched(many, past_capacity), 50);
}

TEST(ScanKernelTest, AppendRangeTaskCoalescesOnlyAdjacentEqualExactness) {
  std::vector<RangeTask> tasks;
  AppendRangeTask(&tasks, {10, 20, false});
  AppendRangeTask(&tasks, {20, 30, false});  // Adjacent: extends.
  AppendRangeTask(&tasks, {30, 30, true});   // Empty: dropped.
  AppendRangeTask(&tasks, {30, 40, true});   // Other exactness: new task.
  AppendRangeTask(&tasks, {41, 50, true});   // Gap: new task.
  AppendRangeTask(&tasks, {50, 60, true});
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].begin, 10);
  EXPECT_EQ(tasks[0].end, 30);
  EXPECT_FALSE(tasks[0].exact);
  EXPECT_EQ(tasks[1].begin, 30);
  EXPECT_EQ(tasks[1].end, 40);
  EXPECT_TRUE(tasks[1].exact);
  EXPECT_EQ(tasks[2].begin, 41);
  EXPECT_EQ(tasks[2].end, 60);
}

// Two adjacent cell runs that share a quarantined block reach the scan as
// one task, so the block is skipped and counted once: the degraded result
// is what the oracle reports for the coalesced plan.
TEST(ScanKernelTest, CoalescedRunsSharingAQuarantinedBlockCountItOnce) {
  // Eight well-separated d0 groups of 1500 rows: each of d0's eight
  // partitions holds one group, so cell runs end mid-block.
  constexpr int64_t kGroup = 1500;
  Rng rng(961);
  Dataset data(2, {});
  for (int64_t g = 0; g < 8; ++g) {
    for (int64_t i = 0; i < kGroup; ++i) {
      data.AppendRow({g * 1000 + rng.UniformValue(0, 99),
                      rng.UniformValue(-1000, 1000)});
    }
  }
  AugmentedGrid grid;
  AugmentedGrid::BuildOptions options;
  options.sort_dim = 1;
  std::vector<uint32_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  grid.Build(data, &rows, Skeleton::AllIndependent(2), {8, 1}, options);
  ColumnStore store(data, rows);
  grid.Attach(&store, 0);
  auto plan = [&](const Query& q, QueryResult* counters) {
    std::vector<RangeTask> tasks;
    grid.PlanRanges(q, &tasks, counters);
    return tasks;
  };
  const std::vector<AggregateSpec> sum = {{AggKind::kSum, 1}};
  // Groups 1 and 2 each plan one exact run, and the runs meet mid-block.
  QueryResult unused = InitResult(Query({}, sum));
  const std::vector<RangeTask> one =
      plan(Query({{0, 1000, 1099}}, sum), &unused);
  const std::vector<RangeTask> two =
      plan(Query({{0, 2000, 2099}}, sum), &unused);
  ASSERT_EQ(one.size(), 1u);
  ASSERT_EQ(two.size(), 1u);
  ASSERT_TRUE(one[0].exact && two[0].exact);
  ASSERT_EQ(one[0].end, two[0].begin);
  const int64_t seam = two[0].begin;
  ASSERT_NE(seam % kScanBlockRows, 0);

  const Query q({{0, 1000, 2099}}, sum);
  QueryResult counters = InitResult(q);
  const std::vector<RangeTask> tasks = plan(q, &counters);
  ASSERT_EQ(counters.cell_ranges, 2);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].begin, one[0].begin);
  EXPECT_EQ(tasks[0].end, two[0].end);

  store.encoded(1).Quarantine(seam / kScanBlockRows);
  QueryResult got = InitResult(q);
  grid.Execute(q, &got);
  QueryResult want = counters;
  OracleScanTasks(store, tasks, q, &want);
  ExpectSameResult(got, want, "coalesced");
  EXPECT_TRUE(got.degraded);
  EXPECT_EQ(got.quarantined_blocks, 1);
  // The two runs as separate tasks would touch the block twice.
  const std::vector<RangeTask> runs = {one[0], two[0]};
  QueryResult split = InitResult(q);
  OracleScanTasks(store, runs, q, &split);
  EXPECT_EQ(split.quarantined_blocks, 2);
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
