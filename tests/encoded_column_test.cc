// Cross-checks for the encoded-column layer: FOR + bit-width narrowed
// blocks must be bit-identical to raw blocks and to the row-at-a-time
// oracle under every SIMD tier — on unaligned/straddling/sub-width ranges,
// blocks that fall back to raw storage, and code-space bound-translation
// edge cases (including predicates empty after translation) — and must
// round-trip through serialization verbatim.
#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/storage/column_store.h"
#include "src/storage/encoded_column.h"
#include "src/storage/scan_kernel.h"
#include "src/storage/simd_dispatch.h"
#include "tests/scan_oracle.h"

namespace tsunami {
namespace {

constexpr AggKind kAggs[] = {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                             AggKind::kMax, AggKind::kAvg};

void ExpectSameResult(const QueryResult& got, const QueryResult& want,
                      const char* what) {
  EXPECT_EQ(got.agg, want.agg) << what;
  EXPECT_EQ(got.scanned, want.scanned) << what;
  EXPECT_EQ(got.matched, want.matched) << what;
  EXPECT_EQ(got.cell_ranges, want.cell_ranges) << what;
  ASSERT_EQ(got.extra.size(), want.extra.size()) << what;
  for (size_t i = 0; i < got.extra.size(); ++i) {
    EXPECT_EQ(got.extra[i], want.extra[i]) << what << " extra " << i;
  }
}

// Mixed-codec data: consecutive blocks cycle through ranges that encode at
// 8, 16, and 32-bit codes plus ranges so wide they must stay raw, with
// negative frames of reference in the mix. `clustered` sorts nothing —
// block-local ranges are what decide codecs, and they are set per block.
Dataset MakeMixedWidthData(int64_t rows, int dims, uint64_t seed) {
  Rng rng(seed);
  Dataset data(dims, {});
  std::vector<Value> row(dims);
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t block = i / kScanBlockRows;
    for (int d = 0; d < dims; ++d) {
      // Each (block, dim) pair gets its own width class and base.
      switch ((block + d) % 4) {
        case 0:  // 8-bit codes, negative ref.
          row[d] = -5000 + rng.UniformValue(0, 200);
          break;
        case 1:  // 16-bit codes.
          row[d] = 1000 + rng.UniformValue(0, 50000);
          break;
        case 2:  // 32-bit codes.
          row[d] = -100000 + rng.UniformValue(0, int64_t{1} << 24);
          break;
        default:  // Raw fallback: range wider than 32-bit codes allow.
          row[d] = rng.NextBelow(2) == 0
                       ? kValueMin + rng.UniformValue(0, 1000)
                       : kValueMax - rng.UniformValue(0, 1000);
          break;
      }
    }
    data.AppendRow(row);
  }
  return data;
}

Query RandomQuery(Rng* rng, int dims, int num_filters, AggKind agg) {
  Query q;
  q.SetAggregates({{agg, static_cast<int>(rng->NextBelow(dims))}});
  for (int f = 0; f < num_filters; ++f) {
    int dim = static_cast<int>(rng->NextBelow(dims));
    // Bounds spanning the width classes above, plus occasional extremes.
    Value lo;
    switch (rng->NextBelow(4)) {
      case 0:
        lo = -6000 + rng->UniformValue(0, 2000);
        break;
      case 1:
        lo = rng->UniformValue(0, 60000);
        break;
      case 2:
        lo = -200000 + rng->UniformValue(0, int64_t{1} << 24);
        break;
      default:
        lo = rng->NextBelow(2) == 0 ? kValueMin : kValueMax - 2000;
        break;
    }
    Value width = rng->NextBelow(4) == 0 ? rng->UniformValue(0, 100)
                                         : rng->UniformValue(0, int64_t{1}
                                                                    << 20);
    Value hi = (lo > kValueMax - width) ? kValueMax : lo + width;
    q.filters.push_back(Predicate{dim, lo, hi});
  }
  return q;
}

// --- Code-space bound translation ------------------------------------------

TEST(EncodedColumnTest, TranslateBoundsEdgeCases) {
  const uint64_t w8 = CodeDomainMax(1);
  // Fully below the block: empty before any clamping.
  EXPECT_EQ(TranslateToCodeSpace(-100, -1, 0, w8).state, CodeRange::kEmpty);
  // Fully above the code domain: empty after translation.
  EXPECT_EQ(TranslateToCodeSpace(256, 500, 0, w8).state, CodeRange::kEmpty);
  // Exactly the domain: the identity pass.
  EXPECT_EQ(TranslateToCodeSpace(0, 255, 0, w8).state, CodeRange::kAll);
  // Wider than the domain on both sides: still the identity.
  EXPECT_EQ(TranslateToCodeSpace(kValueMin, kValueMax, 0, w8).state,
            CodeRange::kAll);
  // Interior range translates with the ref subtracted.
  CodeRange cr = TranslateToCodeSpace(10, 20, 5, w8);
  EXPECT_EQ(cr.state, CodeRange::kCompare);
  EXPECT_EQ(cr.lo, 5u);
  EXPECT_EQ(cr.hi, 15u);
  // Upper bound clamps into the domain.
  cr = TranslateToCodeSpace(10, 100000, 5, w8);
  EXPECT_EQ(cr.state, CodeRange::kCompare);
  EXPECT_EQ(cr.lo, 5u);
  EXPECT_EQ(cr.hi, w8);
  // Equality at the block minimum / maximum code.
  cr = TranslateToCodeSpace(5, 5, 5, w8);
  EXPECT_EQ(cr.state, CodeRange::kCompare);
  EXPECT_EQ(cr.lo, 0u);
  EXPECT_EQ(cr.hi, 0u);
  // Negative ref near the int64 floor: offsets stay exact in uint64.
  cr = TranslateToCodeSpace(kValueMin + 3, kValueMin + 7, kValueMin,
                            CodeDomainMax(2));
  EXPECT_EQ(cr.state, CodeRange::kCompare);
  EXPECT_EQ(cr.lo, 3u);
  EXPECT_EQ(cr.hi, 7u);
  // Predicate at the int64 ceiling against a low ref: clamps, not wraps.
  cr = TranslateToCodeSpace(10, kValueMax, 0, CodeDomainMax(4));
  EXPECT_EQ(cr.state, CodeRange::kCompare);
  EXPECT_EQ(cr.lo, 10u);
  EXPECT_EQ(cr.hi, CodeDomainMax(4));
}

// --- Encode / decode / codec selection -------------------------------------

TEST(EncodedColumnTest, RoundTripsValuesAndPicksExpectedWidths) {
  Rng rng(7001);
  const int64_t rows = 4 * kScanBlockRows + 333;
  std::vector<Value> values(rows);
  for (int64_t i = 0; i < rows; ++i) {
    switch ((i / kScanBlockRows) % 5) {
      case 0:
        values[i] = 100 + rng.UniformValue(0, 255);  // u8.
        break;
      case 1:
        values[i] = -77 + rng.UniformValue(0, 40000);  // u16.
        break;
      case 2:
        values[i] = rng.UniformValue(0, int64_t{1} << 30);  // u32.
        break;
      case 3:
        values[i] = rng.NextBelow(2) == 0 ? kValueMin : kValueMax;  // Raw.
        break;
      default:
        values[i] = 42;  // Constant block: 8-bit, all-zero codes.
        break;
    }
  }
  EncodedColumn col;
  col.Encode(values, /*narrow=*/true);
  ASSERT_EQ(col.rows(), rows);
  ASSERT_EQ(col.num_blocks(), 5);
  for (int64_t i = 0; i < rows; ++i) {
    ASSERT_EQ(col.Get(i), values[i]) << "row " << i;
  }
  std::vector<Value> all = col.DecodeAll();
  EXPECT_EQ(all, values);
#if !defined(TSUNAMI_DISABLE_ENCODING)
  EXPECT_EQ(col.block(0).width, 1);
  EXPECT_EQ(col.block(1).width, 2);
  EXPECT_EQ(col.block(2).width, 4);
  EXPECT_EQ(col.block(3).width, 8);
  EXPECT_EQ(col.block(4).width, 1);
  int64_t widths[4] = {0, 0, 0, 0};
  col.WidthHistogram(widths);
  EXPECT_EQ(widths[0], 2);
  EXPECT_EQ(widths[1], 1);
  EXPECT_EQ(widths[2], 1);
  EXPECT_EQ(widths[3], 1);
  // Narrowing must actually shrink: 2 blocks at 1 B + 1 at 2 B + 1 at 4 B
  // + 1 raw block + metadata, against 8 B/row raw.
  EXPECT_LT(col.SizeBytes(), rows * static_cast<int64_t>(sizeof(Value)));
#endif
  // The raw-pinned encoding serves identical values.
  EncodedColumn raw;
  raw.Encode(values, /*narrow=*/false);
  EXPECT_EQ(raw.DecodeAll(), values);
  EXPECT_EQ(raw.block(0).width, 8);
}

TEST(EncodedColumnTest, SerializeRoundTrip) {
  Rng rng(7002);
  const int64_t rows = 3 * kScanBlockRows + 17;
  std::vector<Value> values(rows);
  for (int64_t i = 0; i < rows; ++i) {
    values[i] = (i / kScanBlockRows) % 2 == 0
                    ? -123 + rng.UniformValue(0, 200)
                    : rng.UniformValue(kValueMin / 2, kValueMax / 2);
  }
  EncodedColumn col;
  col.Encode(values, /*narrow=*/true);
  BinaryWriter writer;
  col.Serialize(&writer);
  EncodedColumn loaded;
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(loaded.Deserialize(&reader));
  ASSERT_TRUE(reader.AtEnd());
  ASSERT_EQ(loaded.rows(), col.rows());
  EXPECT_EQ(loaded.DecodeAll(), values);
  EXPECT_EQ(loaded.SizeBytes(), col.SizeBytes());
  for (int64_t b = 0; b < col.num_blocks(); ++b) {
    EXPECT_EQ(loaded.block(b).width, col.block(b).width) << "block " << b;
    EXPECT_EQ(loaded.block(b).ref, col.block(b).ref) << "block " << b;
  }
  // Truncated payloads are rejected, not misread.
  BinaryReader truncated(
      std::string_view(writer.buffer().data(), writer.buffer().size() / 2));
  EncodedColumn corrupt;
  EXPECT_FALSE(corrupt.Deserialize(&truncated));
}

// --- Store-level: encoded vs raw scans, every tier, randomized -------------

TEST(EncodedColumnTest, EncodedScansBitIdenticalToRawAcrossTiers) {
  const int kDims = 4;
  Dataset data = MakeMixedWidthData(8 * kScanBlockRows + 501, kDims, 7004);
  ColumnStore encoded(data, /*encode=*/true);
  ColumnStore raw(data, /*encode=*/false);
  ASSERT_EQ(encoded.size(), raw.size());
  const SimdTier kTiers[] = {SimdTier::kAuto, SimdTier::kNone,
                             SimdTier::kNeon, SimdTier::kAvx2,
                             SimdTier::kAvx512};
  Rng rng(7005);
  for (int trial = 0; trial < 200; ++trial) {
    AggKind agg = kAggs[trial % 5];
    Query q = RandomQuery(&rng, kDims, 1 + static_cast<int>(rng.NextBelow(4)),
                          agg);
    if (trial % 3 == 0) {
      // Multi-aggregate: one pass must feed every accumulator identically.
      q.SetAggregates({{agg, 0},
                       {AggKind::kSum, 1},
                       {AggKind::kMin, 2},
                       {AggKind::kCount, 0}});
    }
    int64_t begin = rng.UniformValue(0, encoded.size());
    int64_t end = rng.UniformValue(begin, encoded.size());
    if (trial % 13 == 0) {
      begin = 0;
      end = encoded.size();
    }
    const bool exact = trial % 7 == 0;
    QueryResult want = InitResult(q);
    OracleScan(raw, begin, end, q, exact, &want);
    for (SimdTier tier : kTiers) {
      QueryResult got = InitResult(q);
      encoded.ScanRange(begin, end, q, exact, &got, ScanOptions{tier});
      ExpectSameResult(got, want, SimdTierName(tier));
      QueryResult raw_got = InitResult(q);
      raw.ScanRange(begin, end, q, exact, &raw_got, ScanOptions{tier});
      ExpectSameResult(raw_got, want, "raw store");
    }
  }
}

// Unaligned, straddling, and sub-SIMD-width ranges around every block seam,
// against filters placed at codec boundaries (block min/max, empty after
// translation, covering the whole block).
TEST(EncodedColumnTest, UnalignedRangesAndTranslationBoundaries) {
  const int kDims = 3;
  Dataset data = MakeMixedWidthData(4 * kScanBlockRows + 117, kDims, 7006);
  ColumnStore encoded(data, /*encode=*/true);
  ColumnStore raw(data, /*encode=*/false);
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (int64_t edge : {kScanBlockRows, 2 * kScanBlockRows,
                       3 * kScanBlockRows}) {
    for (int64_t d : {1, 2, 3, 5, 9, 17, 33, 65}) {
      ranges.push_back({edge - d, edge + d});
      ranges.push_back({edge, edge + d});
      ranges.push_back({edge - d, edge});
    }
  }
  ranges.push_back({0, encoded.size()});
  ranges.push_back({3, 4});
  const std::vector<std::vector<Predicate>> filter_sets = {
      // Straddles the u8 blocks' domain (ref approx -5000).
      {Predicate{0, -5000, -4900}},
      // Empty after translation for the u8/u16 blocks, live for u32/raw.
      {Predicate{0, int64_t{1} << 22, int64_t{1} << 23}},
      // Equality at a possible frame of reference.
      {Predicate{1, -5000, -5000}},
      // Covers every narrow block whole (kAll fast-out) but not raw ones.
      {Predicate{0, -2000000, int64_t{1} << 40}, Predicate{1, -6000, 70000}},
      // Matches nothing anywhere.
      {Predicate{2, kValueMax - 5, kValueMax - 4}},
      {},  // No filters.
  };
  for (const auto& filters : filter_sets) {
    for (const auto& [begin, end] : ranges) {
      for (AggKind agg : kAggs) {
        Query q;
        q.SetAggregates({{agg, 2}});
        q.filters = filters;
        QueryResult want = InitResult(q);
        OracleScan(raw, begin, end, q, /*exact=*/false, &want);
        QueryResult got = InitResult(q);
        encoded.ScanRange(begin, end, q, /*exact=*/false, &got);
        ExpectSameResult(got, want, "encoded");
      }
    }
  }
}

TEST(EncodedColumnTest, BatchedScansAndDataSize) {
  const int kDims = 3;
  Dataset data = MakeMixedWidthData(6 * kScanBlockRows, kDims, 7007);
  ColumnStore encoded(data, /*encode=*/true);
  ColumnStore raw(data, /*encode=*/false);
  Rng rng(7008);
  for (int trial = 0; trial < 40; ++trial) {
    Query q = RandomQuery(&rng, kDims, 2, kAggs[trial % 5]);
    std::vector<RangeTask> tasks;
    int64_t cursor = 0;
    while (cursor < encoded.size()) {
      int64_t len = rng.UniformValue(0, 3000);
      int64_t end = std::min(encoded.size(), cursor + len);
      tasks.push_back(RangeTask{cursor, end, /*exact=*/rng.NextBelow(5) == 0});
      cursor = end + rng.UniformValue(0, 700);
    }
    QueryResult got = InitResult(q), want = InitResult(q);
    encoded.ScanRanges(tasks, q, &got);
    OracleScanTasks(raw, tasks, q, &want);
    ExpectSameResult(got, want, "batch");
  }
#if !defined(TSUNAMI_DISABLE_ENCODING)
  // Mixed-width data narrows 3 of every 4 blocks: true stored bytes must
  // undercut the logical 8 B/value footprint; the raw store cannot.
  const int64_t logical =
      encoded.size() * kDims * static_cast<int64_t>(sizeof(Value));
  EXPECT_LT(encoded.DataSizeBytes(), logical);
  EXPECT_GE(raw.DataSizeBytes(), logical);
#endif
}

TEST(EncodedColumnTest, StoreSerializeRoundTripPreservesEncodedBlocks) {
  Dataset data = MakeMixedWidthData(3 * kScanBlockRows + 77, 3, 7009);
  ColumnStore store(data, /*encode=*/true);
  BinaryWriter writer;
  store.Serialize(&writer);
  ColumnStore loaded;
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(loaded.Deserialize(&reader));
  ASSERT_EQ(loaded.size(), store.size());
  ASSERT_EQ(loaded.dims(), store.dims());
  ASSERT_EQ(loaded.DataSizeBytes(), store.DataSizeBytes());
  for (int d = 0; d < store.dims(); ++d) {
    for (int64_t b = 0; b < store.encoded(d).num_blocks(); ++b) {
      ASSERT_EQ(loaded.encoded(d).block(b).width,
                store.encoded(d).block(b).width);
    }
    EXPECT_EQ(loaded.DecodeColumn(d), store.DecodeColumn(d));
  }
  // And the loaded store answers queries identically (zone maps rebuilt).
  Rng rng(7010);
  for (int trial = 0; trial < 30; ++trial) {
    Query q = RandomQuery(&rng, 3, 2, kAggs[trial % 5]);
    QueryResult got = InitResult(q), want = InitResult(q);
    loaded.ScanRange(0, loaded.size(), q, /*exact=*/false, &got);
    store.ScanRange(0, store.size(), q, /*exact=*/false, &want);
    ExpectSameResult(got, want, "loaded");
  }
}

TEST(EncodedColumnTest, LowerUpperBoundOnEncodedStore) {
  Dataset data(1, {});
  for (int64_t i = 0; i < 2 * kScanBlockRows; ++i) {
    data.AppendRow({i / 3});  // Sorted with duplicates; narrow blocks.
  }
  ColumnStore store(data, /*encode=*/true);
  Rng rng(7011);
  for (int trial = 0; trial < 100; ++trial) {
    Value v = rng.UniformValue(-5, 2 * kScanBlockRows / 3 + 5);
    int64_t lo = store.LowerBound(0, 0, store.size(), v);
    int64_t hi = store.UpperBound(0, 0, store.size(), v);
    EXPECT_TRUE(lo == store.size() || store.Get(lo, 0) >= v);
    EXPECT_TRUE(lo == 0 || store.Get(lo - 1, 0) < v);
    EXPECT_TRUE(hi == store.size() || store.Get(hi, 0) > v);
    EXPECT_TRUE(hi == 0 || store.Get(hi - 1, 0) <= v);
  }
}

}  // namespace
}  // namespace tsunami
