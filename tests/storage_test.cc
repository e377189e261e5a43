// Tests for the column-store substrate and dictionary encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/common/random.h"
#include "src/exec/task_scheduler.h"
#include "src/io/serializer.h"
#include "src/storage/column_store.h"
#include "src/storage/dictionary.h"

namespace tsunami {
namespace {

Dataset SmallDataset() {
  Dataset data(2, {});
  data.AppendRow({1, 10});
  data.AppendRow({2, 20});
  data.AppendRow({3, 30});
  data.AppendRow({4, 40});
  return data;
}

TEST(ColumnStoreTest, PermutationReordersRows) {
  Dataset data = SmallDataset();
  ColumnStore store(data, {3, 2, 1, 0});
  EXPECT_EQ(store.Get(0, 0), 4);
  EXPECT_EQ(store.Get(3, 1), 10);
  EXPECT_EQ(store.size(), 4);
  EXPECT_EQ(store.dims(), 2);
}

TEST(ColumnStoreTest, ScanCountsMatches) {
  Dataset data = SmallDataset();
  ColumnStore store(data);
  Query q;
  q.filters = {Predicate{0, 2, 3}};
  QueryResult r;
  store.ScanRange(0, store.size(), q, false, &r);
  EXPECT_EQ(r.agg, 2);
  EXPECT_EQ(r.scanned, 4);
  EXPECT_EQ(r.matched, 2);
}

TEST(ColumnStoreTest, ExactScanSkipsChecksForCount) {
  Dataset data = SmallDataset();
  ColumnStore store(data);
  Query q;
  q.filters = {Predicate{0, 100, 200}};  // Matches nothing...
  QueryResult r;
  store.ScanRange(0, 4, q, /*exact=*/true, &r);  // ...but exact says all do.
  EXPECT_EQ(r.agg, 4);
  EXPECT_EQ(r.scanned, 0);  // COUNT over an exact range touches no data.
}

TEST(ColumnStoreTest, SumAggregationOverExactRange) {
  Dataset data = SmallDataset();
  ColumnStore store(data);
  Query q;
  q.SetAggregates({{AggKind::kSum, 1}});
  QueryResult r;
  store.ScanRange(1, 3, q, /*exact=*/true, &r);
  EXPECT_EQ(r.agg, 50);  // 20 + 30.
}

TEST(ColumnStoreTest, SumWithFilters) {
  Dataset data = SmallDataset();
  ColumnStore store(data);
  Query q;
  q.SetAggregates({{AggKind::kSum, 1}});
  q.filters = {Predicate{0, 2, 4}};
  QueryResult r;
  store.ScanRange(0, 4, q, false, &r);
  EXPECT_EQ(r.agg, 90);
}

TEST(ColumnStoreTest, BoundsOnSortedRange) {
  Dataset data(1, {});
  for (Value v : {1, 3, 3, 3, 7, 9}) data.AppendRow({v});
  ColumnStore store(data);
  EXPECT_EQ(store.LowerBound(0, 0, 6, 3), 1);
  EXPECT_EQ(store.UpperBound(0, 0, 6, 3), 4);
  EXPECT_EQ(store.LowerBound(0, 0, 6, 100), 6);
}

TEST(ColumnStoreTest, FullScanAgainstNaive) {
  Rng rng(81);
  Dataset data(3, {});
  for (int i = 0; i < 5000; ++i) {
    data.AppendRow({rng.UniformValue(0, 99), rng.UniformValue(0, 99),
                    rng.UniformValue(0, 99)});
  }
  ColumnStore store(data);
  for (int trial = 0; trial < 50; ++trial) {
    Query q;
    for (int d = 0; d < 3; ++d) {
      Value lo = rng.UniformValue(0, 99);
      Value hi = rng.UniformValue(lo, 99);
      q.filters.push_back(Predicate{d, lo, hi});
    }
    int64_t expected = 0;
    for (int64_t r = 0; r < data.size(); ++r) {
      bool ok = true;
      for (const Predicate& p : q.filters) ok &= p.Matches(data.at(r, p.dim));
      expected += ok;
    }
    EXPECT_EQ(ExecuteFullScan(store, q).agg, expected);
  }
}

TEST(ColumnStoreTest, SchedulerEncodeSerializesIdentically) {
  // Columns of different spreads so blocks land on every code width, over
  // a shuffled permutation with a partial last block.
  Rng rng(82);
  Dataset data(4, {});
  for (int i = 0; i < 5 * 1024 + 77; ++i) {
    data.AppendRow({rng.UniformValue(0, 200), rng.UniformValue(0, 60000),
                    rng.UniformValue(0, 1 << 30),
                    rng.UniformValue(kValueMin / 2, kValueMax / 2)});
  }
  std::vector<uint32_t> perm(data.size());
  std::iota(perm.begin(), perm.end(), 0u);
  for (size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.NextBelow(i + 1)]);
  }
  ColumnStore serial(data, perm);
  TaskScheduler scheduler(4);
  double seconds = -1.0;
  ColumnStore parallel(data, perm, EncodingEnabledByDefault(), &scheduler,
                       &seconds);
  EXPECT_GE(seconds, 0.0);
  BinaryWriter a, b;
  serial.Serialize(&a);
  parallel.Serialize(&b);
  EXPECT_EQ(a.buffer(), b.buffer());
  const ZoneMaps& za = serial.zone_maps();
  const ZoneMaps& zb = parallel.zone_maps();
  ASSERT_EQ(za.num_blocks(), zb.num_blocks());
  for (int d = 0; d < data.dims(); ++d) {
    for (int64_t blk = 0; blk < za.num_blocks(); ++blk) {
      EXPECT_EQ(za.Min(d, blk), zb.Min(d, blk));
      EXPECT_EQ(za.Max(d, blk), zb.Max(d, blk));
      EXPECT_EQ(za.Sum(d, blk), zb.Sum(d, blk));
    }
  }
}

TEST(DictionaryTest, OrderPreservingCodes) {
  Dictionary dict = Dictionary::Build({"MAIL", "AIR", "SHIP", "AIR", "RAIL"});
  EXPECT_EQ(dict.size(), 4);  // Deduplicated.
  EXPECT_EQ(dict.Encode("AIR"), 0);
  EXPECT_EQ(dict.Encode("SHIP"), 3);
  EXPECT_EQ(dict.Encode("TRUCK"), -1);
  EXPECT_LT(dict.Encode("MAIL"), dict.Encode("RAIL"));
  EXPECT_EQ(dict.Decode(dict.Encode("RAIL")), "RAIL");
}

TEST(DictionaryTest, RangeEndpointsForAbsentStrings) {
  Dictionary dict = Dictionary::Build({"b", "d", "f"});
  // Range ["a", "e"] should cover codes of "b" and "d".
  EXPECT_EQ(dict.EncodeLowerBound("a"), 0);
  EXPECT_EQ(dict.EncodeUpperBound("e"), 1);
  EXPECT_EQ(dict.EncodeUpperBound("a"), -1);   // Nothing <= "a".
  EXPECT_EQ(dict.EncodeLowerBound("z"), 3);    // Nothing >= "z".
  EXPECT_GT(dict.SizeBytes(), 0);
}

}  // namespace
}  // namespace tsunami
