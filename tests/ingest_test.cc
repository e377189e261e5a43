// Concurrent-ingest suite: DeltaChunk encoded-vs-raw and raw-vs-oracle bit
// identity, IngestStore correctness against the full-scan reference across
// inserts / folds / reorganizations / repairs, snapshot isolation for pinned
// readers, reclamation (a superseded index is freed once its last reader
// drops it, checked on the index itself through a weak_ptr), plan-cache
// staleness, and a writers-vs-readers-vs-compaction stress run
// whose invariants (no torn reads, monotone visibility, quiesced-replay bit
// identity) are what the TSan CI pass checks for races. Fault-injection
// builds additionally drive the ingest.compact_throw fail-closed path and
// the ingest.swap_delay publish stall.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/ingest/delta_chunk.h"
#include "src/ingest/ingest_store.h"
#include "src/ingest/snapshot.h"
#include "src/serve/query_service.h"
#include "tests/scan_oracle.h"

namespace tsunami {
namespace {

using ingest::DeltaChunk;
using ingest::IngestOptions;
using ingest::IngestStore;

constexpr SimdTier kTiers[] = {SimdTier::kAuto, SimdTier::kNone,
                               SimdTier::kNeon, SimdTier::kAvx2,
                               SimdTier::kAvx512};

IngestOptions SmallIngestOptions() {
  IngestOptions options;
  options.index.sample_rows = 20000;
  options.index.agd.max_sample_points = 512;
  options.index.agd.max_sample_queries = 32;
  options.index.agd.max_iters = 2;
  options.index.agd.max_cells = 1 << 12;
  options.background_compaction = false;
  return options;
}

Query RangeCount(int dim, Value lo, Value hi) {
  Query q;
  q.filters.push_back(Predicate{dim, lo, hi});
  q.SetAggregates({{AggKind::kCount, 0}});
  return q;
}

void ExpectSameAnswer(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(got.agg, want.agg);
  EXPECT_EQ(got.matched, want.matched);
  EXPECT_EQ(got.extra, want.extra);
}

// ---- DeltaChunk -----------------------------------------------------------

// A sealed (block-encoded) chunk and the raw columnar path before sealing
// must both answer every query, at every tier, bit-identically to the
// oracle over the inserted rows — aggregates, match counts, and the
// scanned/cell_ranges accounting all included.
TEST(DeltaChunkTest, SealedScanBitIdenticalToRaw) {
  Rng rng(91);
  const int64_t capacity = 3 * kScanBlockRows;
  DeltaChunk chunk(/*dims=*/3, capacity, /*id=*/1);
  Dataset inserted(3, {});
  std::vector<Value> row(3);
  for (int64_t i = 0; i < capacity; ++i) {
    row[0] = rng.UniformValue(0, 100000);
    row[1] = rng.UniformValue(-5000, 5000);
    row[2] = rng.UniformValue(0, 100);
    inserted.AppendRow(row);
    ASSERT_TRUE(chunk.Append(row.data()));
  }
  ASSERT_TRUE(chunk.full());
  EXPECT_FALSE(chunk.Append(row.data()));  // Full chunks refuse appends.

  std::vector<Query> queries;
  {
    Query q = RangeCount(0, 25000, 75000);
    q.SetAggregates({{AggKind::kCount, 0},
                     {AggKind::kSum, 1},
                     {AggKind::kMin, 1},
                     {AggKind::kMax, 2},
                     {AggKind::kAvg, 1}});
    queries.push_back(q);
  }
  {
    Query q;  // Multi-filter, narrow.
    q.filters.push_back(Predicate{0, 40000, 60000});
    q.filters.push_back(Predicate{1, -1000, 1000});
    q.SetAggregates({{AggKind::kSum, 2}});
    queries.push_back(q);
  }
  {
    Query q;  // No filters: every row matches.
    q.SetAggregates({{AggKind::kCount, 0}, {AggKind::kMax, 0}});
    queries.push_back(q);
  }
  {
    Query q = RangeCount(2, 1000, 2000);  // Empty match set.
    queries.push_back(q);
  }

  const ColumnStore reference(inserted, /*encode=*/false);
  std::vector<QueryResult> want;
  for (const Query& q : queries) {
    QueryResult r = InitResult(q);
    ++r.cell_ranges;
    OracleScan(reference, 0, reference.size(), q, /*exact=*/false, &r);
    want.push_back(r);
  }
  auto expect_oracle = [&](const char* state) {
    for (SimdTier tier : kTiers) {
      for (size_t i = 0; i < queries.size(); ++i) {
        QueryResult r = InitResult(queries[i]);
        chunk.Scan(queries[i], &r, ScanOptions{tier});
        SCOPED_TRACE(std::string(state) + " " + SimdTierName(tier) +
                     " query " + std::to_string(i));
        EXPECT_EQ(r.agg, want[i].agg);
        EXPECT_EQ(r.matched, want[i].matched);
        EXPECT_EQ(r.extra, want[i].extra);
        EXPECT_EQ(r.scanned, want[i].scanned);
        EXPECT_EQ(r.cell_ranges, want[i].cell_ranges);
      }
    }
  };

  ASSERT_FALSE(chunk.sealed());
  expect_oracle("unsealed");
  chunk.Seal();
  ASSERT_TRUE(chunk.sealed());
  expect_oracle("sealed");
}

// The raw columnar scan (the kernel's per-block step over raw slices) must
// be bit-identical, at every tier, to the row-at-a-time oracle over an
// unencoded ColumnStore of the rows in insert order — every QueryResult
// field, every aggregate kind, multi-aggregate lists included. The chunk is
// unsealed and partly full, so the scan crosses several blocks and ends in
// a partial one.
TEST(DeltaChunkTest, RawScanBitIdenticalToRowMajorLoop) {
  Rng rng(408);
  DeltaChunk chunk(/*dims=*/3, /*capacity=*/4 * kScanBlockRows, /*id=*/1);
  Dataset inserted(3, {});
  for (int i = 0; i < 2600; ++i) {
    std::vector<Value> row = {rng.UniformValue(-1000000, 1000000),
                              rng.UniformValue(-1000000, 1000000),
                              rng.UniformValue(-1000000, 1000000)};
    if (i % 97 == 0) row[1] = kValueMax - i;
    if (i % 89 == 0) row[2] = kValueMin + i;
    inserted.AppendRow(row);
    ASSERT_TRUE(chunk.Append(row.data()));
  }
  ASSERT_FALSE(chunk.full());
  const ColumnStore reference(inserted, /*encode=*/false);
  const AggKind kAggs[] = {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                           AggKind::kMax, AggKind::kAvg};
  for (int trial = 0; trial < 120; ++trial) {
    Query q;
    q.SetAggregates({{kAggs[trial % 5], trial % 3}});
    if (trial % 4 == 0) {
      q.SetAggregates({q.agg_spec(0),
                       {AggKind::kSum, (trial + 1) % 3},
                       {AggKind::kMax, (trial + 2) % 3}});
    }
    const int num_filters = trial % 3;  // 0, 1, or 2.
    for (int f = 0; f < num_filters; ++f) {
      Value lo = rng.UniformValue(-1200000, 1200000);
      q.filters.push_back(
          Predicate{static_cast<int>(rng.NextBelow(3)), lo,
                    lo + rng.UniformValue(0, 800000)});
    }
    QueryResult want = InitResult(q);
    ++want.cell_ranges;
    OracleScan(reference, 0, reference.size(), q, /*exact=*/false, &want);
    for (SimdTier tier : kTiers) {
      QueryResult got = InitResult(q);
      chunk.Scan(q, &got, ScanOptions{tier});
      SCOPED_TRACE(SimdTierName(tier));
      EXPECT_EQ(got.agg, want.agg) << "trial " << trial;
      EXPECT_EQ(got.scanned, want.scanned) << "trial " << trial;
      EXPECT_EQ(got.matched, want.matched) << "trial " << trial;
      EXPECT_EQ(got.cell_ranges, want.cell_ranges) << "trial " << trial;
      EXPECT_EQ(got.extra, want.extra) << "trial " << trial;
      EXPECT_EQ(got.degraded, want.degraded) << "trial " << trial;
      EXPECT_EQ(got.quarantined_blocks, want.quarantined_blocks)
          << "trial " << trial;
    }
  }
}

TEST(DeltaChunkTest, CommittedCountGatesVisibility) {
  DeltaChunk chunk(/*dims=*/2, /*capacity=*/64, /*id=*/1);
  Query all;
  all.SetAggregates({{AggKind::kCount, 0}, {AggKind::kSum, 1}});
  QueryResult empty = InitResult(all);
  chunk.Scan(all, &empty, ScanOptions{});
  EXPECT_EQ(empty.matched, 0);

  const Value row[2] = {7, 100};
  ASSERT_TRUE(chunk.Append(row));
  QueryResult one = InitResult(all);
  chunk.Scan(all, &one, ScanOptions{});
  EXPECT_EQ(one.matched, 1);
  EXPECT_EQ(one.agg, 1);
  EXPECT_EQ(one.extra[0], 100);
  EXPECT_EQ(chunk.Get(0, 0), 7);
}

// ---- IngestStore correctness ---------------------------------------------

struct IngestFixture {
  Dataset data{2, {}};
  Workload workload;
  Rng rng{17};

  explicit IngestFixture(int64_t base_rows) {
    for (int64_t i = 0; i < base_rows; ++i) {
      Value x = rng.UniformValue(0, 100000);
      data.AppendRow({x, rng.UniformValue(0, 1000)});
    }
    for (int i = 0; i < 12; ++i) {
      Query q;
      Value lo = rng.UniformValue(0, 90000);
      q.filters.push_back(Predicate{0, lo, lo + 8000});
      workload.push_back(q);
    }
  }

  std::vector<Value> RandomRow() {
    return {rng.UniformValue(0, 100000), rng.UniformValue(0, 1000)};
  }

  std::vector<Query> CheckQueries() {
    std::vector<Query> queries;
    for (int i = 0; i < 16; ++i) {
      Query q;
      Value lo = rng.UniformValue(0, 80000);
      q.filters.push_back(Predicate{0, lo, lo + 15000});
      q.SetAggregates({{AggKind::kCount, 0}, {AggKind::kSum, 1}});
      queries.push_back(q);
    }
    Query all = RangeCount(0, 0, 200000);
    queries.push_back(all);
    return queries;
  }
};

void CheckAgainstReference(const IngestStore& store, const Dataset& expect,
                           const std::vector<Query>& queries) {
  FullScanIndex reference(expect);
  for (const Query& q : queries) {
    const QueryResult want = reference.Execute(q);
    const QueryResult got = store.Execute(q);
    ExpectSameAnswer(got, want);
    EXPECT_FALSE(got.degraded);
  }
}

TEST(IngestStoreTest, InsertsVisibleImmediatelyAndMatchReference) {
  IngestFixture fx(4000);
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 512;  // Force several rolls.
  IngestStore store(fx.data, fx.workload, options);
  EXPECT_EQ(store.version(), 1u);

  Dataset expect = fx.data;
  for (int i = 0; i < 2000; ++i) {
    std::vector<Value> row = fx.RandomRow();
    store.Insert(row);
    expect.AppendRow(row);
  }
  const IngestStore::Stats stats = store.stats();
  EXPECT_EQ(stats.rows_ingested, 2000);
  EXPECT_GE(stats.chunk_rolls, 1);
  EXPECT_EQ(stats.store_rows + stats.delta_rows,
            static_cast<int64_t>(expect.size()));
  CheckAgainstReference(store, expect, fx.CheckQueries());
}

TEST(IngestStoreTest, CompactionFoldsDeltaAndPreservesAnswers) {
  IngestFixture fx(4000);
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 512;
  IngestStore store(fx.data, fx.workload, options);

  Dataset expect = fx.data;
  std::vector<std::vector<Value>> batch;
  for (int i = 0; i < 1500; ++i) {
    batch.push_back(fx.RandomRow());
    expect.AppendRow(batch.back());
  }
  EXPECT_EQ(store.InsertBatch(batch), 1500);

  // Quiesced replay: record the answers, fold everything, replay — the
  // answers must be bit-identical across the version swap.
  const std::vector<Query> queries = fx.CheckQueries();
  std::vector<QueryResult> before;
  for (const Query& q : queries) before.push_back(store.Execute(q));

  const uint64_t v0 = store.version();
  store.ForceRoll();
  const uint64_t folded = store.CompactNow();
  EXPECT_GT(folded, v0);
  const IngestStore::Stats stats = store.stats();
  EXPECT_EQ(stats.delta_rows, 0);
  EXPECT_EQ(stats.store_rows, static_cast<int64_t>(expect.size()));
  EXPECT_GE(stats.compactions, 1);

  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameAnswer(store.Execute(queries[i]), before[i]);
  }
  CheckAgainstReference(store, expect, queries);

  // Nothing retired and no reorg requested: CompactNow is a no-op.
  EXPECT_EQ(store.CompactNow(), store.version());
}

TEST(IngestStoreTest, PinnedSnapshotIsUntouchedByFold) {
  IngestFixture fx(3000);
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 256;
  IngestStore store(fx.data, fx.workload, options);

  auto pinned = store.CurrentSnapshot();
  const uint64_t pinned_version = pinned->version();
  const int64_t pinned_store_rows = pinned->index().store().size();
  const std::weak_ptr<const TsunamiIndex> pinned_index = pinned->index_ptr();

  for (int i = 0; i < 1000; ++i) store.Insert(fx.RandomRow());
  store.ForceRoll();
  ASSERT_GT(store.CompactNow(), pinned_version);

  // The fold built and published a new version; the pinned snapshot's
  // sorted index is the old one, byte for byte.
  EXPECT_EQ(pinned->version(), pinned_version);
  EXPECT_EQ(pinned->index().store().size(), pinned_store_rows);
  EXPECT_GT(store.CurrentSnapshot()->index().store().size(),
            pinned_store_rows);

  // The superseded index stays alive while the pin lives, and is freed the
  // moment it drops.
  EXPECT_FALSE(pinned_index.expired());
  pinned.reset();
  EXPECT_TRUE(pinned_index.expired());
}

// Each superseded index lives exactly as long as the plans that read it. A
// plan held across several folds keeps its own snapshot alive, and nothing
// published after it: the middle index is freed as soon as its only plan
// drops, while the older plan still executes against its version.
TEST(IngestStoreTest, SupersededSnapshotIsFreedByItsLastReader) {
  IngestFixture fx(3000);
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 256;
  IngestStore store(fx.data, fx.workload, options);
  const Query q = RangeCount(0, 10000, 60000);
  ExecContext ctx;

  // Fills the open chunk and folds it into a new sorted index. Returns the
  // store's answer just before the fold, over every row inserted so far.
  auto fill_then_fold = [&] {
    for (int64_t i = 0; i < options.chunk_capacity; ++i) {
      store.Insert(fx.RandomRow());
    }
    const QueryResult before_fold = store.Execute(q);
    const uint64_t v = store.version();
    store.ForceRoll();
    EXPECT_GT(store.CompactNow(), v);
    return before_fold;
  };

  const std::weak_ptr<const TsunamiIndex> first =
      store.CurrentSnapshot()->index_ptr();
  const QueryPlan a = store.Prepare(q);
  // A's snapshot holds the index and the chunk the first fold consumes, so
  // it answers over exactly the rows that fold saw.
  const QueryResult a_want = fill_then_fold();

  const std::weak_ptr<const TsunamiIndex> middle =
      store.CurrentSnapshot()->index_ptr();
  auto b = std::make_unique<QueryPlan>(store.Prepare(q));
  fill_then_fold();
  EXPECT_FALSE(middle.expired());
  b.reset();

  EXPECT_TRUE(middle.expired());
  EXPECT_FALSE(first.expired());
  ExpectSameAnswer(store.ExecutePlan(a, ctx), a_want);
}

TEST(IngestStoreTest, ReorganizeRetargetsGridWithoutChangingAnswers) {
  IngestFixture fx(4000);
  IngestStore store(fx.data, fx.workload, SmallIngestOptions());

  Dataset expect = fx.data;
  for (int i = 0; i < 600; ++i) {
    std::vector<Value> row = fx.RandomRow();
    store.Insert(row);
    expect.AppendRow(row);
  }

  // The workload shifts: dim-1-heavy queries. Reorganization is synchronous
  // here (no background compactor) and must not change any answer.
  Workload shifted;
  for (int i = 0; i < 12; ++i) {
    Query q;
    Value lo = fx.rng.UniformValue(0, 800);
    q.filters.push_back(Predicate{1, lo, lo + 100});
    shifted.push_back(q);
  }
  const uint64_t v0 = store.version();
  store.ForceRoll();  // Retire the tail so the reorg folds every row.
  store.RequestReorganize(shifted);
  EXPECT_GT(store.version(), v0);
  const IngestStore::Stats stats = store.stats();
  EXPECT_GE(stats.reorgs, 1);
  EXPECT_EQ(stats.delta_rows, 0);  // Reorg folds the retired delta too.
  CheckAgainstReference(store, expect, fx.CheckQueries());
}

TEST(IngestStoreTest, BackgroundTickSealsRetiredChunks) {
  IngestFixture fx(2000);
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 2 * kScanBlockRows;
  options.encode_min_blocks = 2;
  options.compact_min_chunks = 1000;  // Keep the fold out of this test.
  IngestStore store(fx.data, fx.workload, options);

  for (int64_t i = 0; i < 2 * options.chunk_capacity + 16; ++i) {
    store.Insert(fx.RandomRow());
  }
  // Sealing is a pure representation change: compare the store's answers
  // before and after, no external reference needed.
  const std::vector<Query> queries = fx.CheckQueries();
  std::vector<QueryResult> before;
  for (const Query& q : queries) before.push_back(store.Execute(q));

  store.BackgroundTick();
  EXPECT_GE(store.stats().chunks_sealed, 2);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameAnswer(store.Execute(queries[i]), before[i]);
  }
}

// Satellite: repair flows through the snapshot mechanism — the healed index
// is published as a new version while a reader pinned on the quarantined
// version keeps seeing its (degraded but consistent) snapshot.
TEST(IngestStoreTest, RepairPublishesHealedVersionOldPinStaysDegraded) {
  // Base table entirely in dim0 <= 10000; inserted rows far above, so after
  // the fold the clustered store's tail blocks are wholly insert-origin —
  // exactly the blocks RepairQuarantinedFromDelta can re-materialize.
  Rng rng(53);
  Dataset data(2, {});
  for (int i = 0; i < 6000; ++i) {
    data.AppendRow({rng.UniformValue(0, 10000), rng.UniformValue(0, 500)});
  }
  Workload workload;
  for (int i = 0; i < 12; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 9000);
    q.filters.push_back(Predicate{0, lo, lo + 800});
    workload.push_back(q);
  }
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 512;
  IngestStore store(data, workload, options);
  EXPECT_EQ(store.RepairQuarantined(), 0);  // Nothing to heal yet.

  std::vector<std::vector<Value>> inserts;
  for (int i = 0; i < 3000; ++i) {
    inserts.push_back(
        {rng.UniformValue(100000, 110000), rng.UniformValue(0, 500)});
  }
  store.InsertBatch(inserts);
  store.ForceRoll();
  ASSERT_GT(store.CompactNow(), 1u);
  ASSERT_EQ(store.stats().delta_rows, 0);

  Query over_new;
  over_new.filters.push_back(Predicate{0, 100000, 110000});
  over_new.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
  const QueryResult want = store.Execute(over_new);
  EXPECT_EQ(want.matched, 3000);
  EXPECT_FALSE(want.degraded);

  // Quarantine the wholly-insert-origin blocks on the current version, then
  // hold it: this reader is stuck on the corrupt snapshot.
  const ColumnStore& cur_store = store.store();
  std::vector<int64_t> delta_blocks;
  for (int64_t b = 0; b * kScanBlockRows < cur_store.size(); ++b) {
    const int64_t lo = b * kScanBlockRows;
    const int64_t hi = std::min(cur_store.size(), lo + kScanBlockRows);
    bool all_delta = true;
    for (int64_t r = lo; r < hi && all_delta; ++r) {
      all_delta = cur_store.Get(r, 0) >= 100000;
    }
    if (all_delta) delta_blocks.push_back(b);
  }
  ASSERT_GE(delta_blocks.size(), 1u);
  for (int64_t b : delta_blocks) {
    cur_store.encoded(0).Quarantine(b);
    cur_store.encoded(1).Quarantine(b);
  }
  const int64_t quarantined = static_cast<int64_t>(delta_blocks.size()) * 2;
  auto pinned = store.CurrentSnapshot();
  const QueryResult degraded = pinned->Execute(over_new);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_LT(degraded.matched, want.matched);

  // Repair publishes a *new* version with every block healed...
  const uint64_t before_repair = store.version();
  EXPECT_EQ(store.RepairQuarantined(), quarantined);
  EXPECT_GT(store.version(), before_repair);
  EXPECT_GE(store.stats().repairs_published, 1);
  const QueryResult healed = store.Execute(over_new);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.agg, want.agg);
  EXPECT_EQ(healed.matched, want.matched);

  // ...while the pinned reader still sees its quarantined version — never a
  // half-repaired block, and byte-identical to its pre-repair answer.
  const QueryResult still_degraded = pinned->Execute(over_new);
  EXPECT_TRUE(still_degraded.degraded);
  EXPECT_EQ(still_degraded.matched, degraded.matched);
  EXPECT_EQ(still_degraded.agg, degraded.agg);
}

// ---- QueryService integration --------------------------------------------

TEST(IngestServiceTest, PlanCacheDropsPlansForSupersededVersions) {
  IngestFixture fx(3000);
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 256;
  IngestStore store(fx.data, fx.workload, options);

  ServiceOptions service_options;
  service_options.threads = 0;  // Inline execution: deterministic.
  QueryService service(&store, service_options);

  Query q = RangeCount(0, 10000, 60000);
  const QueryResult first = service.Run(q);
  const QueryResult repeat = service.Run(q);  // Cache hit, same version.
  ExpectSameAnswer(repeat, first);
  EXPECT_GE(service.plan_cache().stats().hits, 1);

  // Publish a new version (fold), then replay: the cached plan pins the old
  // snapshot and must be dropped as stale, not silently replayed.
  Dataset expect = fx.data;
  for (int i = 0; i < 800; ++i) {
    std::vector<Value> row = fx.RandomRow();
    store.Insert(row);
    expect.AppendRow(row);
  }
  store.ForceRoll();
  ASSERT_GT(store.CompactNow(), 1u);

  const QueryResult after = service.Run(q);
  EXPECT_GE(service.plan_cache().stats().stale, 1);
  FullScanIndex reference(expect);
  ExpectSameAnswer(after, reference.Execute(q));
}

TEST(IngestServiceTest, PublishListenerInvalidatesEagerly) {
  IngestFixture fx(3000);
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 256;
  IngestStore store(fx.data, fx.workload, options);

  ServiceOptions service_options;
  service_options.threads = 0;
  QueryService service(&store, service_options);
  store.AddPublishListener([&service, &store](uint64_t) {
    service.plan_cache().InvalidateIndex(store);
  });

  (void)service.Run(RangeCount(0, 0, 50000));
  (void)service.Run(RangeCount(0, 50000, 100000));
  EXPECT_EQ(service.plan_cache().stats().size, 2);

  // Any publish — here a chunk roll — drops the superseded plans without
  // waiting for them to be looked up again.
  for (int i = 0; i < 300; ++i) store.Insert(fx.RandomRow());
  store.ForceRoll();
  EXPECT_EQ(service.plan_cache().stats().size, 0);
  EXPECT_GE(service.plan_cache().stats().stale, 2);

  // A fold publishes a new sorted index. Once the listener has dropped the
  // plan cached on the old one, nothing holds the old index any more.
  const std::weak_ptr<const TsunamiIndex> before_fold =
      store.CurrentSnapshot()->index_ptr();
  (void)service.Run(RangeCount(0, 0, 50000));
  EXPECT_EQ(service.plan_cache().stats().size, 1);
  const uint64_t v = store.version();
  ASSERT_GT(store.CompactNow(), v);
  EXPECT_EQ(service.plan_cache().stats().size, 0);
  EXPECT_TRUE(before_fold.expired());
}

// ---- Concurrency stress ---------------------------------------------------

// Writers, readers, and forced reorganization race freely; under TSan this
// is the data-race probe, and in any build it checks the visibility
// invariants: a reader never sees a torn count (matched must lie between
// the rows committed before and after its scan) and the quiesced store
// replays the reference answers exactly.
TEST(IngestConcurrencyTest, WritersReadersAndReorgRaceWithoutTornReads) {
  Rng rng(29);
  Dataset data(2, {});
  const int64_t kBaseRows = 2000;
  for (int64_t i = 0; i < kBaseRows; ++i) {
    data.AppendRow({rng.UniformValue(0, 100000), rng.UniformValue(0, 1000)});
  }
  Workload workload;
  for (int i = 0; i < 8; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 90000);
    q.filters.push_back(Predicate{0, lo, lo + 8000});
    workload.push_back(q);
  }
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 256;
  options.compact_min_chunks = 2;
  options.background_compaction = true;
  options.compact_poll_ms = 1;
  IngestStore store(data, workload, options);

  constexpr int kWriters = 2;
  constexpr int kRowsPerWriter = 2000;
  constexpr int kReaders = 2;
  constexpr int kReadsPerReader = 60;

  // Pre-generate every writer's rows so the quiesced reference is exact.
  std::vector<std::vector<std::vector<Value>>> writer_rows(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    Rng wrng(100 + w);
    for (int i = 0; i < kRowsPerWriter; ++i) {
      writer_rows[w].push_back(
          {wrng.UniformValue(0, 100000), wrng.UniformValue(0, 1000)});
    }
  }

  const Query count_all = RangeCount(0, 0, 200000);
  std::atomic<bool> torn{false};
  std::atomic<bool> stop_chaos{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, &writer_rows, w] {
      for (const auto& row : writer_rows[w]) store.Insert(row);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&store, &count_all, &torn, kBaseRows] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        // stats() reads rows_ingested under the writer lock, which writers
        // hold across commit and count: it is exactly the rows visible at
        // that instant, so the scan must land between the two readings.
        const int64_t low = kBaseRows + store.stats().rows_ingested;
        const QueryResult got = store.Execute(count_all);
        const int64_t high = kBaseRows + store.stats().rows_ingested;
        if (got.matched < low || got.matched > high || got.degraded) {
          torn.store(true);
        }
      }
    });
  }
  threads.emplace_back([&store, &workload, &stop_chaos] {
    // Chaos: force rolls and full reorganizations while traffic flows.
    int spin = 0;
    while (!stop_chaos.load()) {
      store.ForceRoll();
      if (++spin % 3 == 0) store.RequestReorganize(workload);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (int w = 0; w < kWriters + kReaders; ++w) threads[w].join();
  stop_chaos.store(true);
  threads.back().join();
  EXPECT_FALSE(torn.load());

  // Quiesce: fold everything, then replay against the exact reference.
  store.ForceRoll();
  store.CompactNow();
  const IngestStore::Stats stats = store.stats();
  EXPECT_EQ(stats.rows_ingested, kWriters * kRowsPerWriter);
  EXPECT_EQ(stats.delta_rows, 0);
  EXPECT_EQ(stats.store_rows, kBaseRows + kWriters * kRowsPerWriter);

  Dataset expect = data;
  for (const auto& rows : writer_rows) {
    for (const auto& row : rows) expect.AppendRow(row);
  }
  FullScanIndex reference(expect);
  ExpectSameAnswer(store.Execute(count_all), reference.Execute(count_all));
  Rng qrng(7);
  for (int i = 0; i < 12; ++i) {
    Query q;
    Value lo = qrng.UniformValue(0, 80000);
    q.filters.push_back(Predicate{0, lo, lo + 15000});
    q.SetAggregates({{AggKind::kCount, 0}, {AggKind::kSum, 1}});
    ExpectSameAnswer(store.Execute(q), reference.Execute(q));
  }
}

// ---- Fault injection ------------------------------------------------------

#if defined(TSUNAMI_FAULT_INJECTION)

class IngestFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

TEST_F(IngestFaultTest, CompactThrowFailsClosedAndRetrySucceeds) {
  IngestFixture fx(3000);
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 256;
  IngestStore store(fx.data, fx.workload, options);

  Dataset expect = fx.data;
  for (int i = 0; i < 600; ++i) {
    std::vector<Value> row = fx.RandomRow();
    store.Insert(row);
    expect.AppendRow(row);
  }
  store.ForceRoll();

  fault::FaultSpec spec;
  spec.max_fires = 1;
  fault::Arm("ingest.compact_throw", spec);
  const uint64_t v0 = store.version();
  EXPECT_EQ(store.CompactNow(), v0);  // Failed closed: version unchanged.
  EXPECT_EQ(fault::FireCount("ingest.compact_throw"), 1);
  const IngestStore::Stats failed = store.stats();
  EXPECT_GE(failed.failed_compactions, 1);
  EXPECT_GT(failed.delta_rows, 0);  // Chunks stayed queued.
  CheckAgainstReference(store, expect, fx.CheckQueries());

  // The spec is exhausted: the retry folds normally and answers hold.
  EXPECT_GT(store.CompactNow(), v0);
  EXPECT_EQ(store.stats().delta_rows, 0);
  CheckAgainstReference(store, expect, fx.CheckQueries());
}

TEST_F(IngestFaultTest, SwapDelayWidensPublishWindowWithoutCorruption) {
  IngestFixture fx(2000);
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 128;
  IngestStore store(fx.data, fx.workload, options);

  fault::FaultSpec spec;
  spec.param = 500;  // Stall 500us inside every publish critical section.
  fault::Arm("ingest.swap_delay", spec);

  Dataset expect = fx.data;
  std::thread reader([&store] {
    const Query q = RangeCount(0, 0, 200000);
    for (int i = 0; i < 40; ++i) (void)store.Execute(q);
  });
  for (int i = 0; i < 500; ++i) {
    std::vector<Value> row = fx.RandomRow();
    store.Insert(row);
    expect.AppendRow(row);
  }
  store.ForceRoll();
  store.CompactNow();
  reader.join();
  EXPECT_GT(fault::FireCount("ingest.swap_delay"), 0);
  CheckAgainstReference(store, expect, fx.CheckQueries());
}

#endif  // TSUNAMI_FAULT_INJECTION

}  // namespace
}  // namespace tsunami
