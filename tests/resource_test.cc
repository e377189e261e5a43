// Resource-governance suite (PR 10): ResourceGovernor accounting and
// budgets, ingest backpressure determinism under concurrent writers,
// byte-bounded plan caching, WAL segment-size rotation with forward-scan
// recovery, group-commit latency shaping, and the scrubber's sweep cursor
// (a chunk roll keeps its place, a fold restarts it). Fault-injection builds
// additionally sweep `fs.enospc` across every filesystem call site (WAL
// write, WAL fsync, checkpoint rename, manifest write) — reads must keep
// serving, acks must fail closed, and the store must re-arm and recover
// bit-identically once space frees — plus `gov.mem_pressure` (injected
// budget rejection) and `scrub.corrupt_block` (the scrubber finds a rotted
// block before any query touches it and repairs it through quarantine).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/common/resource_governor.h"
#include "src/durability/durable_store.h"
#include "src/durability/wal.h"
#include "src/ingest/ingest_store.h"
#include "src/ingest/scrubber.h"
#include "src/serve/plan_cache.h"
#include "src/storage/scan_kernel.h"

namespace tsunami {
namespace {

using durability::DurabilityOptions;
using durability::DurableIngestStore;
using durability::InsertResult;
using ingest::IngestOptions;
using ingest::IngestStore;
using ingest::InsertAdmit;
using ingest::Scrubber;
using ingest::ScrubberOptions;

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

/// Fresh per-test scratch directory under the system temp root.
std::string TestDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("tsunami_resource_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Small 2-dim base table + workload, same shape as the wal suite's.
struct Fixture {
  Dataset data{2, {}};
  Workload workload;
  Rng rng{29};

  explicit Fixture(int64_t base_rows = 4000) {
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

  std::vector<std::vector<Value>> RandomBatch(int n) {
    std::vector<std::vector<Value>> rows;
    rows.reserve(n);
    for (int i = 0; i < n; ++i) {
      rows.push_back({rng.UniformValue(0, 100000), rng.UniformValue(0, 1000)});
    }
    return rows;
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
    queries.push_back(RangeCount(0, 0, 200000));
    return queries;
  }
};

void ExpectMatchesReference(const IngestStore& store, const Dataset& expect,
                            const std::vector<Query>& queries) {
  FullScanIndex reference(expect);
  for (const Query& q : queries) {
    const QueryResult got = store.Execute(q);
    const QueryResult want = reference.Execute(q);
    EXPECT_EQ(got.agg, want.agg);
    EXPECT_EQ(got.matched, want.matched);
    EXPECT_EQ(got.extra, want.extra);
  }
}

// ---- ResourceGovernor unit coverage ---------------------------------------

TEST(ResourceGovernorTest, ChargeReleaseBudgetAndPeak) {
  ResourceGovernor gov;
  gov.SetBudget(ResourcePool::kDeltaBacklog, 100);
  EXPECT_EQ(gov.budget(ResourcePool::kDeltaBacklog), 100);
  EXPECT_EQ(gov.used(ResourcePool::kDeltaBacklog), 0);

  EXPECT_TRUE(gov.TryCharge(ResourcePool::kDeltaBacklog, 60));
  EXPECT_EQ(gov.used(ResourcePool::kDeltaBacklog), 60);
  EXPECT_TRUE(gov.TryCharge(ResourcePool::kDeltaBacklog, 40));  // Exactly full.
  EXPECT_EQ(gov.used(ResourcePool::kDeltaBacklog), 100);

  // Over budget: refused and backed out — usage unchanged.
  EXPECT_FALSE(gov.TryCharge(ResourcePool::kDeltaBacklog, 1));
  EXPECT_EQ(gov.used(ResourcePool::kDeltaBacklog), 100);

  gov.Release(ResourcePool::kDeltaBacklog, 30);
  EXPECT_EQ(gov.used(ResourcePool::kDeltaBacklog), 70);
  EXPECT_TRUE(gov.TryCharge(ResourcePool::kDeltaBacklog, 30));

  // Releasing more than charged clamps at zero, never goes negative.
  gov.Release(ResourcePool::kDeltaBacklog, 1 << 20);
  EXPECT_EQ(gov.used(ResourcePool::kDeltaBacklog), 0);

  const ResourceGovernor::Stats stats = gov.stats();
  const auto& pool =
      stats.pools[static_cast<int>(ResourcePool::kDeltaBacklog)];
  EXPECT_EQ(pool.peak, 100);
  EXPECT_EQ(pool.budget, 100);
  EXPECT_EQ(pool.rejections, 1);
  EXPECT_GE(pool.charges, 3);
}

TEST(ResourceGovernorTest, ZeroBudgetIsUnlimitedAndWouldExceedPeeks) {
  ResourceGovernor gov;
  // Unlimited pool: any charge succeeds, WouldExceed never trips.
  EXPECT_TRUE(gov.TryCharge(ResourcePool::kWalDisk, int64_t{1} << 40));
  EXPECT_FALSE(gov.WouldExceed(ResourcePool::kWalDisk, int64_t{1} << 40));

  gov.SetBudget(ResourcePool::kWalDisk, (int64_t{1} << 40) + 10);
  EXPECT_FALSE(gov.WouldExceed(ResourcePool::kWalDisk, 10));
  EXPECT_TRUE(gov.WouldExceed(ResourcePool::kWalDisk, 11));
  // WouldExceed is a peek: it charges nothing.
  EXPECT_EQ(gov.used(ResourcePool::kWalDisk), int64_t{1} << 40);

  // Non-positive charges always succeed.
  EXPECT_TRUE(gov.TryCharge(ResourcePool::kWalDisk, 0));
  EXPECT_TRUE(gov.TryCharge(ResourcePool::kWalDisk, -5));
}

TEST(ResourceGovernorTest, SetUsedGaugeAndRaiiCharge) {
  ResourceGovernor gov;
  gov.SetUsed(ResourcePool::kNetBuffers, 12345);
  EXPECT_EQ(gov.used(ResourcePool::kNetBuffers), 12345);
  gov.SetUsed(ResourcePool::kNetBuffers, 7);
  EXPECT_EQ(gov.used(ResourcePool::kNetBuffers), 7);

  {
    ResourceCharge charge(&gov, ResourcePool::kSealedChunks, 500);
    EXPECT_EQ(gov.used(ResourcePool::kSealedChunks), 500);
    ResourceCharge moved = std::move(charge);
    EXPECT_EQ(moved.bytes(), 500);
    EXPECT_EQ(gov.used(ResourcePool::kSealedChunks), 500);
  }
  EXPECT_EQ(gov.used(ResourcePool::kSealedChunks), 0);
}

TEST(ResourceGovernorTest, PoolAndInsertResultNames) {
  EXPECT_STREQ(ToString(ResourcePool::kDeltaBacklog), "delta_backlog");
  EXPECT_STREQ(ToString(ResourcePool::kSealedChunks), "sealed_chunks");
  EXPECT_STREQ(ToString(ResourcePool::kWalDisk), "wal_disk");
  EXPECT_STREQ(ToString(ResourcePool::kNetBuffers), "net_buffers");
  EXPECT_STREQ(ToString(ResourcePool::kPlanCache), "plan_cache");
  EXPECT_STREQ(durability::ToString(InsertResult::kOk), "ok");
  EXPECT_STREQ(durability::ToString(InsertResult::kResourceExhausted),
               "resource-exhausted");
  EXPECT_STREQ(durability::ToString(InsertResult::kNotDurable),
               "not-durable");
  EXPECT_STREQ(durability::ToString(InsertResult::kRejected), "rejected");
}

// ---- Ingest backpressure --------------------------------------------------

// Tentpole: bounded backlog under concurrent writers. Four threads hammer
// TryInsert against a tiny delta budget; admitted bytes never exceed the
// budget (beyond the bounded optimistic-charge overshoot a concurrent
// sampler can observe), refusals are typed and retryable, and every row
// eventually lands — with nothing lost or duplicated — once folds drain the
// backlog.
TEST(IngestBackpressureTest, BoundedBacklogUnderConcurrentWriters) {
  Fixture fx(2000);
  ResourceGovernor gov;
  const int64_t row_bytes = 2 * static_cast<int64_t>(sizeof(Value));
  const int64_t budget = 64 * row_bytes;
  gov.SetBudget(ResourcePool::kDeltaBacklog, budget);

  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 16;
  options.governor = &gov;
  IngestStore store(fx.data, fx.workload, options);

  constexpr int kThreads = 4;
  constexpr int kRowsPerThread = 200;
  Dataset expect = fx.data;  // Reference: base + every admitted row.
  std::vector<std::vector<std::vector<Value>>> rows(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRowsPerThread; ++i) {
      rows[t].push_back(fx.RandomBatch(1)[0]);
      expect.AppendRow(rows[t].back());
    }
  }

  std::atomic<int64_t> rejections{0};
  std::atomic<int64_t> overshoot{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (const auto& row : rows[t]) {
        while (store.TryInsert(row) == InsertAdmit::kResourceExhausted) {
          rejections.fetch_add(1, std::memory_order_relaxed);
          // A sampler may catch other writers' optimistic charges before
          // they back out: the observable bound is budget plus one
          // in-flight row per other thread.
          if (gov.used(ResourcePool::kDeltaBacklog) >
              budget + (kThreads - 1) * row_bytes) {
            overshoot.fetch_add(1, std::memory_order_relaxed);
          }
          // Drain: fold the backlog below budget, then retry.
          store.ForceRoll();
          store.CompactNow();
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();

  // Quiesced: no in-flight charges, so the committed gauge obeys the
  // budget exactly.
  EXPECT_LE(gov.used(ResourcePool::kDeltaBacklog), budget);
  EXPECT_EQ(overshoot.load(), 0);
  // The budget (64 rows) is far below the total (800 rows): backpressure
  // must actually have engaged.
  EXPECT_GT(rejections.load(), 0);
  EXPECT_GT(gov.stats()
                .pools[static_cast<int>(ResourcePool::kDeltaBacklog)]
                .rejections,
            0);

  // Every admitted row is present exactly once.
  store.ForceRoll();
  store.CompactNow();
  EXPECT_EQ(gov.used(ResourcePool::kDeltaBacklog), 0);
  ExpectMatchesReference(store, expect, fx.CheckQueries());
}

// ---- Plan cache byte bounding ---------------------------------------------

TEST(PlanCacheBytesTest, EvictsByBytesAndMirrorsGovernor) {
  Fixture fx(3000);
  FullScanIndex index(fx.data);

  // Size one entry empirically, then budget for about three.
  Query probe = RangeCount(0, 0, 1000);
  PlanCache sizer(/*capacity=*/8);
  ASSERT_NE(sizer.GetOrPrepare(index, probe), nullptr);
  const int64_t one_entry = sizer.stats().bytes;
  ASSERT_GT(one_entry, 0);

  ResourceGovernor gov;
  const int64_t max_bytes = 3 * one_entry + one_entry / 2;
  PlanCache cache(/*capacity=*/64, max_bytes, &gov);
  for (int i = 0; i < 10; ++i) {
    Query q = RangeCount(0, i * 500, i * 500 + 400);
    ASSERT_NE(cache.GetOrPrepare(index, q), nullptr);
    // The byte bound holds after every insert, and the governor's pool
    // gauge tracks the cache's own accounting exactly.
    const PlanCache::Stats stats = cache.stats();
    EXPECT_LE(stats.bytes, max_bytes) << "insert " << i;
    EXPECT_EQ(gov.used(ResourcePool::kPlanCache), stats.bytes);
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);       // Bytes forced eviction...
  EXPECT_LT(stats.size, 10);           // ...well under the entry capacity.
  EXPECT_GE(stats.size, 1);

  // A budget below a single entry still caches exactly the MRU plan
  // (degenerate but never empty, and never over by more than that entry).
  PlanCache tiny(/*capacity=*/64, one_entry / 2, &gov);
  for (int i = 0; i < 4; ++i) {
    Query q = RangeCount(0, i * 500, i * 500 + 400);
    ASSERT_NE(tiny.GetOrPrepare(index, q), nullptr);
    EXPECT_EQ(tiny.stats().size, 1);
  }

  cache.Clear();
  EXPECT_EQ(cache.stats().bytes, 0);
  // After both caches drop their entries the governor pool drains to the
  // tiny cache's single resident plan, then zero on its destruction.
  const int64_t resident = tiny.stats().bytes;
  EXPECT_EQ(gov.used(ResourcePool::kPlanCache), resident);
}

TEST(PlanCacheBytesTest, EstimateScalesWithPlanSize) {
  Fixture fx(3000);
  FullScanIndex index(fx.data);
  const QueryPlan narrow = index.Prepare(RangeCount(0, 0, 10));
  QueryPlan wide = narrow;
  wide.tasks.resize(wide.tasks.size() + 512);
  EXPECT_GT(PlanCache::EstimatePlanBytes(wide),
            PlanCache::EstimatePlanBytes(narrow) +
                static_cast<int64_t>(512 * sizeof(RangeTask)) - 1);
}

// ---- WAL segment-size rotation --------------------------------------------

// Durability follow-on (b): the active segment rotates once it exceeds
// max_segment_bytes — without a manifest write per rotation — and recovery
// forward-scans past the manifest's active_segment to replay them all.
TEST(SegmentRotationTest, SizeRotationThenForwardScanRecovery) {
  const std::string dir = TestDir("size_rotation");
  Fixture fx(1500);
  Dataset expect = fx.data;

  DurabilityOptions options;
  options.dir = dir;
  options.ingest = SmallIngestOptions();
  options.max_segment_bytes = 512;    // A few batches per segment.
  options.checkpoint_on_fold = false;  // No checkpoints: rotation only.
  int64_t inserted = 0;
  {
    std::unique_ptr<DurableIngestStore> store =
        DurableIngestStore::Open(fx.data, fx.workload, options);
    ASSERT_NE(store, nullptr);
    for (int i = 0; i < 40; ++i) {
      const auto batch = fx.RandomBatch(8);
      for (const auto& row : batch) expect.AppendRow(row);
      ASSERT_EQ(store->TryInsertBatch(batch), InsertResult::kOk);
      inserted += static_cast<int64_t>(batch.size());
    }
    const DurableIngestStore::Stats stats = store->stats();
    EXPECT_GT(stats.size_rotations, 2);
    EXPECT_EQ(stats.rows_logged, inserted);

    // Rotation left multiple live segments on disk...
    int segments = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().filename().string().rfind("wal-", 0) == 0) {
        ++segments;
      }
    }
    EXPECT_GE(segments, 3);
  }

  // ...and recovery replays every one of them, past the stale manifest.
  std::unique_ptr<DurableIngestStore> reopened =
      DurableIngestStore::Open(fx.data, fx.workload, options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_TRUE(reopened->recovery().recovered);
  EXPECT_EQ(reopened->recovery().replayed_rows, inserted);
  EXPECT_GT(reopened->recovery().segments_read, 2);
  ExpectMatchesReference(reopened->store(), expect, fx.CheckQueries());
}

// Governed WAL-disk budget: once segment bytes exceed the budget, inserts
// are refused pre-admission (typed, nothing applied) and admission resumes
// after a checkpoint deletes covered segments.
TEST(SegmentRotationTest, WalDiskBudgetRefusesThenCheckpointFrees) {
  const std::string dir = TestDir("wal_budget");
  Fixture fx(1500);
  Dataset expect = fx.data;

  ResourceGovernor gov;
  gov.SetBudget(ResourcePool::kWalDisk, 4096);
  DurabilityOptions options;
  options.dir = dir;
  options.ingest = SmallIngestOptions();
  options.ingest.governor = &gov;
  options.max_segment_bytes = 1024;
  std::unique_ptr<DurableIngestStore> store =
      DurableIngestStore::Open(fx.data, fx.workload, options);
  ASSERT_NE(store, nullptr);

  // Fill until the budget refuses.
  int64_t refusals = 0;
  for (int i = 0; i < 200 && refusals == 0; ++i) {
    const auto batch = fx.RandomBatch(8);
    const InsertResult r = store->TryInsertBatch(batch);
    if (r == InsertResult::kOk) {
      for (const auto& row : batch) expect.AppendRow(row);
    } else {
      ASSERT_EQ(r, InsertResult::kResourceExhausted);
      ++refusals;
    }
  }
  ASSERT_GT(refusals, 0);
  EXPECT_GT(store->stats().resource_rejections, 0);
  EXPECT_LE(gov.used(ResourcePool::kWalDisk), 4096);

  // A checkpoint covers the logged rows, deletes their segments, and
  // releases the budget: the same insert now succeeds.
  ASSERT_TRUE(store->CheckpointNow());
  const auto batch = fx.RandomBatch(8);
  ASSERT_EQ(store->TryInsertBatch(batch), InsertResult::kOk);
  for (const auto& row : batch) expect.AppendRow(row);
  ExpectMatchesReference(store->store(), expect, fx.CheckQueries());
}

// ---- Group-commit latency shaping -----------------------------------------

// Durability follow-on (d): max_commit_delay_micros holds the committer
// back so concurrent acks coalesce into fewer fsyncs. Correctness is
// unchanged — every ack still means fsync'd.
TEST(CommitDelayTest, DelayCoalescesGroupsAndStillAcks) {
  const std::string dir = TestDir("commit_delay");
  Fixture fx(1000);
  Dataset expect = fx.data;

  DurabilityOptions options;
  options.dir = dir;
  options.ingest = SmallIngestOptions();
  options.wal_commit_delay_micros = 2000;
  std::unique_ptr<DurableIngestStore> store =
      DurableIngestStore::Open(fx.data, fx.workload, options);
  ASSERT_NE(store, nullptr);

  constexpr int kThreads = 4;
  constexpr int kBatches = 25;
  std::vector<std::vector<std::vector<std::vector<Value>>>> rows(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kBatches; ++i) {
      rows[t].push_back(fx.RandomBatch(4));
      for (const auto& row : rows[t].back()) expect.AppendRow(row);
    }
  }
  std::atomic<int64_t> acked{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (const auto& batch : rows[t]) {
        if (store->TryInsertBatch(batch) == InsertResult::kOk) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  ASSERT_EQ(acked.load(), kThreads * kBatches);

  const DurableIngestStore::Stats stats = store->stats();
  // The committer waited at least once, and the shaped groups kept every
  // ack truthful.
  EXPECT_GT(stats.wal.delayed_commits, 0);
  EXPECT_EQ(stats.durable_acks, kThreads * kBatches);
  EXPECT_LE(stats.wal.group_commits, stats.wal.appends);
  ExpectMatchesReference(store->store(), expect, fx.CheckQueries());
}

// ---- Scrubber sweep cursor -------------------------------------------------

/// Encoded blocks, across every column, of the current sorted index.
int64_t SortedBlocks(const IngestStore& store) {
  const ColumnStore& cs = store.CurrentSnapshot()->index().store();
  int64_t blocks = 0;
  for (int d = 0; d < cs.dims(); ++d) blocks += cs.encoded(d).num_blocks();
  return blocks;
}

// A chunk roll publishes a new version over the same sorted index, so it
// must not restart the sweep: under steady ingest a roll lands inside every
// sweep, and a sweep that restarted at each one would never reach the last
// columns. A fold publishes a new index, and the sweep starts over on it.
TEST(ScrubberTest, ChunkRollsDoNotRestartTheSweep) {
  Fixture fx(8000);
  IngestStore store(fx.data, fx.workload, SmallIngestOptions());
  const int64_t blocks = SortedBlocks(store);
  ASSERT_GT(blocks, 2);

  ScrubberOptions sopts;
  sopts.blocks_per_slice = 2;
  Scrubber scrubber(&store, sopts);
  int64_t slices = 0;
  while (slices < blocks && scrubber.stats().sweeps == 0) {
    scrubber.ScrubSlice();
    ++slices;
    store.InsertBatch(fx.RandomBatch(1));
    store.ForceRoll();
  }
  // A roll followed every slice, and the sweep still finished within as
  // many slices as the store has blocks, scrubbing each block once.
  EXPECT_EQ(store.stats().chunk_rolls, slices);
  EXPECT_EQ(scrubber.stats().sweeps, 1);
  EXPECT_EQ(scrubber.stats().blocks_scrubbed, blocks);

  // Fold partway through the next sweep: the sweep restarts on the folded
  // index and scrubs each of its blocks exactly once.
  ASSERT_EQ(scrubber.ScrubSlice(), 2);
  store.InsertBatch(fx.RandomBatch(2 * static_cast<int>(kScanBlockRows)));
  store.ForceRoll();
  const uint64_t v = store.version();
  ASSERT_GT(store.CompactNow(), v);
  const int64_t folded_blocks = SortedBlocks(store);
  ASSERT_GT(folded_blocks, blocks);
  const int64_t before = scrubber.stats().blocks_scrubbed;
  for (int64_t i = 0; i < folded_blocks && scrubber.stats().sweeps == 1; ++i) {
    scrubber.ScrubSlice();
  }
  EXPECT_EQ(scrubber.stats().sweeps, 2);
  EXPECT_EQ(scrubber.stats().blocks_scrubbed - before, folded_blocks);
}

#if defined(TSUNAMI_FAULT_INJECTION)

// ---- Injected budget pressure ---------------------------------------------

TEST(ResourceGovernorFaultTest, MemPressureInjectsRejection) {
  fault::DisarmAll();
  ResourceGovernor gov;
  gov.SetBudget(ResourcePool::kDeltaBacklog, 1 << 20);

  fault::FaultSpec spec;
  spec.match_arg = static_cast<int64_t>(ResourcePool::kDeltaBacklog);
  fault::Arm("gov.mem_pressure", spec);
  // Far under budget, but the armed site rejects — and backs the charge
  // out, so usage stays zero.
  EXPECT_FALSE(gov.TryCharge(ResourcePool::kDeltaBacklog, 8));
  EXPECT_EQ(gov.used(ResourcePool::kDeltaBacklog), 0);
  // Other pools are unaffected (match_arg filters by pool index).
  EXPECT_TRUE(gov.TryCharge(ResourcePool::kSealedChunks, 8));
  fault::DisarmAll();
  EXPECT_TRUE(gov.TryCharge(ResourcePool::kDeltaBacklog, 8));
  EXPECT_EQ(
      gov.stats().pools[static_cast<int>(ResourcePool::kDeltaBacklog)]
          .rejections,
      1);
}

// ---- The ENOSPC sweep ------------------------------------------------------

// fs.enospc armed at the WAL write / WAL fsync call sites: the ack fails
// closed (never a lying ack), the store latches the *recoverable* disk-full
// state, reads keep serving, and the next insert re-arms through a
// checkpoint drain and succeeds. After a restart the recovered store is
// bit-identical to a reference holding every applied row.
TEST(EnospcSweepTest, WalWriteAndFsyncLatchThenRearm) {
  for (const int64_t site :
       {durability::kEnospcWalWrite, durability::kEnospcWalFsync}) {
    SCOPED_TRACE(site == durability::kEnospcWalWrite ? "wal.write"
                                                     : "wal.fsync");
    fault::DisarmAll();
    const std::string dir =
        TestDir("enospc_wal_" + std::to_string(site));
    Fixture fx(1200);
    Dataset expect = fx.data;

    DurabilityOptions options;
    options.dir = dir;
    options.ingest = SmallIngestOptions();
    options.rearm_backoff_millis = 0;  // Deterministic single-call re-arm.
    {
      std::unique_ptr<DurableIngestStore> store =
          DurableIngestStore::Open(fx.data, fx.workload, options);
      ASSERT_NE(store, nullptr);

      const auto batch_a = fx.RandomBatch(6);
      for (const auto& row : batch_a) expect.AppendRow(row);
      ASSERT_EQ(store->TryInsertBatch(batch_a), InsertResult::kOk);

      // One injected ENOSPC at this site; the disk then "frees".
      fault::FaultSpec spec;
      spec.match_arg = site;
      spec.max_fires = 1;
      fault::Arm("fs.enospc", spec);

      // The hit batch is applied in memory but its ack fails closed.
      const auto batch_b = fx.RandomBatch(6);
      for (const auto& row : batch_b) expect.AppendRow(row);
      ASSERT_EQ(store->TryInsertBatch(batch_b), InsertResult::kNotDurable);
      EXPECT_TRUE(store->enospc_latched());
      EXPECT_EQ(store->stats().enospc_latches, 1);
      EXPECT_EQ(store->stats().failed_acks, 1);

      // Reads keep serving the full in-memory state while latched.
      ExpectMatchesReference(store->store(), expect, fx.CheckQueries());

      // The next insert drives the re-arm: checkpoint drain covers every
      // assigned ordinal, a fresh segment opens, and the batch lands
      // durably.
      const auto batch_c = fx.RandomBatch(6);
      for (const auto& row : batch_c) expect.AppendRow(row);
      ASSERT_EQ(store->TryInsertBatch(batch_c), InsertResult::kOk);
      EXPECT_FALSE(store->enospc_latched());
      EXPECT_EQ(store->stats().rearms, 1);
      ExpectMatchesReference(store->store(), expect, fx.CheckQueries());
    }

    // Restart: everything applied before the crash — including the
    // never-acked batch the drain checkpointed — recovers bit-identically.
    fault::DisarmAll();
    std::unique_ptr<DurableIngestStore> reopened =
        DurableIngestStore::Open(fx.data, fx.workload, options);
    ASSERT_NE(reopened, nullptr);
    EXPECT_TRUE(reopened->recovery().recovered);
    ExpectMatchesReference(reopened->store(), expect, fx.CheckQueries());
  }
}

// fs.enospc at the checkpoint-rename site, firing once: the RESERVE file
// is dropped and the rename retried, so the checkpoint completes even on a
// "full" disk.
TEST(EnospcSweepTest, CheckpointRenameSpendsReserveAndCompletes) {
  fault::DisarmAll();
  const std::string dir = TestDir("enospc_rename_reserve");
  Fixture fx(1200);
  Dataset expect = fx.data;

  DurabilityOptions options;
  options.dir = dir;
  options.ingest = SmallIngestOptions();
  std::unique_ptr<DurableIngestStore> store =
      DurableIngestStore::Open(fx.data, fx.workload, options);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(std::filesystem::exists(dir + "/RESERVE"));

  const auto batch = fx.RandomBatch(10);
  for (const auto& row : batch) expect.AppendRow(row);
  ASSERT_EQ(store->TryInsertBatch(batch), InsertResult::kOk);

  fault::FaultSpec spec;
  spec.match_arg = durability::kEnospcCheckpointRename;
  spec.max_fires = 1;
  fault::Arm("fs.enospc", spec);
  EXPECT_TRUE(store->CheckpointNow());
  fault::DisarmAll();

  const DurableIngestStore::Stats stats = store->stats();
  EXPECT_GE(stats.checkpoints, 1);
  EXPECT_GE(stats.reserve_drops, 1);
  EXPECT_EQ(stats.checkpoint_failures, 0);
  // The reserve is re-created once the checkpoint lands.
  EXPECT_TRUE(std::filesystem::exists(dir + "/RESERVE"));
  ExpectMatchesReference(store->store(), expect, fx.CheckQueries());
}

// fs.enospc held armed at the checkpoint-rename and manifest-write sites:
// checkpoints fail (and are swallowed — the WAL retains everything), reads
// and durable inserts keep working, and once space frees the next
// checkpoint lands and a restart recovers bit-identically.
TEST(EnospcSweepTest, CheckpointAndManifestSitesFailOpenThenRecover) {
  for (const int64_t site : {durability::kEnospcCheckpointRename,
                             durability::kEnospcManifestWrite}) {
    SCOPED_TRACE(site == durability::kEnospcCheckpointRename
                     ? "checkpoint.rename"
                     : "manifest.write");
    fault::DisarmAll();
    const std::string dir =
        TestDir("enospc_ckpt_" + std::to_string(site));
    Fixture fx(1200);
    Dataset expect = fx.data;

    DurabilityOptions options;
    options.dir = dir;
    options.ingest = SmallIngestOptions();
    {
      std::unique_ptr<DurableIngestStore> store =
          DurableIngestStore::Open(fx.data, fx.workload, options);
      ASSERT_NE(store, nullptr);

      const auto batch_a = fx.RandomBatch(8);
      for (const auto& row : batch_a) expect.AppendRow(row);
      ASSERT_EQ(store->TryInsertBatch(batch_a), InsertResult::kOk);

      fault::FaultSpec spec;
      spec.match_arg = site;
      fault::Arm("fs.enospc", spec);  // Unlimited: retries fail too.

      EXPECT_FALSE(store->CheckpointNow());
      EXPECT_GE(store->stats().checkpoint_failures, 1);

      // The WAL is untouched by checkpoint failures: durable inserts and
      // reads both keep working.
      const auto batch_b = fx.RandomBatch(8);
      for (const auto& row : batch_b) expect.AppendRow(row);
      ASSERT_EQ(store->TryInsertBatch(batch_b), InsertResult::kOk);
      ExpectMatchesReference(store->store(), expect, fx.CheckQueries());

      // Space frees: the next checkpoint completes.
      fault::DisarmAll();
      EXPECT_TRUE(store->CheckpointNow());
    }

    std::unique_ptr<DurableIngestStore> reopened =
        DurableIngestStore::Open(fx.data, fx.workload, options);
    ASSERT_NE(reopened, nullptr);
    EXPECT_TRUE(reopened->recovery().recovered);
    ExpectMatchesReference(reopened->store(), expect, fx.CheckQueries());
  }
}

// ---- Scrubber --------------------------------------------------------------

// The scrubber finds a rotted block *before any query touches it* and
// feeds it through quarantine-and-repair: after the sweep the store serves
// full-fidelity answers from a healed published copy.
TEST(ScrubberTest, FindsRotBeforeFirstTouchAndRepairs) {
  fault::DisarmAll();
  // Base rows entirely below dim0 <= 10000 and inserts far above, so the
  // folded store's tail blocks are wholly insert-origin — the blocks
  // RepairQuarantined can re-materialize from the fold backup.
  Rng rng(61);
  Dataset data(2, {});
  for (int i = 0; i < 5000; ++i) {
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
  std::vector<std::vector<Value>> inserts;
  for (int i = 0; i < 2500; ++i) {
    inserts.push_back(
        {rng.UniformValue(100000, 110000), rng.UniformValue(0, 500)});
  }
  store.InsertBatch(inserts);
  store.ForceRoll();
  ASSERT_GT(store.CompactNow(), 1u);

  // Pick a wholly-insert-origin block to "rot".
  const ColumnStore& cur = store.store();
  int64_t rot_block = -1;
  for (int64_t b = 0; b * kScanBlockRows < cur.size(); ++b) {
    const int64_t lo = b * kScanBlockRows;
    const int64_t hi = std::min(cur.size(), lo + kScanBlockRows);
    bool all_delta = true;
    for (int64_t r = lo; r < hi && all_delta; ++r) {
      all_delta = cur.Get(r, 0) >= 100000;
    }
    if (all_delta) {
      rot_block = b;
      break;
    }
  }
  ASSERT_GE(rot_block, 0);

  Query over_new;
  over_new.filters.push_back(Predicate{0, 100000, 110000});
  over_new.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
  const QueryResult want = store.Execute(over_new);
  ASSERT_EQ(want.matched, 2500);
  ASSERT_FALSE(want.degraded);

  fault::FaultSpec spec;
  spec.match_arg = rot_block;
  spec.max_fires = 1;
  fault::Arm("scrub.corrupt_block", spec);

  // Sweep synchronously (no thread, no queries in between): the scrubber
  // must be the first thing to touch the rotted block.
  Scrubber::Stats found;
  {
    ScrubberOptions sopts;
    sopts.blocks_per_slice = int64_t{1} << 30;  // Whole store per slice.
    Scrubber scrubber(&store, sopts);
    while (scrubber.stats().sweeps == 0) {
      ASSERT_GT(scrubber.ScrubSlice(), 0);
    }
    found = scrubber.stats();
  }
  fault::DisarmAll();
  EXPECT_EQ(found.corruptions_found, 1);
  EXPECT_GE(found.blocks_repaired, 1);
  EXPECT_GE(store.stats().repairs_published, 1);

  // The healed published copy serves full-fidelity answers — no degraded
  // flag, nothing quarantined, bit-identical to the pre-rot result.
  const QueryResult healed = store.Execute(over_new);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.agg, want.agg);
  EXPECT_EQ(healed.matched, want.matched);
  EXPECT_EQ(store.store().QuarantinedBlocks(), 0);
}

// With repair disabled the scrubber still quarantines — scans skip the
// block and flag results degraded, exactly as if a query had tripped the
// checksum — and a manual RepairQuarantined heals it.
TEST(ScrubberTest, QuarantineOnlyModeFlagsDegradedUntilRepaired) {
  fault::DisarmAll();
  Rng rng(67);
  Dataset data(2, {});
  for (int i = 0; i < 4000; ++i) {
    data.AppendRow({rng.UniformValue(0, 10000), rng.UniformValue(0, 500)});
  }
  Workload workload;
  for (int i = 0; i < 8; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 9000);
    q.filters.push_back(Predicate{0, lo, lo + 800});
    workload.push_back(q);
  }
  IngestOptions options = SmallIngestOptions();
  options.chunk_capacity = 512;
  IngestStore store(data, workload, options);
  std::vector<std::vector<Value>> inserts;
  for (int i = 0; i < 2000; ++i) {
    inserts.push_back(
        {rng.UniformValue(100000, 110000), rng.UniformValue(0, 500)});
  }
  store.InsertBatch(inserts);
  store.ForceRoll();
  ASSERT_GT(store.CompactNow(), 1u);

  const ColumnStore& cur = store.store();
  int64_t rot_block = -1;
  for (int64_t b = 0; b * kScanBlockRows < cur.size(); ++b) {
    const int64_t lo = b * kScanBlockRows;
    const int64_t hi = std::min(cur.size(), lo + kScanBlockRows);
    bool all_delta = true;
    for (int64_t r = lo; r < hi && all_delta; ++r) {
      all_delta = cur.Get(r, 0) >= 100000;
    }
    if (all_delta) {
      rot_block = b;
      break;
    }
  }
  ASSERT_GE(rot_block, 0);

  Query over_new;
  over_new.filters.push_back(Predicate{0, 100000, 110000});
  over_new.SetAggregates({{AggKind::kCount, 0}});
  const QueryResult want = store.Execute(over_new);
  ASSERT_EQ(want.matched, 2000);

  fault::FaultSpec spec;
  spec.match_arg = rot_block;
  spec.max_fires = 1;
  fault::Arm("scrub.corrupt_block", spec);
  ScrubberOptions sopts;
  sopts.blocks_per_slice = int64_t{1} << 30;
  sopts.repair = false;
  Scrubber scrubber(&store, sopts);
  while (scrubber.stats().sweeps == 0) {
    ASSERT_GT(scrubber.ScrubSlice(), 0);
  }
  fault::DisarmAll();

  EXPECT_EQ(scrubber.stats().corruptions_found, 1);
  EXPECT_EQ(scrubber.stats().blocks_repaired, 0);
  EXPECT_GE(store.store().QuarantinedBlocks(), 1);
  const QueryResult degraded = store.Execute(over_new);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_LT(degraded.matched, want.matched);

  EXPECT_GE(store.RepairQuarantined(), 1);
  const QueryResult healed = store.Execute(over_new);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.matched, want.matched);
}

#endif  // TSUNAMI_FAULT_INJECTION

}  // namespace
}  // namespace tsunami
