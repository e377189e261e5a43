// Randomized equivalence + concurrency suite for the serving layer:
//  * QueryService Submit/Await (and Run) is bit-identical to per-query
//    Execute and to ExecuteBatch for every index — including on skewed
//    batches (one giant region query + many needles) — across service
//    thread counts and SIMD tiers;
//  * the plan cache stays correct under eviction pressure and concurrent
//    Submit from many client threads, and actually hits;
//  * cancellation and deadlines are honored mid-scan (a single giant range
//    stops inside the chunk loop, not after it);
//  * the SQL engine attached to a service returns exactly what the
//    unattached engine returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/fault_injection.h"
#include "src/baselines/single_dim.h"
#include "src/baselines/zm_index.h"
#include "src/baselines/zorder.h"
#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/exec/task_scheduler.h"
#include "src/flood/flood.h"
#include "src/ingest/ingest_store.h"
#include "src/query/engine.h"
#include "src/query/router.h"
#include "src/secondary/secondary_index.h"
#include "src/serve/query_service.h"
#include "tests/scan_oracle.h"
#include "tests/worker_jam.h"

namespace tsunami {
namespace {

void ExpectBitIdentical(const QueryResult& got, const QueryResult& want,
                        const std::string& context) {
  EXPECT_EQ(got.agg, want.agg) << context;
  EXPECT_EQ(got.scanned, want.scanned) << context;
  EXPECT_EQ(got.matched, want.matched) << context;
  EXPECT_EQ(got.cell_ranges, want.cell_ranges) << context;
  ASSERT_EQ(got.extra.size(), want.extra.size()) << context;
  for (size_t i = 0; i < got.extra.size(); ++i) {
    EXPECT_EQ(got.extra[i], want.extra[i]) << context << " extra " << i;
  }
}

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(91);
    const int64_t n = 24000;
    data_ = Dataset(3, {});
    data_.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      Value x = rng.UniformValue(0, 40000);
      data_.AppendRow(
          {x, x + rng.UniformValue(-300, 300), rng.UniformValue(0, 1000)});
    }
    for (int i = 0; i < 32; ++i) {
      workload_.push_back(Needle(rng));
    }
  }

  /// A cheap, selective query (the "needle" half of a skewed batch).
  Query Needle(Rng& rng) const {
    Query q;
    Value lo = rng.UniformValue(0, 38000);
    q.filters.push_back(Predicate{0, lo, lo + 1500});
    switch (rng.NextBelow(3)) {
      case 0:
        q.SetAggregates({{AggKind::kCount, 0}});
        break;
      case 1:
        q.SetAggregates({{AggKind::kSum, 1}});
        break;
      default:
        q.SetAggregates({{AggKind::kSum, 2},
                         {AggKind::kCount, 0},
                         {AggKind::kMin, 1},
                         {AggKind::kMax, 0}});
        break;
    }
    return q;
  }

  /// The giant region query: touches nearly everything, multi-aggregate.
  Query Region() const {
    Query q;
    q.filters.push_back(Predicate{0, 100, 39900});
    q.filters.push_back(Predicate{2, 0, 990});
    q.SetAggregates(
        {{AggKind::kSum, 1}, {AggKind::kCount, 0}, {AggKind::kMax, 2}});
    return q;
  }

  /// A randomized skewed batch: one region query somewhere among needles.
  Workload SkewedBatch(Rng& rng, int needles) const {
    Workload batch;
    size_t region_at = rng.NextBelow(needles + 1);
    for (int i = 0; i < needles; ++i) {
      if (batch.size() == region_at) batch.push_back(Region());
      batch.push_back(Needle(rng));
    }
    if (batch.size() == region_at) batch.push_back(Region());
    return batch;
  }

  std::vector<std::unique_ptr<MultiDimIndex>> BuildRoster() const {
    std::vector<std::unique_ptr<MultiDimIndex>> xs;
    xs.push_back(std::make_unique<FullScanIndex>(data_));
    xs.push_back(std::make_unique<SingleDimIndex>(data_, workload_));
    xs.push_back(std::make_unique<ZOrderIndex>(data_, ZOrderIndex::Options()));
    xs.push_back(std::make_unique<FloodIndex>(data_, workload_));
    TsunamiOptions options;
    options.cluster_queries = false;
    xs.push_back(std::make_unique<TsunamiIndex>(data_, workload_, options));
    xs.push_back(std::make_unique<SortedSecondaryIndex>(data_, /*host_dim=*/0,
                                                        /*key_dim=*/2));
    xs.push_back(std::make_unique<CorrelationSecondaryIndex>(
        data_, /*host_dim=*/0, /*key_dim=*/1));
    xs.push_back(std::make_unique<ZmIndex>(data_));
    return xs;
  }

  Dataset data_;
  Workload workload_;
};

// The default chunk grain, and once the smallest grain, which cuts every
// plan's tasks at every block boundary.
TEST_F(QueryServiceTest, SubmitAwaitBitIdenticalToExecuteAndExecuteBatch) {
  std::vector<std::unique_ptr<MultiDimIndex>> roster = BuildRoster();
  struct Config {
    int threads;
    SimdTier tier;
    int64_t chunk_rows;
  };
  std::vector<Config> configs;
  for (int threads : {0, 2, 4}) {
    for (SimdTier tier : {SimdTier::kAuto, SimdTier::kNone}) {
      configs.push_back({threads, tier, ServiceOptions().chunk_rows});
    }
  }
  configs.push_back({2, SimdTier::kAuto, kScanBlockRows});
  Rng rng(92);
  for (const auto& index : roster) {
    Workload batch = SkewedBatch(rng, 24);
    for (const Config& config : configs) {
      ServiceOptions options;
      options.threads = config.threads;
      options.chunk_rows = config.chunk_rows;
      QueryService service(index.get(), options);
      SubmitOptions sub;
      sub.scan = ScanOptions{config.tier};
      std::vector<QueryService::Admission> tickets =
          service.SubmitBatch(std::span<const Query>(batch), sub);
      ASSERT_EQ(tickets.size(), batch.size());
      // Also the ExecuteBatch path, as the second reference.
      TaskScheduler batch_scheduler(config.threads);
      ExecContext ctx(&batch_scheduler, ScanOptions{config.tier});
      std::vector<QueryResult> via_batch = index->ExecuteBatch(
          std::span<const Query>(batch.data(), batch.size()), ctx);
      for (size_t i = 0; i < batch.size(); ++i) {
        bool cancelled = true;
        QueryResult got = service.Await(tickets[i], &cancelled);
        EXPECT_FALSE(cancelled);
        std::string context = index->Name() + " query " + std::to_string(i) +
                              " threads " + std::to_string(config.threads) +
                              " chunk_rows " +
                              std::to_string(config.chunk_rows);
        ExpectBitIdentical(got, index->Execute(batch[i]), context);
        ExpectBitIdentical(got, via_batch[i], context + " (vs batch)");
      }
      ServiceStats stats = service.stats();
      EXPECT_EQ(stats.submitted, static_cast<int64_t>(batch.size()));
      EXPECT_EQ(stats.completed, static_cast<int64_t>(batch.size()));
      EXPECT_EQ(stats.cancelled, 0);
      EXPECT_EQ(stats.tickets_in_flight, 0);
    }
  }
}

TEST_F(QueryServiceTest, RouterPlansExecuteAgainstRoutedStore) {
  std::vector<std::unique_ptr<MultiDimIndex>> roster = BuildRoster();
  // A router over indexes with *different* clustered stores: the service
  // must scan each plan against PlanTarget's store, not the router's.
  AccessPathRouter router(
      {roster[0].get(), roster[4].get(), roster[5].get()}, data_, workload_);
  ServiceOptions options;
  options.threads = 3;
  QueryService service(&router, options);
  Rng rng(93);
  Workload batch = SkewedBatch(rng, 16);
  std::vector<QueryService::Admission> tickets =
      service.SubmitBatch(std::span<const Query>(batch));
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectBitIdentical(service.Await(tickets[i]), router.Execute(batch[i]),
                       "router query " + std::to_string(i));
  }
}

TEST_F(QueryServiceTest, TsunamiDeltaBufferReachesServicePath) {
  // Unfolded rows live in the store's delta chunks, which only FinishPlan
  // scans: the service's chunked jobs must run it after the range scans.
  ingest::IngestOptions options;
  options.index.cluster_queries = false;
  options.background_compaction = false;
  ingest::IngestStore store(data_, workload_, options);
  store.Insert({120, 160, 480});
  store.Insert({36000, 35800, 220});
  const auto snapshot = store.CurrentSnapshot();  // Owns the sorted index.
  const TsunamiIndex& sorted = snapshot->index();
  ServiceOptions service_options;
  service_options.threads = 2;
  QueryService service(&store, service_options);
  Rng rng(94);
  Workload batch = SkewedBatch(rng, 8);
  for (const Query& q : batch) {
    const QueryResult got = service.Run(q);
    ExpectBitIdentical(got, store.Execute(q), "delta query");
    EXPECT_EQ(got.scanned, sorted.Execute(q).scanned + 2);
  }
}

TEST_F(QueryServiceTest, PlanCacheHitsRepeatEvictsAndStaysCorrect) {
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 2;
  options.plan_cache_capacity = 2;  // Tiny: forces eviction churn.
  QueryService service(&index, options);
  Rng rng(95);
  std::vector<Query> distinct;
  for (int i = 0; i < 5; ++i) distinct.push_back(Needle(rng));
  // Cycle the 5 queries repeatedly through a capacity-2 cache: every
  // arrival must still answer exactly, evictions notwithstanding.
  for (int round = 0; round < 6; ++round) {
    for (size_t i = 0; i < distinct.size(); ++i) {
      ExpectBitIdentical(service.Run(distinct[i]),
                         index.Execute(distinct[i]),
                         "round " + std::to_string(round) + " query " +
                             std::to_string(i));
    }
  }
  PlanCache::Stats cache = service.plan_cache().stats();
  EXPECT_GT(cache.evictions, 0);
  EXPECT_LE(cache.size, 2);
  EXPECT_EQ(cache.hits + cache.misses, 6 * 5);

  // A warm cache (capacity comfortably above the distinct count) must
  // actually hit: same traffic, ~4/5 hit rate.
  ServiceOptions warm_options;
  warm_options.threads = 2;
  warm_options.plan_cache_capacity = 64;
  QueryService warm(&index, warm_options);
  for (int round = 0; round < 6; ++round) {
    for (const Query& q : distinct) {
      ExpectBitIdentical(warm.Run(q), index.Execute(q), "warm");
    }
  }
  PlanCache::Stats warm_stats = warm.plan_cache().stats();
  EXPECT_EQ(warm_stats.misses, 5);
  EXPECT_EQ(warm_stats.hits, 6 * 5 - 5);
  EXPECT_GT(warm_stats.HitRate(), 0.8);
}

TEST_F(QueryServiceTest, FingerprintNormalizesFilterOrderAndTypeLabel) {
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 1;
  QueryService service(&index, options);
  Query a = Region();
  Query b = Region();
  // Same rectangle, different filter order and type label: one plan.
  std::swap(b.filters[0], b.filters[1]);
  b.type = 7;
  // The Query-level helpers agree with the cache's behavior.
  EXPECT_EQ(QueryFingerprint(a), QueryFingerprint(b));
  EXPECT_TRUE(FingerprintEquivalent(a, b));
  Query c = a;
  c.filters[0].hi += 1;
  EXPECT_FALSE(FingerprintEquivalent(a, c));
  ExpectBitIdentical(service.Run(a), index.Execute(a), "fingerprint a");
  ExpectBitIdentical(service.Run(b), index.Execute(a), "fingerprint b");
  EXPECT_EQ(service.plan_cache().stats().misses, 1);
  EXPECT_EQ(service.plan_cache().stats().hits, 1);
}

TEST_F(QueryServiceTest, ConcurrentSubmittersShareTheCacheCorrectly) {
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 3;
  QueryService service(&index, options);
  Rng seed_rng(96);
  std::vector<Query> mix;
  for (int i = 0; i < 8; ++i) mix.push_back(Needle(seed_rng));
  std::vector<QueryResult> want;
  for (const Query& q : mix) want.push_back(index.Execute(q));
  const int kClients = 6;
  const int kRounds = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int r = 0; r < kRounds; ++r) {
        size_t pick = rng.NextBelow(mix.size());
        QueryResult got = service.Run(mix[pick]);
        if (got.agg != want[pick].agg || got.matched != want[pick].matched ||
            got.scanned != want[pick].scanned) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCache::Stats cache = service.plan_cache().stats();
  EXPECT_EQ(cache.hits + cache.misses, kClients * kRounds);
  // 8 distinct rectangles, 72 arrivals: the cache must have absorbed the
  // repeats (racing first-arrivals may double-prepare, hence >=).
  EXPECT_GT(cache.hits, 0);
  EXPECT_GE(cache.misses, 8);
}

TEST_F(QueryServiceTest, PreCancelledQueryReturnsIdentity) {
  FullScanIndex index(data_);
  ServiceOptions options;
  options.threads = 2;
  QueryService service(&index, options);
  std::atomic<bool> cancel{true};
  SubmitOptions sub;
  sub.cancel = &cancel;
  bool cancelled = false;
  QueryResult got = service.Run(Region(), sub, &cancelled);
  EXPECT_TRUE(cancelled);
  ExpectBitIdentical(got, InitResult(Region()), "pre-cancelled");
  EXPECT_EQ(service.stats().cancelled, 1);
  EXPECT_EQ(service.stats().completed, 0);
}

// The mid-scan satellite: a single giant range scan must observe a
// mid-flight cancel between block-aligned slices — before the scan
// completes — not merely between range tasks.
TEST_F(QueryServiceTest, CancelLandsMidScanInsideOneGiantRange) {
  // One huge task, inline context, no chunking help: only the in-kernel
  // stop probe can stop this early.
  ColumnStore store(data_);
  Query q = Region();
  std::atomic<bool> cancel{false};
  ExecContext ctx;
  ctx.cancel = &cancel;
  // Trip the flag from inside the probe itself after the first slice, by
  // keying on progress: probe sees the flag unset, sets it, and the next
  // probe stops the scan. (Deterministic: no timing involved.)
  struct Trip {
    const std::atomic<bool>* read;
    std::atomic<bool>* write;
    std::atomic<int> calls{0};
  } trip{&cancel, &cancel};
  ScanOptions options = ctx.scan;
  options.stop_probe = [](const void* arg) {
    Trip* t = const_cast<Trip*>(static_cast<const Trip*>(arg));
    t->calls.fetch_add(1, std::memory_order_relaxed);
    if (t->calls.load(std::memory_order_relaxed) > 1) {
      return t->read->load(std::memory_order_relaxed);
    }
    t->write->store(true, std::memory_order_relaxed);
    return false;
  };
  options.stop_arg = &trip;
  QueryResult partial = InitResult(q);
  RangeTask whole{0, store.size(), false};
  store.ScanRanges({&whole, 1}, q, &partial, options);
  // The scan stopped after roughly one probe slice, far short of the
  // full store.
  EXPECT_LT(partial.scanned, store.size());
  EXPECT_GT(partial.scanned, 0);
  EXPECT_GE(trip.calls.load(), 2);

  // And end-to-end: a service query with an expired deadline comes back
  // cancelled with the identity result, never a partial.
  FullScanIndex index(data_);
  ServiceOptions service_options;
  service_options.threads = 2;
  QueryService service(&index, service_options);
  SubmitOptions sub;
  sub.deadline_seconds = 1e-9;
  bool cancelled = false;
  QueryResult got = service.Run(q, sub, &cancelled);
  EXPECT_TRUE(cancelled);
  ExpectBitIdentical(got, InitResult(q), "deadline");
}

TEST_F(QueryServiceTest, ProbedUncancelledScanIsBitIdentical) {
  // The probe slices the scan into sub-ranges; when the probe never fires,
  // the sliced scan must equal the unsliced one bit for bit, at every tier.
  ColumnStore store(data_);
  std::atomic<bool> cancel{false};
  ExecContext ctx;
  ctx.cancel = &cancel;  // Cancellable, never cancelled.
  Rng rng(97);
  for (int trial = 0; trial < 6; ++trial) {
    Query q = trial % 2 == 0 ? Region() : Needle(rng);
    for (SimdTier tier : {SimdTier::kAuto, SimdTier::kNone}) {
      for (bool exact : {false, true}) {
        ctx.scan = ScanOptions{tier};
        RangeTask whole{0, store.size(), exact};
        QueryResult probed = InitResult(q);
        store.ScanRanges({&whole, 1}, q, &probed, ctx.CancellableScan());
        QueryResult plain = InitResult(q);
        store.ScanRanges({&whole, 1}, q, &plain, ScanOptions{tier});
        ExpectBitIdentical(probed, plain,
                           std::string(SimdTierName(tier)) + " exact " +
                               std::to_string(exact));
      }
    }
  }
}

TEST_F(QueryServiceTest, EngineAttachedToServiceMatchesUnattached) {
  FloodIndex index(data_, workload_);
  TableSchema schema;
  schema.table_name = "t";
  schema.columns = {"a", "b", "c"};
  QueryEngine plain(&index, schema);
  QueryEngine served(&index, schema);
  ServiceOptions options;
  options.threads = 3;
  QueryService service(&index, options);
  served.AttachService(&service);

  std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM t WHERE a < 5000",
      "SELECT SUM(c), AVG(c) FROM t WHERE b > 10000",
      "SELECT COUNT(*) FROM t WHERE a < 1000 OR c > 900",
      "SELECT MIN(b) FROM t WHERE a > 20000 AND a < 1000",
      "SELECT SUM(b), COUNT(*), MAX(c) FROM t WHERE a BETWEEN 2000 AND "
      "38000",
  };
  std::vector<PreparedStatement> stmts;
  for (const std::string& sql : sqls) stmts.push_back(served.Prepare(sql));
  ExecContext ctx;
  std::vector<SqlResult> got = served.RunBatch(stmts, ctx);
  ASSERT_EQ(got.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    SqlResult want = plain.Run(sqls[i]);
    ASSERT_EQ(got[i].ok, want.ok) << sqls[i];
    if (!want.ok) continue;
    ASSERT_EQ(got[i].values.size(), want.values.size()) << sqls[i];
    for (size_t a = 0; a < want.values.size(); ++a) {
      EXPECT_DOUBLE_EQ(got[i].values[a], want.values[a]) << sqls[i];
    }
    EXPECT_EQ(got[i].stats.matched, want.stats.matched) << sqls[i];
  }
  // Re-preparing the same statements binds through the plan cache.
  PlanCache::Stats before = service.plan_cache().stats();
  for (const std::string& sql : sqls) (void)served.Prepare(sql);
  PlanCache::Stats after = service.plan_cache().stats();
  EXPECT_GT(after.hits, before.hits);
}

TEST_F(QueryServiceTest, PriorityQueriesAreServed) {
  // Smoke: priority rides through admission (ordering itself is covered
  // deterministically in task_scheduler_test); results stay exact.
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 2;
  QueryService service(&index, options);
  Rng rng(98);
  Workload batch = SkewedBatch(rng, 12);
  std::vector<QueryService::Ticket> tickets;
  for (size_t i = 0; i < batch.size(); ++i) {
    SubmitOptions sub;
    sub.priority = static_cast<int>(i % 2);
    tickets.push_back(service.Submit(batch[i], sub));
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectBitIdentical(service.Await(tickets[i]), index.Execute(batch[i]),
                       "priority query " + std::to_string(i));
  }
}

TEST_F(QueryServiceTest, AwaitInfoReportsWorkerStampedLatency) {
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 2;
  QueryService service(&index, options);
  Rng rng(99);

  // A completed query reports a positive latency and no cancellation, and
  // the result matches Execute regardless of which Await overload is used.
  Query needle = Needle(rng);
  AwaitInfo info;
  ExpectBitIdentical(service.Await(service.Submit(needle), &info),
                     index.Execute(needle), "await-info needle");
  EXPECT_FALSE(info.cancelled);
  EXPECT_GT(info.latency_seconds, 0.0);
  // Stamped at completion on the worker: far below any sane wall bound.
  EXPECT_LT(info.latency_seconds, 60.0);

  // A pre-cancelled query still reports its (tiny) latency and the flag.
  std::atomic<bool> cancel{true};
  SubmitOptions sub;
  sub.cancel = &cancel;
  AwaitInfo cancelled_info;
  QueryResult result =
      service.Await(service.Submit(Region(), sub), &cancelled_info);
  EXPECT_TRUE(cancelled_info.cancelled);
  EXPECT_EQ(result.matched, 0);

#ifdef NDEBUG
  // An unknown ticket is reported as cancelled/kAlreadyConsumed, not a
  // hang. (Release builds only: debug builds assert on this caller bug.)
  AwaitInfo unknown_info;
  service.Await(static_cast<QueryService::Ticket>(1u << 20), &unknown_info);
  EXPECT_TRUE(unknown_info.cancelled);
  EXPECT_EQ(unknown_info.outcome, QueryOutcome::kAlreadyConsumed);
#endif
}

TEST_F(QueryServiceTest, CompletedQueryIsNotCancelledByLateAwait) {
  // Cancellation is recorded by the workers when execution is actually cut
  // short — never re-derived from the deadline clock at Await time. A query
  // whose chunks all finished inside the deadline must be returned intact
  // even when the client picks the result up long after expiry.
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 0;  // Inline: chunks run (and finish) inside Submit.
  QueryService service(&index, options);
  Query region = Region();
  SubmitOptions sub;
  // Roomy enough for the inline execution (a ~24k-row scan), short enough
  // to expire before the late Await below.
  sub.deadline_seconds = 0.25;
  QueryService::Ticket ticket = service.Submit(region, sub);

  // Same stale-state hazard with a borrowed cancel flag: set after the
  // query completed, it must not retroactively cancel the answer.
  std::atomic<bool> late_cancel{false};
  SubmitOptions flagged;
  flagged.cancel = &late_cancel;
  QueryService::Ticket flagged_ticket = service.Submit(region, flagged);
  late_cancel.store(true);

  // Let the deadline lapse before picking up the (already complete) result.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  bool cancelled = true;
  ExpectBitIdentical(service.Await(ticket, &cancelled),
                     index.Execute(region), "late await");
  EXPECT_FALSE(cancelled);
  cancelled = true;
  ExpectBitIdentical(service.Await(flagged_ticket, &cancelled),
                     index.Execute(region), "late cancel flag");
  EXPECT_FALSE(cancelled);
}

// --- Overload robustness: bounded admission, shedding, degradation -------
// WorkerJam (tests/worker_jam.h) occupies the service's workers: the
// deterministic way to keep submitted queries *queued* while a test
// inspects admission.

TEST_F(QueryServiceTest, BoundedAdmissionRejectsAndReservesHeadroom) {
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 1;
  options.max_queued_queries = 2;  // Low-priority watermark: floor(2*0.5)=1.
  QueryService service(&index, options);
  WorkerJam jam(&service.scheduler(), 1);

  Rng rng(200);
  Query needle = Needle(rng);
  // Low-priority traffic may only fill up to the watermark...
  QueryService::Admission low1 = service.Submit(needle);
  EXPECT_TRUE(low1.admitted());
  QueryService::Admission low2 = service.Submit(needle);
  EXPECT_FALSE(low2.admitted());
  EXPECT_EQ(low2.outcome, AdmissionOutcome::kQueueFull);
  // ...while the headroom above it stays available to high priority.
  SubmitOptions high;
  high.priority = 1;
  QueryService::Admission hi = service.Submit(needle, high);
  EXPECT_TRUE(hi.admitted());

  jam.Release();
  // Awaiting a rejection returns immediately with the rejected outcome.
  AwaitInfo rejected_info;
  QueryResult rejected = service.Await(low2, &rejected_info);
  EXPECT_TRUE(rejected_info.cancelled);
  EXPECT_EQ(rejected_info.outcome, QueryOutcome::kRejected);
  EXPECT_EQ(rejected.matched, 0);
  // Admitted queries complete exactly despite the rejection in between.
  ExpectBitIdentical(service.Await(low1), index.Execute(needle), "low1");
  ExpectBitIdentical(service.Await(hi), index.Execute(needle), "high");
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.admitted_chunks, 0);
}

TEST_F(QueryServiceTest, AdmittedChunksGaugeNeverExceedsCap) {
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 1;
  options.chunk_rows = kScanBlockRows;  // Region() decomposes to ~24 chunks.
  options.max_queued_chunks = 32;
  QueryService service(&index, options);
  WorkerJam jam(&service.scheduler(), 1);

  Rng rng(201);
  std::vector<QueryService::Admission> admissions;
  int64_t rejected = 0;
  for (int i = 0; i < 16; ++i) {
    QueryService::Admission a =
        service.Submit(i % 4 == 0 ? Region() : Needle(rng));
    admissions.push_back(a);
    rejected += a.admitted() ? 0 : 1;
    // The admission invariant under offered overload: the in-use chunk
    // budget never exceeds the cap, no matter how many Submits arrive.
    EXPECT_LE(service.stats().admitted_chunks, options.max_queued_chunks);
  }
  EXPECT_GT(rejected, 0);  // 16 queries cannot all fit in 32 chunks.

  jam.Release();
  for (size_t i = 0; i < admissions.size(); ++i) {
    AwaitInfo info;
    QueryResult got = service.Await(admissions[i], &info);
    if (admissions[i].admitted()) {
      EXPECT_EQ(info.outcome, QueryOutcome::kCompleted) << "query " << i;
    } else {
      EXPECT_EQ(info.outcome, QueryOutcome::kRejected) << "query " << i;
      EXPECT_EQ(got.matched, 0);
    }
  }
  EXPECT_EQ(service.stats().admitted_chunks, 0);
}

TEST_F(QueryServiceTest, HighPriorityShedsLowPriorityAtCapacity) {
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 1;
  options.max_queued_queries = 1;
  QueryService service(&index, options);
  WorkerJam jam(&service.scheduler(), 1);

  Query region = Region();
  QueryService::Admission victim = service.Submit(region);
  EXPECT_TRUE(victim.admitted());

  Rng rng(202);
  Query needle = Needle(rng);
  SubmitOptions high;
  high.priority = 1;
  QueryService::Admission hi = service.Submit(needle, high);
  EXPECT_TRUE(hi.admitted());  // Made room by shedding the low query.
  EXPECT_EQ(service.stats().shed, 1);

  jam.Release();
  // The shed query reports kShed with the identity result — its chunks
  // early-exited and none of their partials leak into the answer.
  AwaitInfo shed_info;
  QueryResult shed_result = service.Await(victim, &shed_info);
  EXPECT_TRUE(shed_info.cancelled);
  EXPECT_EQ(shed_info.outcome, QueryOutcome::kShed);
  ExpectBitIdentical(shed_result, InitResult(region), "shed identity");
  // The high-priority query that displaced it completes exactly.
  AwaitInfo hi_info;
  ExpectBitIdentical(service.Await(hi, &hi_info), index.Execute(needle),
                     "high-priority");
  EXPECT_EQ(hi_info.outcome, QueryOutcome::kCompleted);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.admitted_chunks, 0);
}

TEST_F(QueryServiceTest, InfeasibleDeadlineIsRejectedUpFront) {
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 0;
  options.reject_infeasible_deadlines = true;
  QueryService service(&index, options);

  // A 1 ns budget for a ~24k-row region scan: the cost model cannot call
  // that feasible under any calibration.
  SubmitOptions hopeless;
  hopeless.deadline_seconds = 1e-9;
  QueryService::Admission a = service.Submit(Region(), hopeless);
  EXPECT_FALSE(a.admitted());
  EXPECT_EQ(a.outcome, AdmissionOutcome::kDeadlineInfeasible);
  EXPECT_EQ(service.stats().rejected_infeasible, 1);

  // A roomy budget admits and completes as usual.
  SubmitOptions roomy;
  roomy.deadline_seconds = 100.0;
  QueryService::Admission ok = service.Submit(Region(), roomy);
  ASSERT_TRUE(ok.admitted());
  AwaitInfo info;
  ExpectBitIdentical(service.Await(ok, &info), index.Execute(Region()),
                     "feasible deadline");
  EXPECT_EQ(info.outcome, QueryOutcome::kCompleted);

  // Run() on a rejected query reports cancelled with the identity result.
  bool cancelled = false;
  QueryResult r = service.Run(Region(), hopeless, &cancelled);
  EXPECT_TRUE(cancelled);
  ExpectBitIdentical(r, InitResult(Region()), "rejected Run");
}

#ifdef NDEBUG
TEST_F(QueryServiceTest, DoubleAwaitReturnsAlreadyConsumed) {
  // Release builds only: debug builds assert on the double-Await bug.
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 0;
  QueryService service(&index, options);
  Rng rng(203);
  Query needle = Needle(rng);
  QueryService::Ticket t = service.Submit(needle);
  ExpectBitIdentical(service.Await(t), index.Execute(needle), "first await");
  AwaitInfo info;
  QueryResult second = service.Await(t, &info);
  EXPECT_TRUE(info.cancelled);
  EXPECT_EQ(info.outcome, QueryOutcome::kAlreadyConsumed);
  EXPECT_EQ(second.matched, 0);
  EXPECT_EQ(second.agg, 0);
}
#endif

TEST_F(QueryServiceTest, QuarantinedBlockDegradesInsteadOfWrongOrCrash) {
  // Two identical stores; one gets a block of the aggregated column
  // quarantined (as the checksum path would on corruption).
  FullScanIndex index(data_);
  FullScanIndex pristine(data_);
  index.store().encoded(1).Quarantine(0);

  ServiceOptions options;
  options.threads = 2;
  QueryService service(&index, options);

  // A SUM over the quarantined column: the answer is degraded — flagged,
  // not wrong-and-silent, not a crash — and at every tier equal to the
  // row-at-a-time oracle over the same store, which skips the same block.
  Query sum;
  sum.filters.push_back(Predicate{0, 0, 40000});
  sum.SetAggregates({{AggKind::kSum, 1}});
  QueryResult want = InitResult(sum);
  OracleScan(index.store(), 0, index.store().size(), sum, /*exact=*/false,
             &want);
  EXPECT_TRUE(want.degraded);
  for (SimdTier tier : {SimdTier::kAuto, SimdTier::kNone}) {
    SubmitOptions sub;
    sub.scan = ScanOptions{tier};
    AwaitInfo info;
    QueryResult got = service.Await(service.Submit(sum, sub), &info);
    EXPECT_EQ(info.outcome, QueryOutcome::kCompleted);
    EXPECT_TRUE(got.degraded);
    EXPECT_GE(got.quarantined_blocks, 1);
    EXPECT_EQ(got.agg, want.agg) << SimdTierName(tier);
    EXPECT_EQ(got.matched, want.matched) << SimdTierName(tier);
  }

  // A COUNT that never reads the quarantined column stays exact.
  Query count;
  count.filters.push_back(Predicate{0, 0, 40000});
  count.SetAggregates({{AggKind::kCount, 0}});
  AwaitInfo count_info;
  QueryResult got_count = service.Await(service.Submit(count), &count_info);
  EXPECT_EQ(count_info.outcome, QueryOutcome::kCompleted);
  EXPECT_FALSE(got_count.degraded);
  ExpectBitIdentical(got_count, pristine.Execute(count), "count unaffected");
}

TEST_F(QueryServiceTest, InjectedFaultSoakFailsClosedAndReplaysClean) {
#if !defined(TSUNAMI_FAULT_INJECTION)
  GTEST_SKIP() << "built without TSUNAMI_FAULT_INJECTION";
#else
  // Storms of injected faults under a 4-thread scheduler: chunks that
  // throw, workers that stall, and checksums that fail verification. The
  // service must fail *closed* — every Await returns either an exact
  // answer, a flagged-degraded answer, or an identity result with a
  // truthful outcome — and a quiesced replay with faults disarmed must be
  // bit-identical to per-query Execute.
  FullScanIndex index(data_);
  ServiceOptions options;
  options.threads = 4;
  QueryService service(&index, options);
  Rng rng(204);
  Workload batch = SkewedBatch(rng, 24);

  fault::FaultSpec throw_spec;
  throw_spec.probability = 0.2;
  throw_spec.seed = 41;
  fault::Arm("sched.task_throw", throw_spec);
  fault::FaultSpec stall_spec;
  stall_spec.probability = 0.1;
  stall_spec.seed = 42;
  fault::Arm("sched.stall", stall_spec);
  fault::FaultSpec checksum_spec;
  checksum_spec.probability = 0.05;
  checksum_spec.seed = 43;
  fault::Arm("storage.checksum", checksum_spec);
  index.store().encoded(0).MarkAllUnverified();
  index.store().encoded(1).MarkAllUnverified();

  for (int round = 0; round < 4; ++round) {
    std::vector<QueryService::Admission> admissions =
        service.SubmitBatch(std::span<const Query>(batch));
    for (size_t i = 0; i < batch.size(); ++i) {
      AwaitInfo info;
      QueryResult got = service.Await(admissions[i], &info);
      if (info.outcome == QueryOutcome::kFailed) {
        // Failed queries return the identity result, never partials.
        EXPECT_EQ(got.agg, InitResult(batch[i]).agg) << "query " << i;
        EXPECT_EQ(got.matched, 0) << "query " << i;
      } else {
        EXPECT_EQ(info.outcome, QueryOutcome::kCompleted) << "query " << i;
      }
    }
  }
  EXPECT_GT(fault::FireCount("sched.task_throw"), 0);
  EXPECT_GT(service.stats().failed, 0);
  fault::DisarmAll();

  // Quiesced replay: faults off, quarantine state frozen (it is sticky by
  // design). Service answers must now be bit-identical to Execute on the
  // same store — including the degraded flag and quarantine counts.
  for (size_t i = 0; i < batch.size(); ++i) {
    AwaitInfo info;
    QueryResult got = service.Await(service.Submit(batch[i]), &info);
    ASSERT_EQ(info.outcome, QueryOutcome::kCompleted) << "replay " << i;
    QueryResult want = index.Execute(batch[i]);
    ExpectBitIdentical(got, want, "replay " + std::to_string(i));
    EXPECT_EQ(got.degraded, want.degraded) << "replay " << i;
    EXPECT_EQ(got.quarantined_blocks, want.quarantined_blocks)
        << "replay " << i;
  }
#endif
}

TEST_F(QueryServiceTest, FailedChunksReturnBoundedAdmissionBudget) {
#if !defined(TSUNAMI_FAULT_INJECTION)
  GTEST_SKIP() << "built without TSUNAMI_FAULT_INJECTION";
#else
  // Regression: a chunk that fails must still return its admission-budget
  // units — whether its scan threw mid-closure (the RAII tail) or the
  // injected scheduler fault threw before the closure ever ran (the Await
  // backstop). Before the fix, every failed chunk permanently consumed
  // admitted_chunks_/active_queries_ budget, so a bounded service under
  // faults drifted into rejecting all traffic with kQueueFull.
  FullScanIndex index(data_);
  ServiceOptions options;
  options.threads = 2;
  options.chunk_rows = kScanBlockRows;
  options.max_queued_queries = 4;
  options.max_queued_chunks = 64;
  QueryService service(&index, options);

  fault::FaultSpec throw_spec;
  throw_spec.probability = 1.0;  // Deterministic: every chunk throws.
  throw_spec.seed = 7;
  fault::Arm("sched.task_throw", throw_spec);

  Rng rng(205);
  Workload batch = SkewedBatch(rng, 8);
  // Far more failed queries than the query cap: any leaked unit surfaces
  // as a kQueueFull rejection (Await on a rejected ticket reports
  // kRejected, failing the kFailed expectation below).
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < batch.size(); ++i) {
      SubmitOptions high;
      high.priority = 1;  // Full cap — no watermark scaling in the way.
      AwaitInfo info;
      QueryResult got = service.Await(service.Submit(batch[i], high), &info);
      EXPECT_EQ(info.outcome, QueryOutcome::kFailed)
          << "round " << round << " query " << i;
      EXPECT_GT(info.latency_seconds, 0.0);  // Stamped even on failure.
      EXPECT_EQ(got.matched, 0);
    }
  }
  fault::DisarmAll();

  // Every unit came back: gauges empty, nothing was ever rejected, and the
  // service still admits and answers exactly.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.admitted_chunks, 0);
  EXPECT_EQ(stats.rejected_queue_full, 0);
  EXPECT_GT(stats.failed, 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    AwaitInfo info;
    QueryResult got = service.Await(service.Submit(batch[i]), &info);
    ASSERT_EQ(info.outcome, QueryOutcome::kCompleted) << "query " << i;
    ExpectBitIdentical(got, index.Execute(batch[i]),
                       "post-fault " + std::to_string(i));
  }
#endif
}

TEST_F(QueryServiceTest, PerClientCapIsolatesGreedyClientOnly) {
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 1;
  options.max_inflight_per_client = 1;
  QueryService service(&index, options);
  WorkerJam jam(&service.scheduler(), 1);

  Rng rng(210);
  Query needle = Needle(rng);
  SubmitOptions greedy;
  greedy.client_id = 7;
  QueryService::Admission first = service.Submit(needle, greedy);
  ASSERT_TRUE(first.admitted()) << ToString(first.outcome);
  // The same client's second query exceeds its fairness slot...
  QueryService::Admission second = service.Submit(needle, greedy);
  EXPECT_FALSE(second.admitted());
  EXPECT_EQ(second.outcome, AdmissionOutcome::kClientBusy)
      << ToString(second.outcome);
  // ...while other clients and anonymous submissions are untouched.
  SubmitOptions other;
  other.client_id = 8;
  QueryService::Admission third = service.Submit(needle, other);
  EXPECT_TRUE(third.admitted()) << ToString(third.outcome);
  QueryService::Admission anon = service.Submit(needle);
  EXPECT_TRUE(anon.admitted()) << ToString(anon.outcome);

  jam.Release();
  ExpectBitIdentical(service.Await(first), index.Execute(needle), "first");
  ExpectBitIdentical(service.Await(third), index.Execute(needle), "third");
  ExpectBitIdentical(service.Await(anon), index.Execute(needle), "anon");
  AwaitInfo info;
  QueryResult got = service.Await(second, &info);
  EXPECT_EQ(info.outcome, QueryOutcome::kRejected) << ToString(info.outcome);
  EXPECT_EQ(got.matched, 0);

  // The slot is released with the query: the capped client admits again.
  QueryService::Admission retry = service.Submit(needle, greedy);
  EXPECT_TRUE(retry.admitted()) << ToString(retry.outcome);
  ExpectBitIdentical(service.Await(retry), index.Execute(needle), "retry");
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_client_busy, 1);
  EXPECT_EQ(stats.active_queries, 0);
}

TEST_F(QueryServiceTest, DrainRejectsNewWhileFinishingInflight) {
  FloodIndex index(data_, workload_);
  ServiceOptions options;
  options.threads = 1;
  QueryService service(&index, options);
  WorkerJam jam(&service.scheduler(), 1);

  Rng rng(211);
  std::vector<Query> queries;
  std::vector<QueryService::Admission> admitted;
  for (int i = 0; i < 3; ++i) {
    queries.push_back(Needle(rng));
    QueryService::Admission a = service.Submit(queries.back());
    ASSERT_TRUE(a.admitted()) << ToString(a.outcome);
    admitted.push_back(a);
  }

  service.BeginDrain();
  EXPECT_TRUE(service.draining());
  QueryService::Admission late = service.Submit(Needle(rng));
  EXPECT_FALSE(late.admitted());
  EXPECT_EQ(late.outcome, AdmissionOutcome::kDraining)
      << ToString(late.outcome);
  AwaitInfo late_info;
  QueryResult late_result = service.Await(late, &late_info);
  EXPECT_EQ(late_info.outcome, QueryOutcome::kRejected)
      << ToString(late_info.outcome);
  EXPECT_EQ(late_result.matched, 0);

  // Drain() blocks until the already-admitted work has executed; the
  // answers stay parked behind their tickets and come back intact.
  jam.Release();
  service.Drain();
  for (size_t i = 0; i < admitted.size(); ++i) {
    AwaitInfo info;
    QueryResult got = service.Await(admitted[i], &info);
    EXPECT_EQ(info.outcome, QueryOutcome::kCompleted) << ToString(info.outcome);
    ExpectBitIdentical(got, index.Execute(queries[i]),
                       "drained " + std::to_string(i));
  }
  ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.rejected_draining, 1);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.active_queries, 0);

  // Draining is one-way: fresh work keeps bouncing after the drain ends.
  QueryService::Admission post = service.Submit(Needle(rng));
  EXPECT_EQ(post.outcome, AdmissionOutcome::kDraining)
      << ToString(post.outcome);
}

// SubmitOptions::on_complete pushes each admitted query's ticket exactly
// once, by the time its answer is final; a refused admission never fires.
// An empty-range query decomposes to no chunks, so its push runs inside
// Submit itself.
TEST_F(QueryServiceTest, OnCompleteFiresOncePerAdmittedQuery) {
  FloodIndex index(data_, workload_);
  for (int threads : {0, 2}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::mutex mu;
    std::vector<QueryService::Ticket> fired;
    std::vector<QueryService::Ticket> tickets;
    std::vector<Query> queries;
    {
      ServiceOptions options;
      options.threads = threads;
      QueryService service(&index, options);
      SubmitOptions submit;
      submit.on_complete = [&mu, &fired](uint64_t ticket) {
        std::lock_guard<std::mutex> lock(mu);
        fired.push_back(ticket);
      };
      Rng rng(300);
      Query empty;
      empty.filters.push_back(Predicate{0, 1, 0});
      empty.SetAggregates({{AggKind::kCount, 0}});
      for (int i = 0; i < 16; ++i) {
        queries.push_back(i == 7 ? empty : i % 5 == 0 ? Region() : Needle(rng));
        const QueryService::Admission a = service.Submit(queries.back(), submit);
        ASSERT_TRUE(a.admitted()) << ToString(a.outcome);
        tickets.push_back(a.ticket);
      }
      service.BeginDrain();
      EXPECT_FALSE(service.Submit(Needle(rng), submit).admitted());

      Timer timer;
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (fired.size() >= tickets.size()) break;
        }
        ASSERT_LT(timer.ElapsedSeconds(), 10.0) << "a completion never fired";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (size_t i = 0; i < tickets.size(); ++i) {
        ExpectBitIdentical(service.Await(tickets[i]), index.Execute(queries[i]),
                           "query " + std::to_string(i));
      }
    }
    // The service is gone, so every continuation has finished running.
    std::sort(fired.begin(), fired.end());
    EXPECT_EQ(fired, tickets);
  }
}

}  // namespace
}  // namespace tsunami
