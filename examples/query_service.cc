// Multi-client soak demo of the QueryService serving path:
//   1. build Tsunami over a synthetic correlated table;
//   2. several "dashboard" client threads fire repeated ad-hoc SQL through
//      a service-attached QueryEngine — after the first arrival of each
//      statement shape, every re-Prepare binds to the plan cache;
//   3. concurrently, "analyst" client threads submit skewed batches (one
//      giant region query + many needles) via SubmitBatch/Await, whose
//      chunks interleave in the work-stealing deques;
//   4. everything self-checks against per-query Execute, and the service
//      stats (cache hit rate, steals, queue depth) are printed at the end.
//
// With --soak (and a -DTSUNAMI_FAULT_INJECTION=ON build) the batch clients
// run under injected faults — thrown chunks and flipped block checksums —
// and the self-check relaxes to fail-closed semantics: a query may come
// back failed (identity result, truthful outcome) or flagged degraded, but
// a result claiming to be complete and healthy must still be exact.
//
// With --net the same fail-closed soak runs over the real wire: a
// TsunamiServer on an ephemeral loopback port, >=1000 concurrent client
// connections, wire-level faults (under --soak), a stalled-reader eviction
// check, and a graceful drain to finish.
//
// With --ingest the static index is replaced by an ingest::IngestStore and
// the soak becomes writers-vs-readers-vs-reorganization: writer threads
// append rows while reader threads run count-all queries whose answers must
// stay inside the monotone visibility window, a chaos thread forces chunk
// rolls, compactions, and workload reorganizations, and (under --soak on an
// FI build) the ingest fault sites abort compactions and stall publishes
// mid-swap. The run ends with a quiesced replay that must be bit-identical
// to a full-scan reference over base + every inserted row.
//
// With --durable the soak becomes kill -9 crash recovery: a forked child
// ingests deterministic batches through a DurableIngestStore (WAL + fsync'd
// group commit + fold checkpoints), appending each batch index to an ack
// file only AFTER the durable ack. The parent SIGKILLs the child mid-ingest,
// recovers the directory in-process, and verifies the durability contract:
// every acked batch is present, the recovered rows are an exact batch-
// aligned prefix of the deterministic insert sequence (no unacked row
// double-applied), and 32 range queries are bit-identical to a full-scan
// reference. Repeats for several kill/recover cycles; under --soak (FI
// builds) the WAL fault sites — including injected fs.enospc disk-full
// latches — are armed inside the child too.
//
// With --pressure the soak runs the system against its resource budgets:
// phase 1 paces concurrent writers through a ResourceGovernor delta-backlog
// budget (with gov.mem_pressure and scrub.corrupt_block armed under --soak)
// while a Scrubber repairs rotted blocks in place; phase 2 runs a durable
// store against a tiny WAL-disk budget, small segment rotation, and a
// persistent fs.enospc storm — inserts latch, retry, drain, and re-arm —
// and both phases end with a quiesced replay that must be bit-identical to
// a full-scan reference over base + every admitted row.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/common/resource_governor.h"
#include "src/common/stats.h"
#include "src/core/tsunami.h"
#include "src/durability/durable_store.h"
#include "src/ingest/ingest_store.h"
#include "src/ingest/scrubber.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/query/engine.h"
#include "src/serve/query_service.h"

using namespace tsunami;

// --- Shared by the ingest soaks ----------------------------------------------

// Quiesces an ingest store: joins the background compactor (every publish is
// synchronous from here on), retires the open tail, drains any pending
// reorganization, and folds everything into the sorted store.
static void Quiesce(ingest::IngestStore& store) {
  store.StopBackground();
  store.ForceRoll();
  store.BackgroundTick();
  store.CompactNow();
  store.BackgroundTick();
}

// The quiesced replay each ingest soak ends with: 32 COUNT + SUM(d1) range
// queries (seed 555; the first is the unfiltered count-all) answered by
// `execute` must equal a full scan over `reference_rows`, undegraded.
// Returns how many do not.
static int64_t ReplayMismatches(
    const Dataset& reference_rows,
    const std::function<QueryResult(const Query&)>& execute) {
  FullScanIndex reference(reference_rows);
  int64_t mismatches = 0;
  Rng replay_rng(555);
  for (int i = 0; i < 32; ++i) {
    Query q;
    if (i > 0) {
      const int dim = i % 3;
      Value lo = replay_rng.UniformValue(0, dim == 2 ? 9000 : 990000);
      q.filters.push_back(Predicate{dim, lo, lo + (dim == 2 ? 500 : 30000)});
    }
    q.SetAggregates({{AggKind::kCount, 0}, {AggKind::kSum, 1}});
    QueryResult got = execute(q);
    QueryResult want = reference.Execute(q);
    if (got.agg != want.agg || got.matched != want.matched ||
        got.extra != want.extra || got.degraded) {
      ++mismatches;
    }
  }
  return mismatches;
}

// --- --net: soak the real wire front end over loopback -----------------------
// Storms a TsunamiServer with 1024 simultaneously-open client connections,
// then runs pipelined queries with bounded retry on every one. Under --soak
// (FI builds) the wire fault sites are armed too, and the self-check is the
// same fail-closed predicate as the in-process soak: a query may fail, shed,
// or time out *truthfully*, but a completed, healthy answer must be
// bit-identical to Execute(). Ends with a stalled-reader eviction check and
// a graceful drain that must answer in-flight work while refusing new.
static bool RunNetSoak(TsunamiIndex& index, bool soak) {
  using namespace tsunami::net;
  std::printf("\n--- net soak: tsunami_serverd front end over loopback ---\n");

  ServiceOptions sv;
  sv.max_queued_queries = 256;
  sv.max_inflight_per_client = 32;
  QueryService service(&index, sv);

  ServerOptions so;
  so.listen_backlog = 1024;
  so.max_connections = 2048;
  so.max_inflight_per_conn = 8;
  // Small socket buffers + low watermarks: the stalled-reader check below
  // backs the write path up within a handful of frames.
  so.sndbuf_bytes = 4096;
  so.pause_read_watermark = 16u << 10;
  so.resume_read_watermark = 4u << 10;
  so.write_stall_timeout_seconds = 0.5;
  so.idle_timeout_seconds = 30.0;
  so.drain_timeout_seconds = 10.0;
  TsunamiServer server(&service, so);
  std::string err;
  if (!server.Start(&err)) {
    std::printf("net soak: server start failed: %s\n", err.c_str());
    return false;
  }
  std::thread loop([&] { server.Run(); });

  bool faults_armed = false;
  if (soak) {
#if defined(TSUNAMI_FAULT_INJECTION)
    auto arm = [](const char* site, double p, uint64_t seed) {
      fault::FaultSpec spec;
      spec.probability = p;
      spec.seed = seed;
      fault::Arm(site, spec);
    };
    arm("net.accept_fail", 0.01, 91);
    arm("net.short_write", 0.05, 92);
    arm("net.reset", 0.004, 93);
    arm("net.partial_frame", 0.01, 94);
    arm("sched.task_throw", 0.02, 95);
    arm("storage.checksum", 0.01, 96);
    for (int d = 0; d < index.store().dims(); ++d) {
      index.store().encoded(d).MarkAllUnverified();
    }
    faults_armed = true;
    std::printf("net soak: wire + service faults armed\n");
#else
    std::printf("net soak: no TSUNAMI_FAULT_INJECTION — running fault-free\n");
#endif
  }

  constexpr int kThreads = 8;
  constexpr int kConnsPerThread = 128;  // 1024 concurrent connections.
  constexpr int kQueriesPerConn = 4;
  std::atomic<int64_t> offered{0}, completed{0}, mismatches{0};
  std::atomic<int64_t> failed_closed{0}, degraded{0}, transport_failed{0};
  // Indexed by QueryOutcome; printed with ToString below.
  std::array<std::atomic<int64_t>, 7> outcome_tally{};
  std::barrier sync(kThreads + 1);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng thread_rng(500 + t);
      ClientOptions copts;
      copts.port = server.port();
      copts.rng_seed = 700 + static_cast<uint64_t>(t);
      std::vector<std::unique_ptr<TsunamiClient>> conns;
      conns.reserve(kConnsPerThread);
      for (int i = 0; i < kConnsPerThread; ++i) {
        conns.push_back(std::make_unique<TsunamiClient>(copts));
        conns.back()->Connect();
      }
      sync.arrive_and_wait();  // All 1024 connections are open right now.
      sync.arrive_and_wait();  // Main thread has checked the gauge.
      for (std::unique_ptr<TsunamiClient>& conn : conns) {
        for (int q = 0; q < kQueriesPerConn; ++q) {
          Query needle;
          Value lo = thread_rng.UniformValue(0, 990000);
          needle.filters.push_back(Predicate{0, lo, lo + 4000});
          offered.fetch_add(1, std::memory_order_relaxed);
          ClientResult r = conn->Run(needle, /*priority=*/0,
                                     /*deadline_seconds=*/5.0);
          if (!r.transport_ok) {
            transport_failed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (r.error != WireError::kNone) {
            // Typed refusal (queue full / busy / draining): fail-closed.
            failed_closed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const size_t idx = static_cast<size_t>(r.outcome);
          if (idx < outcome_tally.size()) {
            outcome_tally[idx].fetch_add(1, std::memory_order_relaxed);
          }
          if (r.outcome != QueryOutcome::kCompleted) {
            failed_closed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          QueryResult want = index.Execute(needle);
          if (r.result.degraded || want.degraded) {
            degraded.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          completed.fetch_add(1, std::memory_order_relaxed);
          if (r.result.agg != want.agg ||
              r.result.matched != want.matched ||
              r.result.scanned != want.scanned) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  sync.arrive_and_wait();
  // Every client socket is open; give the accept loop time to chew through
  // the SYN backlog, then verify the server really holds >=1000 at once.
  bool concurrency_ok = false;
  {
    Timer hold;
    while (hold.ElapsedSeconds() < 15.0) {
      if (server.stats().active_connections >= 1000) {
        concurrency_ok = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  std::printf("net soak: concurrent connections peak %lld (want >= 1000)\n",
              static_cast<long long>(server.stats().active_connections));
  sync.arrive_and_wait();
  for (std::thread& th : threads) th.join();

#if defined(TSUNAMI_FAULT_INJECTION)
  if (faults_armed) {
    std::printf(
        "net soak faults: accept_fail=%lld short_write=%lld reset=%lld "
        "partial_frame=%lld chunk_throws=%lld checksum_flips=%lld\n",
        static_cast<long long>(fault::FireCount("net.accept_fail")),
        static_cast<long long>(fault::FireCount("net.short_write")),
        static_cast<long long>(fault::FireCount("net.reset")),
        static_cast<long long>(fault::FireCount("net.partial_frame")),
        static_cast<long long>(fault::FireCount("sched.task_throw")),
        static_cast<long long>(fault::FireCount("storage.checksum")));
    // The stall and drain checks below are deterministic contracts; run
    // them fault-free.
    fault::DisarmAll();
  }
#endif

  // A reader that never reads: ~65 KB of responses against 4KB socket
  // buffers must trip the write-stall timer, not buffer without bound. The
  // empty-range filter keeps execution free; each answer still carries
  // kMaxQueryAggs accumulators, and each query past the in-flight cap is
  // answered with a kClientBusy error frame.
  {
    ClientOptions copts;
    copts.port = server.port();
    copts.rcvbuf_bytes = 4096;
    TsunamiClient stalled(copts);
    const Query wide({Predicate{0, 1, 0}},
                     std::vector<AggregateSpec>(kMaxQueryAggs));
    for (int i = 0; i < 1024; ++i) stalled.Submit(wide);
    Timer timer;
    while (timer.ElapsedSeconds() < 20.0 &&
           server.stats().evicted_stalled < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const bool stall_evicted = server.stats().evicted_stalled >= 1;
  std::printf("net soak: stalled reader %s\n",
              stall_evicted ? "evicted by the stall timer" : "NOT evicted");

  // Graceful drain: park a pipelined burst in flight, issue the
  // SIGTERM-equivalent drain, and verify every in-flight query is answered
  // while new work is refused (typed kDraining or EOF — never a hang).
  int drain_answered = 0;
  bool drain_rejects_new = false;
  {
    ClientOptions copts;
    copts.port = server.port();
    TsunamiClient client(copts);
    Query region;
    region.filters.push_back(Predicate{0, 10000, 990000});
    region.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
    std::vector<uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
      const uint64_t id = client.Submit(region);
      if (id != 0) ids.push_back(id);
    }
    server.RequestDrain();
    for (uint64_t id : ids) {
      ClientResult r;
      if (client.Await(id, &r) && r.error == WireError::kNone &&
          r.outcome == QueryOutcome::kCompleted) {
        ++drain_answered;
      } else if (r.error != WireError::kNone) {
        std::printf("net soak: drain answered %llu with %s\n",
                    static_cast<unsigned long long>(id), ToString(r.error));
      }
    }
    const uint64_t late = client.Submit(region);
    ClientResult r;
    if (late == 0 || !client.Await(late, &r) ||
        r.error == WireError::kDraining) {
      drain_rejects_new = true;
    }
  }  // Client closes here; its EOF lets the drain finish.
  loop.join();

  const ServerStats ss = server.stats();
  std::printf(
      "net soak: %lld offered -> %lld completed-exact, %lld failed closed, "
      "%lld degraded-flagged, %lld transport-failed, %lld MISMATCHES\n",
      static_cast<long long>(offered.load()),
      static_cast<long long>(completed.load()),
      static_cast<long long>(failed_closed.load()),
      static_cast<long long>(degraded.load()),
      static_cast<long long>(transport_failed.load()),
      static_cast<long long>(mismatches.load()));
  for (size_t i = 0; i < outcome_tally.size(); ++i) {
    const int64_t n = outcome_tally[i].load();
    if (n > 0) {
      std::printf("  outcome %-16s %lld\n",
                  ToString(static_cast<QueryOutcome>(i)),
                  static_cast<long long>(n));
    }
  }
  std::printf(
      "net server: accepted=%lld peak=%lld frames_in=%lld results=%lld "
      "errors=%lld evicted_stalled=%lld orphaned=%lld inflight=%lld\n",
      static_cast<long long>(ss.accepted),
      static_cast<long long>(ss.peak_connections),
      static_cast<long long>(ss.frames_in),
      static_cast<long long>(ss.results_sent),
      static_cast<long long>(ss.errors_sent),
      static_cast<long long>(ss.evicted_stalled),
      static_cast<long long>(ss.orphaned_awaited),
      static_cast<long long>(ss.inflight));
  std::printf("net soak: drain answered %d/6 in-flight, %s new work\n",
              drain_answered, drain_rejects_new ? "refused" : "ACCEPTED");

  // Fail-closed floor: without faults every query must complete exactly;
  // under the fault storm a bounded fraction may fail closed, but nothing
  // may lie, leak a ticket, or hang.
  const int64_t floor =
      faults_armed ? offered.load() * 3 / 5 : offered.load();
  const bool ok = mismatches.load() == 0 && completed.load() >= floor &&
                  concurrency_ok && stall_evicted && drain_answered == 6 &&
                  drain_rejects_new && ss.inflight == 0;
  std::printf("net soak: %s\n", ok ? "OK" : "FAILED");
  return ok;
}

// --- --ingest: writers, readers, and reorganization racing ------------------
// The concurrent-ingest soak: a QueryService over an ingest::IngestStore
// whose background compactor runs throughout. Writers append pre-generated
// rows, readers run count-all queries through the service and check the
// *monotone visibility window* — a completed count must land between the
// rows visible before the query was submitted and the rows visible after it
// returned (a torn read or a lost publish lands outside it) — and a chaos
// thread forces rolls, synchronous compactions, and workload
// reorganizations under everything. Under --soak (FI builds) compactions
// abort (`ingest.compact_throw` must fail closed), the publish critical
// section stalls (`ingest.swap_delay`), and scheduler chunks throw
// (`sched.task_throw` — a reader may fail closed, never lie). The epilogue
// quiesces (roll + compact until the delta drains) and replays range
// queries against a FullScanIndex over base + every writer's rows: the
// answers must be bit-identical.
static bool RunIngestSoak(bool soak) {
  using namespace tsunami::ingest;
  std::printf("\n--- ingest soak: writers vs readers vs reorganization ---\n");

  Rng rng(31);
  const int64_t kBaseRows = 60000;
  Dataset data(3, {});
  data.Reserve(kBaseRows);
  for (int64_t i = 0; i < kBaseRows; ++i) {
    Value x = rng.UniformValue(0, 1000000);
    data.AppendRow(
        {x, x + rng.UniformValue(-5000, 5000), rng.UniformValue(0, 10000)});
  }
  Workload workload;
  for (int i = 0; i < 64; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 900000);
    q.filters.push_back(Predicate{0, lo, lo + 50000});
    workload.push_back(q);
  }
  // The reorganization target: the same shape shifted onto dimension 1, so
  // every RequestReorganize below really rebuilds the grid.
  Workload shifted;
  for (int i = 0; i < 64; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 900000);
    q.filters.push_back(Predicate{1, lo, lo + 50000});
    shifted.push_back(q);
  }

  IngestOptions iopt;
  iopt.index.cluster_queries = false;
  // Keep rebuilds cheap: this soak folds dozens of times (and runs under
  // TSan in CI), so cap the optimizer's sampling work per build.
  iopt.index.sample_rows = 20000;
  iopt.index.agd.max_sample_points = 512;
  iopt.index.agd.max_sample_queries = 32;
  iopt.index.agd.max_iters = 2;
  iopt.index.agd.max_cells = 1 << 12;
  iopt.chunk_capacity = 2 * kScanBlockRows;
  iopt.compact_min_chunks = 2;
  iopt.background_compaction = true;
  iopt.compact_poll_ms = 2;
  IngestStore store(data, workload, iopt);
  QueryService service(&store);
  store.AddPublishListener(
      [&service, &store](uint64_t) { service.plan_cache().InvalidateIndex(store); });
  std::printf("ingest soak: store v%llu over %lld base rows, %d workers\n",
              static_cast<unsigned long long>(store.version()),
              static_cast<long long>(kBaseRows),
              service.scheduler().num_threads());

  bool faults_armed = false;
  if (soak) {
#if defined(TSUNAMI_FAULT_INJECTION)
    auto arm = [](const char* site, double p, uint64_t seed, int64_t param) {
      fault::FaultSpec spec;
      spec.probability = p;
      spec.seed = seed;
      spec.param = param;
      fault::Arm(site, spec);
    };
    arm("ingest.compact_throw", 0.30, 41, -1);
    arm("ingest.swap_delay", 0.50, 42, 200);  // 200us inside publish_mu_.
    arm("sched.task_throw", 0.01, 43, -1);
    faults_armed = true;
    std::printf("ingest soak: faults armed (compact_throw, swap_delay, "
                "task_throw)\n");
#else
    std::printf(
        "ingest soak: no TSUNAMI_FAULT_INJECTION — running fault-free\n");
#endif
  }

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kRowsPerWriter = 8000;
  constexpr int kBatchRows = 64;
  // Rows are pre-generated so the epilogue can rebuild base + inserts as
  // the full-scan reference.
  std::vector<std::vector<std::vector<Value>>> writer_rows(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    Rng wrng(900 + static_cast<uint64_t>(w));
    writer_rows[w].reserve(kRowsPerWriter);
    for (int i = 0; i < kRowsPerWriter; ++i) {
      Value x = wrng.UniformValue(0, 1000000);
      writer_rows[w].push_back({x, x + wrng.UniformValue(-5000, 5000),
                                wrng.UniformValue(0, 10000)});
    }
  }

  std::atomic<bool> writers_done{false};
  std::atomic<int64_t> reads_offered{0}, reads_completed{0};
  std::atomic<int64_t> reads_failed_closed{0}, reads_degraded{0};
  std::atomic<int64_t> monotone_violations{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<std::vector<Value>> batch;
      batch.reserve(kBatchRows);
      for (int i = 0; i < kRowsPerWriter; i += kBatchRows) {
        batch.assign(writer_rows[w].begin() + i,
                     writer_rows[w].begin() + i + kBatchRows);
        store.InsertBatch(batch);
        std::this_thread::yield();
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng reader_rng(300 + static_cast<uint64_t>(r));
      // Keep reading a beat past the last insert so the tail rows are
      // queried too.
      while (true) {
        const bool final_pass = writers_done.load(std::memory_order_acquire);
        // Monotone visibility: a count-all submitted now must see at least
        // the rows committed before Submit and at most the rows committed
        // by the time it returned.
        const int64_t before = kBaseRows + store.stats().rows_ingested;
        Query all;
        all.SetAggregates({{AggKind::kCount, 0}});
        reads_offered.fetch_add(1, std::memory_order_relaxed);
        AwaitInfo info;
        QueryResult got = service.Await(service.Submit(all), &info);
        const int64_t after = kBaseRows + store.stats().rows_ingested;
        if (info.outcome != QueryOutcome::kCompleted) {
          reads_failed_closed.fetch_add(1, std::memory_order_relaxed);
        } else if (got.degraded) {
          reads_degraded.fetch_add(1, std::memory_order_relaxed);
        } else {
          reads_completed.fetch_add(1, std::memory_order_relaxed);
          if (got.matched < before || got.matched > after) {
            monotone_violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // A needle range too, exercising plan-cache churn across publishes
        // (fail-closed only: no stable reference exists mid-churn).
        Query needle;
        Value lo = reader_rng.UniformValue(0, 990000);
        needle.filters.push_back(Predicate{0, lo, lo + 4000});
        reads_offered.fetch_add(1, std::memory_order_relaxed);
        QueryResult nr = service.Await(service.Submit(needle), &info);
        if (info.outcome != QueryOutcome::kCompleted) {
          reads_failed_closed.fetch_add(1, std::memory_order_relaxed);
        } else if (nr.degraded) {
          reads_degraded.fetch_add(1, std::memory_order_relaxed);
        } else {
          reads_completed.fetch_add(1, std::memory_order_relaxed);
        }
        if (final_pass) break;
      }
    });
  }
  // The chaos thread: force rolls, synchronous folds, and reorganizations
  // under the readers and writers (the background compactor runs too).
  threads.emplace_back([&] {
    for (int k = 0; !writers_done.load(std::memory_order_acquire); ++k) {
      store.ForceRoll();
      if (k % 3 == 0) store.RequestReorganize(k % 6 == 0 ? shifted : workload);
      if (k % 5 == 4) store.CompactNow();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Join writers (the first kWriters threads), then release the readers
  // and the chaos thread for their final pass.
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  IngestStore::Stats mid = store.stats();
  std::printf(
      "ingest soak: %lld rows ingested, %lld rolls, %lld sealed, "
      "%lld compactions (%lld failed closed), %lld reorgs\n",
      static_cast<long long>(mid.rows_ingested),
      static_cast<long long>(mid.chunk_rolls),
      static_cast<long long>(mid.chunks_sealed),
      static_cast<long long>(mid.compactions),
      static_cast<long long>(mid.failed_compactions),
      static_cast<long long>(mid.reorgs));
  std::printf(
      "ingest soak: %lld reads -> %lld completed, %lld failed closed, "
      "%lld degraded, %lld MONOTONE VIOLATIONS\n",
      static_cast<long long>(reads_offered.load()),
      static_cast<long long>(reads_completed.load()),
      static_cast<long long>(reads_failed_closed.load()),
      static_cast<long long>(reads_degraded.load()),
      static_cast<long long>(monotone_violations.load()));
#if defined(TSUNAMI_FAULT_INJECTION)
  if (faults_armed) {
    std::printf(
        "ingest soak faults: compact_throw=%lld swap_delay=%lld "
        "task_throw=%lld\n",
        static_cast<long long>(fault::FireCount("ingest.compact_throw")),
        static_cast<long long>(fault::FireCount("ingest.swap_delay")),
        static_cast<long long>(fault::FireCount("sched.task_throw")));
    // The quiesced replay below is a deterministic contract; run it
    // fault-free.
    fault::DisarmAll();
  }
#endif

  // After the quiesce no publish can happen again, so the service
  // (destroyed before the store) cannot be called back.
  Quiesce(store);
  IngestStore::Stats quiesced = store.stats();

  // The reference: base rows + every writer's rows, answered by full scan.
  Dataset full = data;
  full.Reserve(kBaseRows + int64_t{kWriters} * kRowsPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (const std::vector<Value>& row : writer_rows[w]) full.AppendRow(row);
  }
  const int64_t replay_mismatches = ReplayMismatches(
      full, [&](const Query& q) { return service.Run(q); });
  std::printf(
      "ingest soak: quiesced store v%llu (%lld sorted rows, %lld delta), "
      "%lld/32 replay mismatches\n",
      static_cast<unsigned long long>(quiesced.version),
      static_cast<long long>(quiesced.store_rows),
      static_cast<long long>(quiesced.delta_rows),
      static_cast<long long>(replay_mismatches));

  // Fail-closed floor: fault-free every read completes; under the fault
  // storm a bounded fraction may fail closed, but nothing may lie.
  const int64_t floor =
      faults_armed ? reads_offered.load() * 3 / 5 : reads_offered.load();
  const bool ok =
      monotone_violations.load() == 0 && replay_mismatches == 0 &&
      reads_completed.load() >= floor &&
      mid.rows_ingested == int64_t{kWriters} * kRowsPerWriter &&
      quiesced.delta_rows == 0 && quiesced.compactions >= 1;
  std::printf("ingest soak: %s\n", ok ? "OK" : "FAILED");
  return ok;
}

// --- --durable: kill -9 crash recovery ---------------------------------------
// The durability contract under the bluntest possible crash. Batch k of the
// insert sequence is a pure function of k, so any process — the child that
// inserted it or the parent that recovers the directory — can regenerate it.
namespace durable_soak {

constexpr int64_t kBaseRows = 20000;
constexpr int kBatchRows = 32;

static Dataset BaseData() {
  Rng rng(31);
  Dataset data(3, {});
  data.Reserve(kBaseRows);
  for (int64_t i = 0; i < kBaseRows; ++i) {
    Value x = rng.UniformValue(0, 1000000);
    data.AppendRow(
        {x, x + rng.UniformValue(-5000, 5000), rng.UniformValue(0, 10000)});
  }
  return data;
}

static Workload BaseWorkload() {
  Rng rng(32);
  Workload workload;
  for (int i = 0; i < 64; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 900000);
    q.filters.push_back(Predicate{0, lo, lo + 50000});
    workload.push_back(q);
  }
  return workload;
}

/// Batch `index` of the deterministic insert sequence.
static std::vector<std::vector<Value>> BatchRows(int64_t index) {
  Rng rng(7000 + static_cast<uint64_t>(index));
  std::vector<std::vector<Value>> rows;
  rows.reserve(kBatchRows);
  for (int i = 0; i < kBatchRows; ++i) {
    Value x = rng.UniformValue(0, 1000000);
    rows.push_back(
        {x, x + rng.UniformValue(-5000, 5000), rng.UniformValue(0, 10000)});
  }
  return rows;
}

static durability::DurabilityOptions StoreOptions(const std::string& dir) {
  durability::DurabilityOptions o;
  o.dir = dir;
  o.ingest.index.cluster_queries = false;
  o.ingest.index.sample_rows = 20000;
  o.ingest.index.agd.max_sample_points = 512;
  o.ingest.index.agd.max_sample_queries = 32;
  o.ingest.index.agd.max_iters = 2;
  o.ingest.index.agd.max_cells = 1 << 12;
  o.ingest.chunk_capacity = 2 * kScanBlockRows;
  o.ingest.compact_min_chunks = 2;
  // Folds (and therefore checkpoints + WAL truncations) race the inserts
  // and the SIGKILL throughout.
  o.ingest.background_compaction = true;
  o.ingest.compact_poll_ms = 2;
  return o;
}

/// Child body: open (recover), then insert deterministic batches forever,
/// appending each batch index to the ack file only after its durable ack.
/// Runs until SIGKILLed; never returns.
[[noreturn]] static void RunChild(const std::string& dir, bool soak) {
  std::string error;
  std::unique_ptr<durability::DurableIngestStore> store =
      durability::DurableIngestStore::Open(BaseData(), BaseWorkload(),
                                           StoreOptions(dir), &error);
  if (store == nullptr) {
    std::fprintf(stderr, "durable soak child: open failed: %s\n",
                 error.c_str());
    _exit(3);
  }
  if (soak) {
#if defined(TSUNAMI_FAULT_INJECTION)
    // Armed only after Open so the bootstrap/recovery itself is clean. A
    // fired WAL fault fails the log closed: the child stops acking (the
    // parent's contract only covers acked batches); a checkpoint throw is
    // swallowed and retried at the next fold.
    auto arm = [](const char* site, double p, uint64_t seed) {
      fault::FaultSpec spec;
      spec.probability = p;
      spec.seed = seed;
      fault::Arm(site, spec);
    };
    arm("durability.checkpoint_throw", 0.30, 61);
    arm("wal.torn_write", 0.0005, 62);
    arm("wal.fsync_fail", 0.0005, 63);
    // Injected disk-full hits latch the store recoverably: acks fail
    // closed (the parent's contract only covers *acked* batches) and the
    // retry loop below drives the checkpoint-drain re-arm — so the kill
    // can also land mid-latch or mid-re-arm.
    arm("fs.enospc", 0.0005, 64);
#endif
  }
  const int ack_fd = ::open((dir + "/acks.log").c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0) _exit(4);
  // Recovered rows are always batch-aligned (verified by the parent), so
  // the resume point is exact.
  int64_t batch = store->next_ordinal() / kBatchRows;
  while (true) {
    const durability::InsertResult r = store->TryInsertBatch(BatchRows(batch));
    if (r == durability::InsertResult::kResourceExhausted) {
      // Disk-full latch (injected fs.enospc): nothing was applied or
      // logged, so the retry is safe — and each retry is what drives the
      // drain-and-re-arm checkpoint.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (r != durability::InsertResult::kOk) break;  // Log failed closed.
    // The ack record goes to the OS *after* the WAL fsync: a SIGKILL can
    // lose an insert that was never acked, never the reverse.
    char line[32];
    const int n = std::snprintf(line, sizeof(line), "%lld\n",
                                static_cast<long long>(batch));
    if (::write(ack_fd, line, static_cast<size_t>(n)) != n) _exit(5);
    ++batch;
  }
  // WAL failed closed (injected fault): stop acking and await the kill.
  while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
}

}  // namespace durable_soak

static bool RunDurableSoak(bool soak) {
  using namespace durable_soak;
  std::printf("\n--- durable soak: kill -9, recover, verify acked inserts ---\n");
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("tsunami_durable_soak_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const Dataset base = BaseData();
  const Workload workload = BaseWorkload();
  constexpr int kCycles = 3;
  bool ok = true;
  int64_t prev_acked = 0;

  for (int cycle = 0; cycle < kCycles && ok; ++cycle) {
    const pid_t child = ::fork();
    if (child < 0) {
      std::printf("durable soak: fork failed\n");
      return false;
    }
    if (child == 0) RunChild(dir, soak);  // Never returns.

    // Wait for the child to make progress past recovery, then kill it at an
    // arbitrary point mid-ingest — mid-group-commit, mid-checkpoint,
    // wherever it happens to be.
    const std::string ack_path = dir + "/acks.log";
    auto count_acks = [&ack_path] {
      std::ifstream in(ack_path);
      int64_t n = 0;
      std::string line;
      while (std::getline(in, line)) ++n;
      return n;
    };
    Timer wait;
    while (wait.ElapsedSeconds() < 120.0 && count_acks() < prev_acked + 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20 + 35 * cycle));
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      // The child died on its own (open failure, ack-file failure) — that
      // is a soak failure, not a crash we injected.
      std::printf("durable soak: child exited abnormally (status %d)\n",
                  status);
      ok = false;
      break;
    }

    // Parse the ack file: every index the child acked, in order.
    int64_t acked = 0, max_acked = -1;
    {
      std::ifstream in(ack_path);
      std::string line;
      while (std::getline(in, line)) {
        max_acked = std::atoll(line.c_str());
        ++acked;
      }
    }
    prev_acked = acked;

    // Recover in-process and verify the contract.
    std::string error;
    std::unique_ptr<durability::DurableIngestStore> store =
        durability::DurableIngestStore::Open(base, workload,
                                             StoreOptions(dir), &error);
    if (store == nullptr) {
      std::printf("durable soak: recovery failed: %s\n", error.c_str());
      ok = false;
      break;
    }
    const durability::RecoveryInfo& rec = store->recovery();
    const int64_t rows = store->next_ordinal();
    // WAL records are whole batches, so recovery lands on a batch boundary.
    const int64_t batches = rows / kBatchRows;
    if (rows % kBatchRows != 0) {
      std::printf("durable soak: recovered %lld rows — not batch-aligned\n",
                  static_cast<long long>(rows));
      ok = false;
    }
    // Zero acked inserts lost: every acked batch index is below the
    // recovered prefix length.
    if (max_acked >= batches) {
      std::printf(
          "durable soak: ACKED BATCH LOST — acked up to %lld, recovered "
          "only %lld batches\n",
          static_cast<long long>(max_acked),
          static_cast<long long>(batches));
      ok = false;
    }

    // No unacked row double-applied and nothing corrupted: the recovered
    // store must answer exactly like a full scan over base + the recovered
    // prefix of the deterministic batch sequence. Quiesce first so the
    // comparison is stable. The replay's unfiltered count-all is the
    // exact-prefix check.
    Quiesce(store->store());

    Dataset full = base;
    full.Reserve(kBaseRows + rows);
    for (int64_t b = 0; b < batches; ++b) {
      for (const std::vector<Value>& row : BatchRows(b)) full.AppendRow(row);
    }
    const int64_t mismatches = ReplayMismatches(
        full, [&](const Query& q) { return store->store().Execute(q); });
    if (mismatches > 0) ok = false;

    std::printf(
        "durable soak cycle %d: killed mid-ingest after %lld acks; "
        "recovered %lld batches (%lld rows, checkpoint v%llu + %lld "
        "replayed%s) in %.3fs, %lld/32 replay mismatches\n",
        cycle, static_cast<long long>(acked),
        static_cast<long long>(batches), static_cast<long long>(rows),
        static_cast<unsigned long long>(rec.checkpoint_version),
        static_cast<long long>(rec.replayed_rows),
        rec.wal_tail_status != FileError::kNone ? ", torn tail tolerated"
                                                : "",
        rec.seconds, static_cast<long long>(mismatches));
    // Close cleanly; the next cycle's child resumes from this state.
  }

  if (ok) std::filesystem::remove_all(dir);  // Keep the wreckage on failure.
  std::printf("durable soak: %s\n", ok ? "OK" : "FAILED");
  return ok;
}

// --- --pressure: serve correctly while every resource budget pushes back -----
// Two phases, both ending in a quiesced replay that must be bit-identical to
// a full-scan reference over base + every admitted row.
//
// Phase 1 (memory): writer threads push through TryInsertBatch against a
// delta-backlog budget far smaller than their appetite, so admission control
// — not luck — paces them; a Scrubber sweeps checksums under the churn
// (with scrub.corrupt_block rotting blocks on FI builds, repaired in place);
// readers verify the monotone-visibility contract throughout.
//
// Phase 2 (disk): a DurableIngestStore with a tiny WAL-disk budget, small
// segment rotation, and (on FI builds) a persistent fs.enospc storm across
// all four filesystem sites. Writers retry kResourceExhausted refusals —
// each retry drives the drain-and-re-arm checkpoint — and tolerate
// fail-closed kNotDurable acks; a final sentinel insert must land kOk,
// proving the store re-armed itself after the storm.
static bool RunPressureSoak(bool soak) {
  using namespace tsunami::ingest;
  std::printf(
      "\n--- pressure soak: budgets, disk-full latches, scrub repair ---\n");
  bool ok = true;

  // ---- Phase 1: memory backpressure + scrubber under ingest churn ----------
  {
    Rng rng(91);
    const int64_t kBaseRows = 30000;
    Dataset data(3, {});
    data.Reserve(kBaseRows);
    for (int64_t i = 0; i < kBaseRows; ++i) {
      Value x = rng.UniformValue(0, 1000000);
      data.AppendRow(
          {x, x + rng.UniformValue(-5000, 5000), rng.UniformValue(0, 10000)});
    }
    Workload workload;
    for (int i = 0; i < 64; ++i) {
      Query q;
      Value lo = rng.UniformValue(0, 900000);
      q.filters.push_back(Predicate{0, lo, lo + 50000});
      workload.push_back(q);
    }

    // The budget is ~2 chunks of delta: writers can outrun the compactor
    // for only milliseconds before admission control paces them.
    ResourceGovernor::Budgets budgets;
    budgets.delta_backlog_bytes = 48 << 10;
    budgets.sealed_chunk_bytes = 1 << 20;
    ResourceGovernor governor(budgets);

    IngestOptions iopt;
    iopt.index.cluster_queries = false;
    iopt.index.sample_rows = 20000;
    iopt.index.agd.max_sample_points = 512;
    iopt.index.agd.max_sample_queries = 32;
    iopt.index.agd.max_iters = 2;
    iopt.index.agd.max_cells = 1 << 12;
    iopt.chunk_capacity = kScanBlockRows;  // Seals fit inside the budget.
    iopt.compact_min_chunks = 1;
    iopt.background_compaction = true;
    iopt.compact_poll_ms = 2;
    iopt.governor = &governor;
    IngestStore store(data, workload, iopt);

    ScrubberOptions sopts;
    sopts.poll_ms = 1;
    sopts.blocks_per_slice = 256;
    sopts.repair = true;
    Scrubber scrubber(&store, sopts);
    scrubber.Start();

    bool faults_armed = false;
    if (soak) {
#if defined(TSUNAMI_FAULT_INJECTION)
      auto arm = [](const char* site, double p, uint64_t seed, int64_t match) {
        fault::FaultSpec spec;
        spec.probability = p;
        spec.seed = seed;
        spec.match_arg = match;
        fault::Arm(site, spec);
      };
      arm("gov.mem_pressure", 0.05, 72,
          static_cast<int64_t>(ResourcePool::kDeltaBacklog));
      arm("scrub.corrupt_block", 0.005, 73, -1);
      faults_armed = true;
      std::printf(
          "pressure soak: faults armed (gov.mem_pressure, "
          "scrub.corrupt_block)\n");
#else
      std::printf(
          "pressure soak: no TSUNAMI_FAULT_INJECTION — budgets only\n");
#endif
    }

    constexpr int kWriters = 3;
    constexpr int kBatches = 78;
    constexpr int kBatchRows = 64;
    std::vector<std::vector<std::vector<Value>>> writer_rows(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      Rng wrng(910 + static_cast<uint64_t>(w));
      writer_rows[w].reserve(int64_t{kBatches} * kBatchRows);
      for (int i = 0; i < kBatches * kBatchRows; ++i) {
        Value x = wrng.UniformValue(0, 1000000);
        writer_rows[w].push_back({x, x + wrng.UniformValue(-5000, 5000),
                                  wrng.UniformValue(0, 10000)});
      }
    }

    std::atomic<bool> writers_done{false};
    std::atomic<bool> writer_stuck{false};
    std::atomic<int64_t> retries{0};
    std::atomic<int64_t> monotone_violations{0};
    std::atomic<int64_t> reads{0}, reads_degraded{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        std::vector<std::vector<Value>> batch;
        for (int b = 0; b < kBatches; ++b) {
          batch.assign(writer_rows[w].begin() + int64_t{b} * kBatchRows,
                       writer_rows[w].begin() + int64_t{b + 1} * kBatchRows);
          int attempts = 0;
          while (store.TryInsertBatch(batch) != InsertAdmit::kOk) {
            retries.fetch_add(1, std::memory_order_relaxed);
            // The refusal means the backlog is over budget: seal the open
            // chunk so the compactor can fold (and so release) it, then
            // wait out the fold instead of spinning.
            if (++attempts % 4 == 1) store.ForceRoll();
            if (attempts > 20000) {
              writer_stuck.store(true, std::memory_order_release);
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      });
    }
    threads.emplace_back([&] {
      // Reader: the monotone-visibility contract must hold no matter how
      // hard admission control and the scrubber are working.
      while (!writers_done.load(std::memory_order_acquire)) {
        const int64_t before = kBaseRows + store.stats().rows_ingested;
        Query all;
        all.SetAggregates({{AggKind::kCount, 0}});
        QueryResult got = store.Execute(all);
        const int64_t after = kBaseRows + store.stats().rows_ingested;
        reads.fetch_add(1, std::memory_order_relaxed);
        if (got.degraded) {
          // A scrub-quarantined block: truthfully flagged, value excused.
          reads_degraded.fetch_add(1, std::memory_order_relaxed);
        } else if (got.matched < before || got.matched > after) {
          monotone_violations.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
    writers_done.store(true, std::memory_order_release);
    threads.back().join();

#if defined(TSUNAMI_FAULT_INJECTION)
    const int64_t mem_fires = fault::FireCount("gov.mem_pressure");
    const int64_t rot_fires = fault::FireCount("scrub.corrupt_block");
    if (faults_armed) fault::DisarmAll();
#else
    const int64_t mem_fires = 0, rot_fires = 0;
    (void)faults_armed;
#endif

    // Sentinel fold: guarantees the quiesce below publishes a fresh store,
    // so any block still quarantined from the rot storm is rebuilt clean.
    Rng srng(919);
    std::vector<std::vector<Value>> sentinel;
    for (int i = 0; i < kBatchRows; ++i) {
      Value x = srng.UniformValue(0, 1000000);
      sentinel.push_back({x, x + srng.UniformValue(-5000, 5000),
                          srng.UniformValue(0, 10000)});
    }
    store.InsertBatch(sentinel);

    scrubber.Stop();
    Quiesce(store);

    const ResourceGovernor::Stats gstats = governor.stats();
    const auto& delta_pool =
        gstats.pools[static_cast<size_t>(ResourcePool::kDeltaBacklog)];
    const Scrubber::Stats sstats = scrubber.stats();
    std::printf(
        "pressure soak (mem): %lld retries (%lld pool rejections, peak "
        "%lld/%lld bytes), %lld reads (%lld degraded), %lld MONOTONE "
        "VIOLATIONS\n",
        static_cast<long long>(retries.load()),
        static_cast<long long>(delta_pool.rejections),
        static_cast<long long>(delta_pool.peak),
        static_cast<long long>(delta_pool.budget),
        static_cast<long long>(reads.load()),
        static_cast<long long>(reads_degraded.load()),
        static_cast<long long>(monotone_violations.load()));
    std::printf(
        "pressure soak (mem): scrubber %lld sweeps / %lld blocks, %lld "
        "corruptions found, %lld repaired (faults: mem=%lld rot=%lld)\n",
        static_cast<long long>(sstats.sweeps),
        static_cast<long long>(sstats.blocks_scrubbed),
        static_cast<long long>(sstats.corruptions_found),
        static_cast<long long>(sstats.blocks_repaired),
        static_cast<long long>(mem_fires), static_cast<long long>(rot_fires));

    // Replay: base + every writer row + the sentinel, bit-identical.
    Dataset full = data;
    full.Reserve(kBaseRows + int64_t{kWriters} * kBatches * kBatchRows +
                 kBatchRows);
    for (int w = 0; w < kWriters; ++w) {
      for (const std::vector<Value>& row : writer_rows[w]) full.AppendRow(row);
    }
    for (const std::vector<Value>& row : sentinel) full.AppendRow(row);
    const int64_t mismatches = ReplayMismatches(
        full, [&](const Query& q) { return store.Execute(q); });
    const int64_t quarantined = store.store().QuarantinedBlocks();
    std::printf(
        "pressure soak (mem): quiesced delta=%lld used=%lld quarantined=%lld, "
        "%lld/32 replay mismatches\n",
        static_cast<long long>(store.stats().delta_rows),
        static_cast<long long>(governor.used(ResourcePool::kDeltaBacklog)),
        static_cast<long long>(quarantined),
        static_cast<long long>(mismatches));
    const bool phase_ok = !writer_stuck.load() && mismatches == 0 &&
                          monotone_violations.load() == 0 &&
                          delta_pool.rejections > 0 && quarantined == 0 &&
                          governor.used(ResourcePool::kDeltaBacklog) == 0;
    std::printf("pressure soak (mem): %s\n", phase_ok ? "OK" : "FAILED");
    ok = ok && phase_ok;
  }

  // ---- Phase 2: WAL-disk budget + fs.enospc storm on the durable store -----
  {
    using namespace durable_soak;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("tsunami_pressure_soak_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    ResourceGovernor::Budgets budgets;
    budgets.wal_disk_bytes = 16 << 10;  // A fraction of one fold's backlog.
    ResourceGovernor governor(budgets);

    durability::DurabilityOptions dopt = StoreOptions(dir);
    dopt.max_segment_bytes = 4096;       // Checkpoints reclaim in small steps.
    dopt.wal_commit_delay_micros = 500;  // Coalesce acks under the storm.
    dopt.rearm_backoff_millis = 1;
    dopt.ingest.governor = &governor;
    std::string error;
    std::unique_ptr<durability::DurableIngestStore> store =
        durability::DurableIngestStore::Open(BaseData(), BaseWorkload(), dopt,
                                             &error);
    if (store == nullptr) {
      std::printf("pressure soak (disk): open failed: %s\n", error.c_str());
      return false;
    }

    bool faults_armed = false;
    if (soak) {
#if defined(TSUNAMI_FAULT_INJECTION)
      // One armed site, all four filesystem surfaces (match_arg = -1): WAL
      // writes and fsyncs latch recoverably, checkpoint renames spend the
      // reserve, manifest writes fail that checkpoint closed.
      fault::FaultSpec spec;
      spec.probability = 0.04;
      spec.seed = 81;
      fault::Arm("fs.enospc", spec);
      faults_armed = true;
      std::printf("pressure soak: fs.enospc armed on all four sites\n");
#endif
    }

    constexpr int kWriters = 2;
    constexpr int kBatchesPerWriter = 120;
    std::atomic<bool> writer_failed{false};
    std::atomic<int64_t> acked{0}, not_durable{0}, retries{0};
    std::atomic<int64_t> monotone_violations{0};
    std::atomic<bool> writers_done{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int b = 0; b < kBatchesPerWriter && !writer_failed.load(); ++b) {
          const int64_t index = int64_t{w} * kBatchesPerWriter + b;
          const std::vector<std::vector<Value>> rows = BatchRows(index);
          int attempts = 0;
          for (;;) {
            const durability::InsertResult r = store->TryInsertBatch(rows);
            if (r == durability::InsertResult::kOk) {
              acked.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            if (r == durability::InsertResult::kNotDurable) {
              // Applied but the ack failed closed mid-storm: NOT retryable
              // (a retry would double-apply); the replay still expects it.
              not_durable.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            if (r == durability::InsertResult::kRejected) {
              writer_failed.store(true, std::memory_order_release);
              return;  // Permanent write-death must never happen here.
            }
            // kResourceExhausted: retryable by contract. Periodically force
            // a checkpoint so the WAL-budget path (which has no automatic
            // re-arm — only latches do) gets its segments reclaimed.
            retries.fetch_add(1, std::memory_order_relaxed);
            if (++attempts % 8 == 1) {
              store->store().ForceRoll();
              store->CheckpointNow();
            }
            if (attempts > 20000) {
              writer_failed.store(true, std::memory_order_release);
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      });
    }
    threads.emplace_back([&] {
      while (!writers_done.load(std::memory_order_acquire)) {
        const int64_t before = kBaseRows + store->store().stats().rows_ingested;
        Query all;
        all.SetAggregates({{AggKind::kCount, 0}});
        QueryResult got = store->store().Execute(all);
        const int64_t after = kBaseRows + store->store().stats().rows_ingested;
        if (!got.degraded && (got.matched < before || got.matched > after)) {
          monotone_violations.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
    writers_done.store(true, std::memory_order_release);
    threads.back().join();

#if defined(TSUNAMI_FAULT_INJECTION)
    const int64_t enospc_fires = fault::FireCount("fs.enospc");
    if (faults_armed) fault::DisarmAll();
#else
    const int64_t enospc_fires = 0;
    (void)faults_armed;
#endif

    // The storm is over: one sentinel batch must land a durable kOk,
    // proving the store re-armed itself (no restart, no operator).
    const int64_t sentinel_index = int64_t{kWriters} * kBatchesPerWriter;
    bool rearmed = false;
    {
      Timer deadline;
      while (deadline.ElapsedSeconds() < 60.0) {
        const durability::InsertResult r =
            store->TryInsertBatch(BatchRows(sentinel_index));
        if (r == durability::InsertResult::kOk) {
          rearmed = true;
          break;
        }
        if (r != durability::InsertResult::kResourceExhausted) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    Quiesce(store->store());

    const durability::DurableIngestStore::Stats dstats = store->stats();
    std::printf(
        "pressure soak (disk): %lld acked + %lld fail-closed of %lld "
        "batches, %lld retries (%lld pool rejections), %lld enospc fires\n",
        static_cast<long long>(acked.load()),
        static_cast<long long>(not_durable.load()),
        static_cast<long long>(int64_t{kWriters} * kBatchesPerWriter),
        static_cast<long long>(retries.load()),
        static_cast<long long>(dstats.resource_rejections),
        static_cast<long long>(enospc_fires));
    std::printf(
        "pressure soak (disk): %lld latches / %lld rearms, %lld reserve "
        "drops, %lld size rotations, %lld checkpoint failures, %lld delayed "
        "commits, sentinel %s\n",
        static_cast<long long>(dstats.enospc_latches),
        static_cast<long long>(dstats.rearms),
        static_cast<long long>(dstats.reserve_drops),
        static_cast<long long>(dstats.size_rotations),
        static_cast<long long>(dstats.checkpoint_failures),
        static_cast<long long>(dstats.wal.delayed_commits),
        rearmed ? "re-armed" : "STUCK");

    // Replay: base + every batch (acked *and* fail-closed — all applied)
    // + the sentinel, bit-identical to the full scan.
    Dataset full = BaseData();
    const int64_t total_batches = int64_t{kWriters} * kBatchesPerWriter + 1;
    full.Reserve(kBaseRows + total_batches * durable_soak::kBatchRows);
    for (int64_t b = 0; b <= sentinel_index; ++b) {
      for (const std::vector<Value>& row : BatchRows(b)) full.AppendRow(row);
    }
    const int64_t mismatches = ReplayMismatches(
        full, [&](const Query& q) { return store->store().Execute(q); });
    std::printf("pressure soak (disk): %lld/32 replay mismatches\n",
                static_cast<long long>(mismatches));
    const bool all_applied =
        acked.load() + not_durable.load() ==
        int64_t{kWriters} * kBatchesPerWriter;
    const bool phase_ok = !writer_failed.load() && all_applied && rearmed &&
                          mismatches == 0 && monotone_violations.load() == 0 &&
                          dstats.resource_rejections > 0;
    std::printf("pressure soak (disk): %s\n", phase_ok ? "OK" : "FAILED");
    ok = ok && phase_ok;
    store.reset();
    if (ok) std::filesystem::remove_all(dir);
  }

  std::printf("pressure soak: %s\n", ok ? "OK" : "FAILED");
  return ok;
}

int main(int argc, char** argv) {
  bool soak = false;
  bool net = false;
  bool ingest = false;
  bool durable = false;
  bool pressure = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--soak") == 0) soak = true;
    if (std::strcmp(argv[i], "--net") == 0) net = true;
    if (std::strcmp(argv[i], "--ingest") == 0) ingest = true;
    if (std::strcmp(argv[i], "--durable") == 0) durable = true;
    if (std::strcmp(argv[i], "--pressure") == 0) pressure = true;
  }
  if (pressure) {
    const bool ok = RunPressureSoak(soak);
    std::printf("%s\n", ok ? "OK: pressure soak held its invariants"
                           : "FAILED: pressure soak violated an invariant");
    return ok ? 0 : 1;
  }
  if (durable) {
    // The kill/recover soak owns its own store and directory lifecycle.
    const bool ok = RunDurableSoak(soak);
    std::printf("%s\n", ok ? "OK: durable soak held its invariants"
                           : "FAILED: durable soak violated an invariant");
    return ok ? 0 : 1;
  }
  if (ingest) {
    // The concurrent-ingest soak replaces the static-index soak entirely:
    // it builds (and continuously rebuilds) its own store.
    const bool ok = RunIngestSoak(soak);
    std::printf("%s\n", ok ? "OK: ingest soak held its invariants"
                           : "FAILED: ingest soak violated an invariant");
    return ok ? 0 : 1;
  }
  Rng rng(11);
  const int64_t n = 200000;
  Dataset data(3, {});
  data.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    Value x = rng.UniformValue(0, 1000000);
    data.AppendRow(
        {x, x + rng.UniformValue(-5000, 5000), rng.UniformValue(0, 10000)});
  }
  Workload workload;
  for (int i = 0; i < 256; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 900000);
    q.filters.push_back(Predicate{0, lo, lo + 50000});
    q.type = i % 2;
    workload.push_back(q);
  }
  TsunamiOptions options;
  options.cluster_queries = false;
  TsunamiIndex index(data, workload, options);
  std::printf("built %s over %lld rows\n", index.Name().c_str(),
              static_cast<long long>(data.size()));

  QueryService service(&index);  // Hardware threads, 1024-plan cache.
  std::printf("service up: %d workers\n", service.scheduler().num_threads());

  if (soak) {
#if defined(TSUNAMI_FAULT_INJECTION)
    // Storm the serving path: ~5% of chunks throw, and lazily re-verified
    // blocks occasionally fail their checksum check and go quarantined.
    fault::FaultSpec throw_spec;
    throw_spec.probability = 0.05;
    throw_spec.seed = 2024;
    fault::Arm("sched.task_throw", throw_spec);
    fault::FaultSpec checksum_spec;
    checksum_spec.probability = 0.02;
    checksum_spec.seed = 2025;
    fault::Arm("storage.checksum", checksum_spec);
    for (int d = 0; d < index.store().dims(); ++d) {
      index.store().encoded(d).MarkAllUnverified();
    }
    std::printf("soak: faults armed (sched.task_throw, storage.checksum)\n");
#else
    std::printf(
        "soak: built without TSUNAMI_FAULT_INJECTION — no faults to arm, "
        "running the relaxed-predicate soak fault-free\n");
#endif
  }

  TableSchema schema;
  schema.table_name = "t";
  schema.columns = {"a", "b", "c"};

  // --- Soak: dashboard SQL clients + skewed-batch analyst clients ----------
  // Under --soak only the batch clients run: the SQL path has no outcome
  // channel, so a fault-failed statement would be indistinguishable from a
  // wrong answer; the batch path reports per-query outcomes to relax on.
  const int kSqlClients = soak ? 0 : 3;
  const int kBatchClients = soak ? 4 : 2;
  const int kRounds = 24;
  std::atomic<int64_t> sql_checked{0}, sql_mismatches{0};
  std::atomic<int64_t> batch_checked{0}, batch_mismatches{0};
  std::atomic<int64_t> batch_failed{0}, batch_degraded{0};
  Timer timer;

  std::vector<std::thread> clients;
  for (int t = 0; t < kSqlClients; ++t) {
    clients.emplace_back([&, t] {
      // Each dashboard refreshes the same handful of templated statements
      // with recurring constants — the plan cache's bread and butter.
      QueryEngine engine(&index, schema);
      engine.AttachService(&service);
      std::vector<std::string> sqls = {
          "SELECT COUNT(*) FROM t WHERE a < " + std::to_string(300000 + t),
          "SELECT SUM(b), COUNT(*) FROM t WHERE a BETWEEN 100000 AND 600000",
          "SELECT MAX(c) FROM t WHERE c >= 2500",
      };
      QueryEngine check(&index, schema);  // Unattached reference.
      for (int round = 0; round < kRounds; ++round) {
        for (const std::string& sql : sqls) {
          PreparedStatement stmt = engine.Prepare(sql);
          ExecContext ctx;
          SqlResult got = engine.RunPrepared(stmt, ctx);
          SqlResult want = check.Run(sql);
          sql_checked.fetch_add(1, std::memory_order_relaxed);
          if (!got.ok || got.value != want.value ||
              got.stats.matched != want.stats.matched) {
            sql_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int t = 0; t < kBatchClients; ++t) {
    clients.emplace_back([&, t] {
      Rng client_rng(77 + t);
      for (int round = 0; round < kRounds; ++round) {
        // One giant region query buried among needles.
        Workload batch;
        for (int i = 0; i < 15; ++i) {
          Query q;
          Value lo = client_rng.UniformValue(0, 990000);
          q.filters.push_back(Predicate{0, lo, lo + 4000});
          batch.push_back(q);
        }
        Query region;
        region.filters.push_back(Predicate{0, 10000, 990000});
        region.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
        batch.insert(batch.begin() + 7, region);
        std::vector<QueryService::Admission> tickets =
            service.SubmitBatch(std::span<const Query>(batch));
        for (size_t i = 0; i < batch.size(); ++i) {
          AwaitInfo info;
          QueryResult got = service.Await(tickets[i], &info);
          batch_checked.fetch_add(1, std::memory_order_relaxed);
          if (info.outcome != QueryOutcome::kCompleted) {
            // Fail-closed is acceptable under the soak's injected faults;
            // without faults every query must complete.
            if (soak) {
              batch_failed.fetch_add(1, std::memory_order_relaxed);
            } else {
              batch_mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            continue;
          }
          QueryResult want = index.Execute(batch[i]);
          if (soak && (got.degraded || want.degraded)) {
            // A quarantined block makes both sides flagged-incomplete (and
            // the quarantine set can evolve between the two executions);
            // the contract checked here is the *flag*, not the value.
            batch_degraded.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (got.agg != want.agg || got.matched != want.matched ||
              got.scanned != want.scanned) {
            batch_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  double soak_seconds = timer.ElapsedSeconds();

  std::printf(
      "soak: %lld SQL runs (%lld mismatches), %lld batch queries "
      "(%lld mismatches) in %.2fs\n",
      static_cast<long long>(sql_checked.load()),
      static_cast<long long>(sql_mismatches.load()),
      static_cast<long long>(batch_checked.load()),
      static_cast<long long>(batch_mismatches.load()), soak_seconds);
  if (soak) {
#if defined(TSUNAMI_FAULT_INJECTION)
    std::printf(
        "soak faults: %lld chunks thrown, %lld checksum flips -> %lld "
        "queries failed closed, %lld degraded-flagged, %lld blocks "
        "quarantined\n",
        static_cast<long long>(fault::FireCount("sched.task_throw")),
        static_cast<long long>(fault::FireCount("storage.checksum")),
        static_cast<long long>(batch_failed.load()),
        static_cast<long long>(batch_degraded.load()),
        static_cast<long long>(index.store().QuarantinedBlocks()));
    fault::DisarmAll();
#else
    std::printf("soak: %lld failed closed, %lld degraded-flagged\n",
                static_cast<long long>(batch_failed.load()),
                static_cast<long long>(batch_degraded.load()));
#endif
  }

  // --- Deadlines: a giant scan cancelled mid-flight -------------------------
  Query region;
  region.filters.push_back(Predicate{0, 0, 1000000});
  SubmitOptions strict;
  strict.deadline_seconds = 1e-7;
  bool cancelled = false;
  QueryResult cut = service.Run(region, strict, &cancelled);
  std::printf("1e-7s deadline on a full-region query: %s (agg=%lld)\n",
              cancelled ? "cancelled, identity result" : "finished",
              static_cast<long long>(cut.agg));

  ServiceStats stats = service.stats();
  std::printf(
      "service stats: submitted=%lld completed=%lld cancelled=%lld "
      "timed_out=%lld failed=%lld\n"
      "  plan cache: %lld hits / %lld misses (%.0f%% hit rate, %lld "
      "entries)\n"
      "  scheduler: %lld chunks, %lld steals, queue depth %lld\n",
      static_cast<long long>(stats.submitted),
      static_cast<long long>(stats.completed),
      static_cast<long long>(stats.cancelled),
      static_cast<long long>(stats.timed_out),
      static_cast<long long>(stats.failed),
      static_cast<long long>(stats.cache.hits),
      static_cast<long long>(stats.cache.misses),
      100.0 * stats.cache.HitRate(),
      static_cast<long long>(stats.cache.size),
      static_cast<long long>(stats.scheduler.chunks),
      static_cast<long long>(stats.scheduler.steals),
      static_cast<long long>(stats.queue_depth));

  // --- --net: the same soak over the real wire front end --------------------
  bool net_ok = true;
  if (net) net_ok = RunNetSoak(index, soak);

  const bool ok =
      sql_mismatches.load() == 0 && batch_mismatches.load() == 0 && net_ok;
  std::printf("%s\n", ok ? "OK: service results bit-identical to Execute"
                         : "FAILED: mismatches detected");
  return ok ? 0 : 1;
}
