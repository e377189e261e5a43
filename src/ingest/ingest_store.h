// IngestStore: a Tsunami index that ingests concurrently and re-organizes
// without ever blocking readers.
//
// Layout: an immutable sorted TsunamiIndex plus a list of columnar delta
// chunks, published together as a ColumnStoreSnapshot behind an atomically
// swapped shared_ptr (src/ingest/snapshot.h). The three mutation paths all
// publish *new* versions — no query-visible state is ever mutated in place:
//
//   * Writers (Insert) append to the open tail chunk under a writer mutex;
//     a full chunk is retired by publishing a snapshot with a fresh tail
//     ("chunk roll"). Readers see new rows via the chunk's release/acquire
//     committed counter — no lock on the read path.
//   * The background Compactor (or CompactNow) seals retired chunks with
//     the block codecs, folds them into a rebuilt sorted index (the §8
//     incremental constructor — built entirely off to the side), and
//     publishes the result. A workload reorganization (RequestReorganize,
//     or the embedded WorkloadMonitor firing) is the same fold with a new
//     target workload: the grid rebuild rides the identical swap.
//   * RepairQuarantined heals checksum-quarantined fold-origin blocks on a
//     *copy* of the index (TsunamiIndex::RepairedCopy) and publishes the
//     healed copy — a reader pinned on the old version never observes a
//     half-repaired block.
//
// Queries pin one snapshot in Prepare (QueryPlan::pin holds it until the
// plan dies); plans, zone maps, grid, and quarantine state all resolve
// against the pinned version. A superseded version is freed when its last
// holder drops it. StoreVersion() lets the plan cache drop plans bound to
// superseded versions.
//
// Fault sites (TSUNAMI_FAULT_INJECTION builds): `ingest.compact_throw`
// aborts a compaction after the fold set is chosen — the build fails closed
// and the old snapshot keeps serving; `ingest.swap_delay` stalls inside the
// publish critical section (param = microseconds, default 1000) to widen
// the roll/compact race window for the TSan soaks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/index.h"
#include "src/common/resource_governor.h"
#include "src/common/types.h"
#include "src/core/tsunami.h"
#include "src/core/workload_monitor.h"
#include "src/ingest/delta_chunk.h"
#include "src/ingest/snapshot.h"

namespace tsunami {
namespace ingest {

class Compactor;

struct IngestOptions {
  /// Options for the sorted index (initial build and every fold/reorg).
  TsunamiOptions index;
  /// Rows per delta chunk. A full chunk is retired (snapshot roll) and
  /// becomes a seal + fold candidate.
  int64_t chunk_capacity = 4 * kScanBlockRows;
  /// Re-encode retired chunks through the block codecs once they span at
  /// least this many blocks; 0 disables sealing (chunks scan raw forever).
  int64_t encode_min_blocks = 2;
  /// Retired chunks that trigger a background fold into the sorted index.
  int64_t compact_min_chunks = 2;
  /// Run the background Compactor thread (seal + fold + reorg). When off,
  /// CompactNow / ForceRoll drive everything synchronously.
  bool background_compaction = true;
  /// Compactor poll interval.
  int compact_poll_ms = 20;
  /// Nice value for the background Compactor thread (Linux; ignored
  /// elsewhere and when 0). Maintenance must yield CPU to serving traffic:
  /// on a loaded or small host an un-niced fold competes with query workers
  /// and shows up directly in serving p99. The fold still makes progress —
  /// it just soaks up idle cycles instead of contending for busy ones.
  int background_nice = 10;
  /// Feed observed queries to a WorkloadMonitor and reorganize
  /// automatically when it fires. Observation uses a try-lock: a contended
  /// reader skips it rather than wait.
  bool monitor_workload = false;
  WorkloadMonitorOptions monitor;
  /// Borrowed resource governor (must outlive the store; null = ungoverned).
  /// The store charges the delta-backlog pool per committed row and the
  /// sealed-chunks pool per sealed chunk, releasing both when a fold
  /// consumes them. TryInsert/TryInsertBatch enforce the delta budget;
  /// the unconditional Insert/InsertBatch only account.
  ResourceGovernor* governor = nullptr;
};

/// Typed admission result for the backpressured write paths.
enum class InsertAdmit : uint8_t {
  kOk = 0,
  /// The governor's delta-backlog budget (or an injected gov.mem_pressure)
  /// refused the bytes. Nothing was applied — safely retryable once the
  /// compactor folds the backlog below budget.
  kResourceExhausted = 1,
};

class IngestStore : public MultiDimIndex {
 public:
  struct Stats {
    int64_t rows_ingested = 0;
    int64_t chunk_rolls = 0;
    int64_t chunks_sealed = 0;
    int64_t compactions = 0;       // Successful folds (incl. reorgs).
    int64_t failed_compactions = 0;
    int64_t reorgs = 0;            // Folds that retargeted the workload.
    int64_t repairs_published = 0;
    int64_t delta_rows = 0;        // Committed rows not yet folded.
    int64_t store_rows = 0;        // Rows in the current sorted index.
    uint64_t version = 0;
  };

  IngestStore(const Dataset& data, const Workload& workload,
              const IngestOptions& options = IngestOptions());
  /// Recovery constructor: adopts an already-built index (e.g. loaded from a
  /// durable checkpoint) as version `initial_version` instead of building
  /// one from a Dataset. The durability layer replays its WAL tail into the
  /// store through the normal insert path, then calls StartBackground().
  IngestStore(std::shared_ptr<const TsunamiIndex> index,
              const Workload& workload, const IngestOptions& options,
              uint64_t initial_version);
  ~IngestStore() override;
  IngestStore(const IngestStore&) = delete;
  IngestStore& operator=(const IngestStore&) = delete;

  // --- MultiDimIndex (reads resolve against a pinned snapshot) ---
  std::string Name() const override { return name_; }
  QueryResult Execute(const Query& query) const override;
  QueryPlan Prepare(const Query& query) const override;
  QueryResult ExecutePlan(const QueryPlan& plan,
                          ExecContext& ctx) const override;
  void FinishPlan(const QueryPlan& plan, QueryResult* result) const override;
  /// The snapshot the plan pinned: its store is what the tasks address.
  const MultiDimIndex& PlanTarget(const QueryPlan& plan) const override;
  uint64_t StoreVersion() const override { return snapshots_.version(); }
  int64_t IndexSizeBytes() const override;
  /// The *current* snapshot's store — stable only until the next fold or
  /// reorg publishes. Concurrent readers must hold a snapshot
  /// (CurrentSnapshot / Prepare) instead.
  const ColumnStore& store() const override;

  // --- Writers ---
  /// Appends one row (one value per dimension). Thread-safe (serialized by
  /// the writer mutex); visible to readers on return.
  void Insert(const std::vector<Value>& row);
  /// Appends a batch of rows under one writer-lock acquisition; returns
  /// rows appended.
  int64_t InsertBatch(const std::vector<std::vector<Value>>& rows);
  /// Governed variants: charge the delta-backlog pool *before* appending
  /// and return kResourceExhausted — applying nothing — when the budget
  /// (or an injected gov.mem_pressure) refuses. With no governor they
  /// behave exactly like Insert/InsertBatch.
  InsertAdmit TryInsert(const std::vector<Value>& row);
  InsertAdmit TryInsertBatch(const std::vector<std::vector<Value>>& rows);
  /// Retires a non-empty open chunk so every ingested row becomes a fold
  /// candidate (CompactNow() after ForceRoll() drains the delta entirely).
  void ForceRoll();

  // --- Reorganization / maintenance ---
  /// Re-optimizes for `workload` off to the side and swaps the result in.
  /// Asynchronous when the background compactor runs (returns after
  /// queueing); otherwise compacts synchronously before returning.
  void RequestReorganize(const Workload& workload);
  /// Synchronous fold of every retired chunk into the sorted index
  /// (re-optimizing for `workload` when non-null). Returns the store
  /// version afterwards — unchanged when there was nothing to do or the
  /// build failed closed.
  uint64_t CompactNow(const Workload* workload = nullptr);
  /// Publishes a version with quarantined fold-origin blocks healed (see
  /// TsunamiIndex::RepairedCopy). Returns blocks repaired.
  int64_t RepairQuarantined();
  /// Feeds one query to the workload monitor (no-op unless
  /// options.monitor_workload). Execute/Prepare call this themselves.
  void Observe(const Query& query) const;

  // --- Introspection ---
  std::shared_ptr<const ColumnStoreSnapshot> CurrentSnapshot() const {
    return snapshots_.Current();
  }
  uint64_t version() const { return snapshots_.version(); }
  int64_t rows() const { return snapshots_.Current()->TotalRows(); }
  Stats stats() const;
  /// Registers a callback invoked (outside all store locks) with the new
  /// version after every publish — e.g. PlanCache::InvalidateIndex, so
  /// cached plans stop pinning a superseded snapshot promptly.
  void AddPublishListener(std::function<void(uint64_t)> listener);

  /// Called under compact_mu_ after every successful fold publish (never for
  /// chunk rolls or repairs), with the newly published index, its version,
  /// and the number of delta rows this fold consumed. Because writers append
  /// in chunk-id order and a fold always consumes every retired chunk, the
  /// rows a fold eats are a strict *prefix* of ingestion order — the hook's
  /// cumulative row count is therefore an exact replay cursor for WAL
  /// truncation. Exceptions are swallowed (a failed checkpoint must never
  /// unpublish); the hook does its own fail-closed bookkeeping.
  using FoldHook =
      std::function<void(const std::shared_ptr<const TsunamiIndex>& index,
                         uint64_t version, int64_t rows_folded)>;
  /// Installs the fold hook. Call before any fold can run (i.e. before
  /// StartBackground() when constructed with background compaction off).
  void SetFoldHook(FoldHook hook);

  /// Starts the background Compactor if it is not already running — even
  /// when the options said `background_compaction = false`. The durability
  /// layer constructs the store quiet, replays the WAL, installs the fold
  /// hook, then starts maintenance here. Not thread-safe against concurrent
  /// writers; call during single-threaded setup.
  void StartBackground();

  /// One background-maintenance step: seals eligible retired chunks, then
  /// folds / reorganizes when thresholds or requests call for it. The
  /// Compactor calls this in its loop; synchronous callers may too.
  void BackgroundTick();

  /// Stops and joins the background Compactor (idempotent; no-op when
  /// background compaction is off). An in-flight fold finishes — and
  /// publishes, notifying listeners — before this returns. Call it before
  /// anything a publish listener references dies: the store must outlive a
  /// QueryService that queries it, so the service (declared later) is
  /// destroyed *first*, while the compactor could otherwise still publish
  /// into its plan cache.
  void StopBackground();

 private:
  void InsertLocked(const Value* row);
  void RollLocked();  // write_mu_ held; publishes a fresh open tail.
  // The fold + publish engine behind CompactNow/BackgroundTick. compact_mu_
  // serializes callers; the index build runs outside every other lock.
  uint64_t CompactOnce(const Workload* reorg_workload);
  void NotifyListeners(uint64_t version);
  int64_t RetiredChunks() const;
  /// Raw bytes one committed row occupies in a delta chunk (the unit the
  /// governor's delta-backlog pool is charged in).
  int64_t RowBytes() const {
    return static_cast<int64_t>(dims_) *
           static_cast<int64_t>(sizeof(Value));
  }

  std::string name_;
  IngestOptions options_;
  int dims_ = 0;

  // Lock order: write_mu_ -> publish_mu_; compact_mu_ -> publish_mu_.
  // publish_mu_ serializes every snapshot swap; compact_mu_ serializes the
  // heavy fold/repair sections; neither is ever taken on a read path.
  mutable std::mutex write_mu_;
  mutable std::mutex publish_mu_;
  mutable std::mutex compact_mu_;

  // Declared before snapshots_ so the constructor can seed the initial
  // snapshot with the open tail chunk.
  std::shared_ptr<DeltaChunk> open_chunk_;  // write_mu_
  uint64_t next_chunk_id_ = 1;              // write_mu_
  SnapshotStore snapshots_;

  std::mutex workload_mu_;
  Workload workload_;  // The workload the current index is optimized for.
  std::mutex reorg_mu_;
  std::optional<Workload> pending_reorg_;

  // Monitor state (try-lock from read paths).
  mutable std::mutex monitor_mu_;
  mutable std::unique_ptr<WorkloadMonitor> monitor_;
  mutable std::deque<Query> recent_queries_;

  std::mutex listeners_mu_;
  std::vector<std::function<void(uint64_t)>> listeners_;

  // Set once during single-threaded setup (SetFoldHook), read under
  // compact_mu_ by CompactOnce.
  FoldHook fold_hook_;

  // Counted under write_mu_ with each commit; stats() reads it there too.
  int64_t rows_ingested_ = 0;  // write_mu_
  mutable std::atomic<int64_t> chunk_rolls_{0};
  mutable std::atomic<int64_t> chunks_sealed_{0};
  mutable std::atomic<int64_t> compactions_{0};
  mutable std::atomic<int64_t> failed_compactions_{0};
  mutable std::atomic<int64_t> reorgs_{0};
  mutable std::atomic<int64_t> repairs_published_{0};

  // Last member: joined (and therefore quiet) before anything above dies.
  std::unique_ptr<Compactor> compactor_;
};

// The background maintenance thread: periodically (and when kicked) runs
// IngestStore::BackgroundTick. Separate from the store so tests can drive
// ticks synchronously without a thread.
class Compactor {
 public:
  Compactor(IngestStore* store, int poll_ms, int nice_value = 0);
  ~Compactor();
  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  void Start();
  void Stop();  // Idempotent; joins the thread.
  void Kick();  // Wakes the loop immediately (reorg requests, full chunks).
  int64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  IngestStore* store_;
  int poll_ms_;
  int nice_value_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool kicked_ = false;
  std::atomic<int64_t> ticks_{0};
  std::thread thread_;
};

}  // namespace ingest
}  // namespace tsunami
