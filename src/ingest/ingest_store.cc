#include "src/ingest/ingest_store.h"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/common/workload_stats.h"

namespace tsunami {
namespace ingest {

namespace {

// `ingest.swap_delay`: stall inside the publish critical section to widen
// the window in which readers race a swap (param = microseconds).
void MaybeDelaySwap([[maybe_unused]] uint64_t version) {
  if (TSUNAMI_FAULT_FIRES("ingest.swap_delay", static_cast<int64_t>(version))) {
    const int64_t us = fault::Param("ingest.swap_delay");
    std::this_thread::sleep_for(
        std::chrono::microseconds(us > 0 ? us : 1000));
  }
}

}  // namespace

IngestStore::IngestStore(const Dataset& data, const Workload& workload,
                         const IngestOptions& options)
    : name_(options.index.name + "+ingest"),
      options_(options),
      dims_(data.dims()),
      open_chunk_(std::make_shared<DeltaChunk>(
          data.dims(), options.chunk_capacity, /*id=*/1)),
      next_chunk_id_(2),
      snapshots_(std::make_shared<const ColumnStoreSnapshot>(
          /*version=*/1,
          std::make_shared<const TsunamiIndex>(data, workload, options.index),
          std::vector<std::shared_ptr<const DeltaChunk>>{open_chunk_})),
      workload_(workload) {
  if (options_.monitor_workload) {
    Rng rng(options_.index.agd.seed);
    monitor_ = std::make_unique<WorkloadMonitor>(
        SampleDataset(data, options_.index.sample_rows, &rng), workload,
        options_.monitor);
  }
  if (options_.background_compaction) StartBackground();
}

IngestStore::IngestStore(std::shared_ptr<const TsunamiIndex> index,
                         const Workload& workload,
                         const IngestOptions& options,
                         uint64_t initial_version)
    : name_(options.index.name + "+ingest"),
      options_(options),
      dims_(index->store().dims()),
      open_chunk_(std::make_shared<DeltaChunk>(
          index->store().dims(), options.chunk_capacity, /*id=*/1)),
      next_chunk_id_(2),
      snapshots_(std::make_shared<const ColumnStoreSnapshot>(
          initial_version, index,
          std::vector<std::shared_ptr<const DeltaChunk>>{open_chunk_})),
      workload_(workload) {
  if (options_.monitor_workload) {
    Rng rng(options_.index.agd.seed);
    Dataset data = index->MaterializeData();
    monitor_ = std::make_unique<WorkloadMonitor>(
        SampleDataset(data, options_.index.sample_rows, &rng), workload,
        options_.monitor);
  }
  if (options_.background_compaction) StartBackground();
}

IngestStore::~IngestStore() { StopBackground(); }

void IngestStore::SetFoldHook(FoldHook hook) { fold_hook_ = std::move(hook); }

void IngestStore::StartBackground() {
  if (compactor_ != nullptr) return;
  compactor_ = std::make_unique<Compactor>(this, options_.compact_poll_ms,
                                           options_.background_nice);
  compactor_->Start();
}

void IngestStore::StopBackground() {
  if (compactor_ != nullptr) compactor_->Stop();
}

// --- Reads -----------------------------------------------------------------

QueryResult IngestStore::Execute(const Query& query) const {
  Observe(query);
  return snapshots_.Current()->Execute(query);
}

QueryPlan IngestStore::Prepare(const Query& query) const {
  Observe(query);
  std::shared_ptr<const ColumnStoreSnapshot> snap = snapshots_.Current();
  QueryPlan plan = snap->Prepare(query);
  // The plan owns the pin: the snapshot stays alive until the last copy of
  // the plan dies.
  plan.pin = std::move(snap);
  return plan;
}

const MultiDimIndex& IngestStore::PlanTarget(const QueryPlan& plan) const {
  if (plan.pin != nullptr) {
    return *static_cast<const ColumnStoreSnapshot*>(plan.pin.get());
  }
  return *this;
}

QueryResult IngestStore::ExecutePlan(const QueryPlan& plan,
                                     ExecContext& ctx) const {
  // The base implementation scans this->store(), which tracks the *newest*
  // snapshot — a pinned plan must scan the version its tasks address.
  if (plan.pin != nullptr) return PlanTarget(plan).ExecutePlan(plan, ctx);
  return Execute(plan.query);
}

void IngestStore::FinishPlan(const QueryPlan& plan,
                             QueryResult* result) const {
  if (plan.pin != nullptr) PlanTarget(plan).FinishPlan(plan, result);
}

int64_t IngestStore::IndexSizeBytes() const {
  return snapshots_.Current()->IndexSizeBytes();
}

const ColumnStore& IngestStore::store() const {
  return snapshots_.Current()->store();
}

void IngestStore::Observe(const Query& query) const {
  if (monitor_ == nullptr) return;
  std::unique_lock<std::mutex> lock(monitor_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // Never stall a read path on observation.
  monitor_->Observe(query);
  recent_queries_.push_back(query);
  const size_t cap = static_cast<size_t>(options_.monitor.window) * 2;
  while (recent_queries_.size() > cap) recent_queries_.pop_front();
}

// --- Writers ---------------------------------------------------------------

void IngestStore::Insert(const std::vector<Value>& row) {
  assert(static_cast<int>(row.size()) == dims_);
  if (options_.governor != nullptr) {
    options_.governor->Charge(ResourcePool::kDeltaBacklog, RowBytes());
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  InsertLocked(row.data());
}

int64_t IngestStore::InsertBatch(const std::vector<std::vector<Value>>& rows) {
  if (options_.governor != nullptr) {
    options_.governor->Charge(ResourcePool::kDeltaBacklog,
                              static_cast<int64_t>(rows.size()) * RowBytes());
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  for (const std::vector<Value>& row : rows) {
    assert(static_cast<int>(row.size()) == dims_);
    InsertLocked(row.data());
  }
  return static_cast<int64_t>(rows.size());
}

InsertAdmit IngestStore::TryInsert(const std::vector<Value>& row) {
  return TryInsertBatch({row});
}

InsertAdmit IngestStore::TryInsertBatch(
    const std::vector<std::vector<Value>>& rows) {
  if (rows.empty()) return InsertAdmit::kOk;
  const int64_t bytes = static_cast<int64_t>(rows.size()) * RowBytes();
  // Backpressure is decided *before* the writer lock and before any append:
  // a refused batch touched nothing, so the caller can retry verbatim once
  // the compactor folds the backlog down (kick it so that happens soon).
  if (options_.governor != nullptr &&
      !options_.governor->TryCharge(ResourcePool::kDeltaBacklog, bytes)) {
    if (compactor_ != nullptr) compactor_->Kick();
    return InsertAdmit::kResourceExhausted;
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  for (const std::vector<Value>& row : rows) {
    assert(static_cast<int>(row.size()) == dims_);
    InsertLocked(row.data());
  }
  return InsertAdmit::kOk;
}

void IngestStore::InsertLocked(const Value* row) {
  if (!open_chunk_->Append(row)) {
    RollLocked();
    const bool ok = open_chunk_->Append(row);
    assert(ok);
    (void)ok;
  }
  ++rows_ingested_;
}

void IngestStore::ForceRoll() {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (open_chunk_->committed() == 0) return;
  RollLocked();
}

void IngestStore::RollLocked() {
  auto fresh = std::make_shared<DeltaChunk>(dims_, options_.chunk_capacity,
                                            next_chunk_id_++);
  uint64_t published;
  {
    std::lock_guard<std::mutex> pub(publish_mu_);
    auto cur = snapshots_.Current();
    std::vector<std::shared_ptr<const DeltaChunk>> chunks = cur->chunks();
    chunks.push_back(fresh);
    auto next = std::make_shared<const ColumnStoreSnapshot>(
        cur->version() + 1, cur->index_ptr(), std::move(chunks));
    published = next->version();
    MaybeDelaySwap(published);
    snapshots_.Publish(std::move(next));
  }
  open_chunk_ = std::move(fresh);
  chunk_rolls_.fetch_add(1, std::memory_order_relaxed);
  NotifyListeners(published);
  if (compactor_ != nullptr) compactor_->Kick();
}

// --- Maintenance -----------------------------------------------------------

void IngestStore::RequestReorganize(const Workload& workload) {
  {
    std::lock_guard<std::mutex> lock(reorg_mu_);
    pending_reorg_ = workload;
  }
  if (compactor_ != nullptr) {
    compactor_->Kick();
  } else {
    BackgroundTick();
  }
}

uint64_t IngestStore::CompactNow(const Workload* workload) {
  return CompactOnce(workload);
}

void IngestStore::BackgroundTick() {
  auto cur = snapshots_.Current();
  // Seal retired full chunks past the block threshold so long-lived deltas
  // scan encoded blocks instead of raw rows.
  if (options_.encode_min_blocks > 0 &&
      options_.chunk_capacity >= options_.encode_min_blocks * kScanBlockRows) {
    for (const auto& chunk : cur->chunks()) {
      if (chunk->full() && !chunk->sealed()) {
        chunk->Seal();
        chunks_sealed_.fetch_add(1, std::memory_order_relaxed);
        if (options_.governor != nullptr) {
          // A sealed chunk holds its encoded payload alongside the raw
          // rows until a fold consumes it; track that residency.
          options_.governor->Charge(ResourcePool::kSealedChunks,
                                    chunk->MemoryBytes());
        }
      }
    }
  }
  std::optional<Workload> reorg;
  {
    std::lock_guard<std::mutex> lock(reorg_mu_);
    reorg.swap(pending_reorg_);
  }
  if (!reorg.has_value() && monitor_ != nullptr) {
    std::unique_lock<std::mutex> lock(monitor_mu_, std::try_to_lock);
    if (lock.owns_lock() && monitor_->ShouldReoptimize()) {
      reorg.emplace(recent_queries_.begin(), recent_queries_.end());
      monitor_->Reset();
    }
  }
  if (reorg.has_value()) {
    CompactOnce(&*reorg);
    return;
  }
  if (RetiredChunks() >= options_.compact_min_chunks) CompactOnce(nullptr);
}

int64_t IngestStore::RetiredChunks() const {
  auto cur = snapshots_.Current();
  uint64_t open_id;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    open_id = open_chunk_->id();
  }
  int64_t retired = 0;
  for (const auto& chunk : cur->chunks()) {
    if (chunk->id() < open_id) ++retired;
  }
  return retired;
}

uint64_t IngestStore::CompactOnce(const Workload* reorg_workload) {
  std::lock_guard<std::mutex> heavy(compact_mu_);
  // Retired chunks (everything but the open tail) have final committed
  // counts — only the open chunk ever receives appends. `base` and the
  // open id are captured together under the writer lock, which every roll
  // holds: otherwise two rolls in between would put a retired chunk in the
  // publish-time list below `open_id` but outside `base`, and the publish
  // would drop it unfolded.
  std::shared_ptr<const ColumnStoreSnapshot> base;
  uint64_t open_id;
  {
    std::lock_guard<std::mutex> w(write_mu_);
    base = snapshots_.Current();
    open_id = open_chunk_->id();
  }
  std::vector<std::shared_ptr<const DeltaChunk>> fold;
  for (const auto& chunk : base->chunks()) {
    if (chunk->id() < open_id) fold.push_back(chunk);
  }
  if (fold.empty() && reorg_workload == nullptr) return snapshots_.version();
  try {
    if (TSUNAMI_FAULT_FIRES("ingest.compact_throw",
                            static_cast<int64_t>(base->version()))) {
      throw std::runtime_error("injected: ingest.compact_throw");
    }
    Dataset extra(dims_, {});
    int64_t extra_rows = 0;
    for (const auto& chunk : fold) extra_rows += chunk->committed();
    extra.Reserve(extra_rows);
    for (const auto& chunk : fold) {
      chunk->AppendRowsTo(&extra, chunk->committed());
    }
    Workload target;
    {
      std::lock_guard<std::mutex> lock(workload_mu_);
      target = reorg_workload != nullptr ? *reorg_workload : workload_;
    }
    // The heavy part — cluster, optimize, re-sort, re-encode — runs with no
    // store lock held; readers and writers proceed against the old version.
    auto merged = std::make_shared<const TsunamiIndex>(
        base->index(), extra, target, options_.index);
    uint64_t published;
    {
      std::lock_guard<std::mutex> pub(publish_mu_);
      auto cur = snapshots_.Current();
      // The chunk list may have grown (rolls) since `base`; keep everything
      // we did not fold.
      std::vector<std::shared_ptr<const DeltaChunk>> remaining;
      for (const auto& chunk : cur->chunks()) {
        if (chunk->id() >= open_id) remaining.push_back(chunk);
      }
      auto next = std::make_shared<const ColumnStoreSnapshot>(
          cur->version() + 1, merged, std::move(remaining));
      published = next->version();
      MaybeDelaySwap(published);
      snapshots_.Publish(std::move(next));
    }
    if (reorg_workload != nullptr) {
      std::lock_guard<std::mutex> lock(workload_mu_);
      workload_ = *reorg_workload;
      reorgs_.fetch_add(1, std::memory_order_relaxed);
    }
    compactions_.fetch_add(1, std::memory_order_relaxed);
    if (options_.governor != nullptr) {
      // The fold consumed these rows out of the delta backlog (and any
      // sealed payloads riding with them); give the bytes back so
      // backpressured writers unblock.
      options_.governor->Release(ResourcePool::kDeltaBacklog,
                                 extra_rows * RowBytes());
      for (const auto& chunk : fold) {
        if (chunk->sealed()) {
          options_.governor->Release(ResourcePool::kSealedChunks,
                                     chunk->MemoryBytes());
        }
      }
    }
    NotifyListeners(published);
    if (fold_hook_) {
      // Checkpoint opportunity (still under compact_mu_, after publish). A
      // throwing hook must never unpublish or fail the fold: the hook's own
      // layer retains its WAL and retries at the next fold.
      try {
        fold_hook_(merged, published, extra_rows);
      } catch (const std::exception&) {
      }
    }
    return published;
  } catch (const std::exception&) {
    // Fail closed: the old snapshot keeps serving; the chunks stay queued
    // for the next attempt.
    failed_compactions_.fetch_add(1, std::memory_order_relaxed);
    return snapshots_.version();
  }
}

int64_t IngestStore::RepairQuarantined() {
  std::lock_guard<std::mutex> heavy(compact_mu_);
  auto base = snapshots_.Current();
  if (base->index().store().QuarantinedBlocks() == 0) return 0;
  int64_t healed = 0;
  std::shared_ptr<const TsunamiIndex> repaired(
      base->index().RepairedCopy(&healed));
  if (healed == 0) return 0;
  uint64_t published;
  {
    std::lock_guard<std::mutex> pub(publish_mu_);
    auto cur = snapshots_.Current();
    // compact_mu_ is held, so cur's index is still `base`'s — only the
    // chunk list can have grown.
    auto next = std::make_shared<const ColumnStoreSnapshot>(
        cur->version() + 1, std::move(repaired), cur->chunks());
    published = next->version();
    MaybeDelaySwap(published);
    snapshots_.Publish(std::move(next));
  }
  repairs_published_.fetch_add(1, std::memory_order_relaxed);
  NotifyListeners(published);
  return healed;
}

// --- Introspection ---------------------------------------------------------

IngestStore::Stats IngestStore::stats() const {
  Stats s;
  {
    // Writers commit and count under this lock, so the count is exactly the
    // rows visible at this instant. Callers must hold no lock that writers
    // take after write_mu_ (publish_mu_, the snapshot and listener locks).
    std::lock_guard<std::mutex> lock(write_mu_);
    s.rows_ingested = rows_ingested_;
  }
  s.chunk_rolls = chunk_rolls_.load(std::memory_order_relaxed);
  s.chunks_sealed = chunks_sealed_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.failed_compactions =
      failed_compactions_.load(std::memory_order_relaxed);
  s.reorgs = reorgs_.load(std::memory_order_relaxed);
  s.repairs_published = repairs_published_.load(std::memory_order_relaxed);
  auto cur = snapshots_.Current();
  s.delta_rows = cur->ChunkRows();
  s.store_rows = cur->index().store().size();
  s.version = cur->version();
  return s;
}

void IngestStore::AddPublishListener(std::function<void(uint64_t)> listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.push_back(std::move(listener));
}

void IngestStore::NotifyListeners(uint64_t version) {
  std::vector<std::function<void(uint64_t)>> listeners;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    listeners = listeners_;
  }
  for (const auto& listener : listeners) listener(version);
}

// --- Compactor -------------------------------------------------------------

Compactor::Compactor(IngestStore* store, int poll_ms, int nice_value)
    : store_(store),
      poll_ms_(poll_ms > 0 ? poll_ms : 1),
      nice_value_(nice_value) {}

Compactor::~Compactor() { Stop(); }

void Compactor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void Compactor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Compactor::Kick() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    kicked_ = true;
  }
  cv_.notify_all();
}

void Compactor::Loop() {
#if defined(__linux__)
  // Per-thread on Linux: deprioritize maintenance (and any build helpers it
  // spawns, which inherit the value) relative to query workers. Failure is
  // ignored — priority is an optimization, never a correctness requirement.
  if (nice_value_ != 0) {
    setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)),
                nice_value_);
  }
#else
  (void)nice_value_;
#endif
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(poll_ms_),
                   [this] { return stop_ || kicked_; });
      if (stop_) return;
      kicked_ = false;
    }
    try {
      store_->BackgroundTick();
    } catch (const std::exception&) {
      // CompactOnce fails closed internally; anything else (allocation
      // failure during sealing) is dropped — the next tick retries.
    }
    ticks_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace ingest
}  // namespace tsunami
