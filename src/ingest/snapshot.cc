#include "src/ingest/snapshot.h"

#include <cassert>
#include <utility>

namespace tsunami {
namespace ingest {

ColumnStoreSnapshot::ColumnStoreSnapshot(
    uint64_t version, std::shared_ptr<const TsunamiIndex> index,
    std::vector<std::shared_ptr<const DeltaChunk>> chunks)
    : version_(version), index_(std::move(index)), chunks_(std::move(chunks)) {
  assert(index_ != nullptr);
}

int64_t ColumnStoreSnapshot::ChunkRows() const {
  int64_t rows = 0;
  for (const auto& chunk : chunks_) rows += chunk->committed();
  return rows;
}

std::string ColumnStoreSnapshot::Name() const { return index_->Name(); }

QueryResult ColumnStoreSnapshot::Execute(const Query& query) const {
  QueryResult result = index_->Execute(query);
  for (const auto& chunk : chunks_) chunk->Scan(query, &result);
  return result;
}

QueryPlan ColumnStoreSnapshot::Prepare(const Query& query) const {
  QueryPlan plan = index_->Prepare(query);
  plan.store_version = version_;
  return plan;
}

void ColumnStoreSnapshot::FinishPlan(const QueryPlan& plan,
                                     QueryResult* result) const {
  for (const auto& chunk : chunks_) chunk->Scan(plan.query, result);
}

int64_t ColumnStoreSnapshot::IndexSizeBytes() const {
  int64_t bytes = index_->IndexSizeBytes();
  for (const auto& chunk : chunks_) bytes += chunk->MemoryBytes();
  return bytes;
}

SnapshotStore::SnapshotStore(
    std::shared_ptr<const ColumnStoreSnapshot> initial)
    : version_(initial->version()), current_(std::move(initial)) {}

std::shared_ptr<const ColumnStoreSnapshot> SnapshotStore::Current() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

std::shared_ptr<const ColumnStoreSnapshot> SnapshotStore::Pin() const {
  // Pin the epoch *before* loading the pointer: a publisher swaps the
  // pointer before retiring, so whatever version this load observes cannot
  // have been retired at an epoch newer than ours — the epoch manager keeps
  // it un-reclaimed until we unpin (and the shared_ptr keeps the memory
  // safe regardless).
  struct PinHolder {
    std::shared_ptr<const ColumnStoreSnapshot> snap;
    EpochManager* epochs;
    uint64_t epoch;
    ~PinHolder() { epochs->Unpin(epoch); }
  };
  auto holder = std::make_shared<PinHolder>();
  holder->epochs = &epochs_;
  holder->epoch = epochs_.Pin();
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    holder->snap = current_;
  }
  // Aliasing: the returned pointer addresses the snapshot but owns the
  // holder, so dropping the last copy unpins the epoch.
  const ColumnStoreSnapshot* snap = holder->snap.get();
  return std::shared_ptr<const ColumnStoreSnapshot>(std::move(holder), snap);
}

void SnapshotStore::Publish(std::shared_ptr<const ColumnStoreSnapshot> next) {
  assert(next->version() > version());
  version_.store(next->version(), std::memory_order_release);
  std::shared_ptr<const ColumnStoreSnapshot> old;
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    old = std::move(current_);
    current_ = std::move(next);
  }
  // Retire the superseded version: the reclaim callback drops our owning
  // reference once every reader pinned on it has advanced. Readers that
  // still hold it via their own shared_ptr remain safe either way.
  epochs_.Retire([old]() mutable { old.reset(); });
}

}  // namespace ingest
}  // namespace tsunami
