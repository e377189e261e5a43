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

void SnapshotStore::Publish(std::shared_ptr<const ColumnStoreSnapshot> next) {
  assert(next->version() > version());
  version_.store(next->version(), std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_.swap(next);
  }
  // `next` now holds the superseded snapshot. Dropping it outside the leaf
  // mutex frees it unless a reader still holds it; that reader then frees
  // it when it lets go.
}

}  // namespace ingest
}  // namespace tsunami
