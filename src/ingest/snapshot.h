// The immutable published version of an ingesting store, and the
// atomically-swapped holder that hands it out.
//
// A ColumnStoreSnapshot is (sorted TsunamiIndex, list of delta chunks,
// version). Everything a query resolves — grid, zone maps, encoded blocks,
// quarantine state, which chunks exist — is fixed by the snapshot; the only
// thing that moves under a pinned reader is the open chunk's committed row
// count, which is monotone and torn-read-free (release/acquire). Publishing
// never mutates a live snapshot: writers roll chunks, the compactor folds
// them into a new sorted index, and reorganization rebuilds the grid off to
// the side — each publishes a *new* snapshot. Each reader holds its
// snapshot through its own shared_ptr, so a superseded version is freed by
// whichever holder drops it last: the store itself when no reader has it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/core/tsunami.h"
#include "src/ingest/delta_chunk.h"

namespace tsunami {
namespace ingest {

class ColumnStoreSnapshot : public MultiDimIndex {
 public:
  ColumnStoreSnapshot(uint64_t version,
                      std::shared_ptr<const TsunamiIndex> index,
                      std::vector<std::shared_ptr<const DeltaChunk>> chunks);

  uint64_t version() const { return version_; }
  const TsunamiIndex& index() const { return *index_; }
  const std::shared_ptr<const TsunamiIndex>& index_ptr() const {
    return index_;
  }
  const std::vector<std::shared_ptr<const DeltaChunk>>& chunks() const {
    return chunks_;
  }
  // Rows committed across this snapshot's chunks *right now* (the open
  // chunk keeps absorbing appends after publication).
  int64_t ChunkRows() const;
  int64_t TotalRows() const { return index_->store().size() + ChunkRows(); }

  // MultiDimIndex. Prepare stamps store_version; FinishPlan scans every
  // chunk (committed rows read at execution time, so replayed plans see
  // fresh rows within this version).
  std::string Name() const override;
  QueryResult Execute(const Query& query) const override;
  QueryPlan Prepare(const Query& query) const override;
  void FinishPlan(const QueryPlan& plan, QueryResult* result) const override;
  uint64_t StoreVersion() const override { return version_; }
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return index_->store(); }

 private:
  const uint64_t version_;
  const std::shared_ptr<const TsunamiIndex> index_;
  const std::vector<std::shared_ptr<const DeltaChunk>> chunks_;
};

// Holds the current snapshot behind an atomically-swapped shared_ptr.
class SnapshotStore {
 public:
  explicit SnapshotStore(std::shared_ptr<const ColumnStoreSnapshot> initial);

  // The current snapshot. The returned pointer keeps it alive, however many
  // versions are published after it: queries hold one from Prepare until
  // the last chunk finishes.
  std::shared_ptr<const ColumnStoreSnapshot> Current() const;

  // Swaps `next` in and drops the store's reference to the superseded
  // snapshot, which frees it here unless a reader still holds it. The
  // caller serializes publishes (IngestStore's publish mutex) and must hand
  // in a strictly newer version.
  void Publish(std::shared_ptr<const ColumnStoreSnapshot> next);

  uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint64_t> version_;
  // A leaf mutex held only for the pointer copy/swap — never across a
  // build, a scan, or a free — so readers wait at most a few
  // instructions behind a publisher, never behind a reorganization.
  // (std::atomic<shared_ptr> would be the natural fit, but libstdc++'s
  // lock-free _Sp_atomic releases its reader-side spinlock with a relaxed
  // RMW, which ThreadSanitizer — faithfully to the formal memory model —
  // cannot order against the next publisher's write; a real mutex keeps
  // the suite TSan-clean without suppressions.)
  mutable std::mutex current_mu_;
  std::shared_ptr<const ColumnStoreSnapshot> current_;
};

}  // namespace ingest
}  // namespace tsunami
