// Fixed-capacity columnar delta chunk: the append target for concurrent
// ingest.
//
// Concurrency contract: exactly one writer at a time (IngestStore's writer
// mutex serializes Append callers); any number of concurrent readers. The
// writer stores row values first, then publishes them with a release store
// of `committed_`; readers acquire-load `committed_` and only touch rows
// below it — never a torn read, never a partially visible row.
//
// A full chunk can be Seal()ed: the committed rows are re-encoded through
// the block codecs (frame-of-reference + width narrowing, checksums, zone
// maps) into an internal ColumnStore published behind an atomic pointer.
// Scans use the encoded form once sealed and the raw columns before. Both
// run the scan kernel's per-block step (an unsealed chunk's
// kScanBlockRows-row slice is a block of raw views), so they are
// bit-identical (the kernel counts `scanned` as the rows a range is
// responsible for, not the rows touched after block skipping).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/storage/column_store.h"
#include "src/storage/scan_kernel.h"

namespace tsunami {
namespace ingest {

class DeltaChunk {
 public:
  // `id` must be unique within the owning store: compaction identifies the
  // chunks it folded by id when reconciling against a chunk list that may
  // have grown during the build.
  DeltaChunk(int dims, int64_t capacity, uint64_t id);
  ~DeltaChunk();
  DeltaChunk(const DeltaChunk&) = delete;
  DeltaChunk& operator=(const DeltaChunk&) = delete;

  int dims() const { return dims_; }
  int64_t capacity() const { return capacity_; }
  uint64_t id() const { return id_; }

  // Rows visible to readers (acquire).
  int64_t committed() const {
    return committed_.load(std::memory_order_acquire);
  }
  bool full() const { return committed() == capacity_; }

  // Appends one row of `dims()` values. Single writer only. Returns false
  // when the chunk is full (the caller rolls to a fresh chunk).
  bool Append(const Value* row);

  // Re-encodes the committed rows into block-codec form and publishes it
  // for subsequent scans. Requires full() (a sealed chunk never grows, so
  // the encoded form can never go stale). Idempotent; safe to call from the
  // compactor thread while readers scan. Const: sealing changes only the
  // physical representation, never the logical rows.
  void Seal() const;
  bool sealed() const {
    return encoded_.load(std::memory_order_acquire) != nullptr;
  }

  // Scans the rows committed at call time and folds matches into `result`:
  // one cell_range, `scanned` charged for every committed row.
  void Scan(const Query& query, QueryResult* result,
            const ScanOptions& options = {}) const;

  // Reads one committed row value (row < committed()).
  Value Get(int64_t row, int dim) const;

  // Appends the first `rows` committed rows to `out` (for folding).
  void AppendRowsTo(Dataset* out, int64_t rows) const;

  int64_t MemoryBytes() const;

 private:
  const int dims_;
  const int64_t capacity_;
  const uint64_t id_;
  // Column-major: column d's rows start at values_[d * capacity_]. Sized
  // once at construction and never resized, so readers may index it while
  // the writer stores rows past `committed_`.
  std::vector<Value> values_;
  std::atomic<int64_t> committed_{0};
  // Owned; set once by Seal(). Plain pointer (not shared_ptr) so readers
  // pay one acquire load — the chunk outlives every scan because snapshots
  // hold it by shared_ptr.
  mutable std::atomic<const ColumnStore*> encoded_{nullptr};
};

}  // namespace ingest
}  // namespace tsunami
