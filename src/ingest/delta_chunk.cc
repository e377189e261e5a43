#include "src/ingest/delta_chunk.h"

#include <algorithm>
#include <cassert>

#include "src/storage/simd_dispatch.h"

namespace tsunami {
namespace ingest {

DeltaChunk::DeltaChunk(int dims, int64_t capacity, uint64_t id)
    : dims_(dims),
      capacity_(capacity),
      id_(id),
      values_(static_cast<size_t>(dims) * static_cast<size_t>(capacity)) {
  assert(dims > 0 && capacity > 0);
}

DeltaChunk::~DeltaChunk() {
  delete encoded_.load(std::memory_order_relaxed);
}

bool DeltaChunk::Append(const Value* row) {
  const int64_t pos = committed_.load(std::memory_order_relaxed);
  if (pos == capacity_) return false;
  for (int d = 0; d < dims_; ++d) values_[d * capacity_ + pos] = row[d];
  // Release: the row's values happen-before any reader that observes the
  // new count.
  committed_.store(pos + 1, std::memory_order_release);
  return true;
}

void DeltaChunk::Seal() const {
  assert(full());
  if (sealed()) return;
  // Materialize the (immutable, fully committed) rows and push them through
  // the block codecs. Built off to the side; readers switch over on the
  // release store below.
  Dataset data(dims_, {});
  data.Reserve(capacity_);
  std::vector<Value> row(dims_);
  for (int64_t r = 0; r < capacity_; ++r) {
    for (int d = 0; d < dims_; ++d) row[d] = Get(r, d);
    data.AppendRow(row);
  }
  const ColumnStore* store = new ColumnStore(data);
  const ColumnStore* expected = nullptr;
  if (!encoded_.compare_exchange_strong(expected, store,
                                        std::memory_order_release,
                                        std::memory_order_acquire)) {
    delete store;  // lost a (harmless) race with another sealer
  }
}

void DeltaChunk::Scan(const Query& query, QueryResult* result,
                      const ScanOptions& options) const {
  const int64_t rows = committed();
  if (rows == 0) return;
  // The chunk is one cell range and is charged for every committed row,
  // whichever physical path runs — so encoded and raw scans are bit-for-bit
  // comparable.
  ++result->cell_ranges;
  const ColumnStore* store = encoded_.load(std::memory_order_acquire);
  if (store != nullptr && rows == capacity_) {
    store->ScanRange(0, rows, query, /*exact=*/false, result, options);
    return;
  }
  // Unsealed: each kScanBlockRows slice of the raw columns is one block.
  // It has no zone map, so no filter is known to cover it.
  result->scanned += rows;
  const SimdOps& ops = OpsForTier(options.tier);
  for (int64_t begin = 0; begin < rows; begin += kScanBlockRows) {
    const int count = static_cast<int>(std::min(kScanBlockRows, rows - begin));
    const BlockColumns slice(values_.data() + begin, capacity_);
    ScanBlockSlice(slice, /*off=*/0, count, query, SmallIndexSet{}, ops,
                   result);
  }
}

Value DeltaChunk::Get(int64_t row, int dim) const {
  assert(row < committed());
  return values_[dim * capacity_ + row];
}

void DeltaChunk::AppendRowsTo(Dataset* out, int64_t rows) const {
  assert(rows <= committed());
  std::vector<Value> row(dims_);
  for (int64_t r = 0; r < rows; ++r) {
    for (int d = 0; d < dims_; ++d) row[d] = Get(r, d);
    out->AppendRow(row);
  }
}

int64_t DeltaChunk::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(*this)) +
                  capacity_ * dims_ * static_cast<int64_t>(sizeof(Value));
  const ColumnStore* store = encoded_.load(std::memory_order_acquire);
  if (store != nullptr) bytes += store->DataSizeBytes();
  return bytes;
}

}  // namespace ingest
}  // namespace tsunami
