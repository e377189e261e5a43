#include "src/ingest/delta_chunk.h"

#include <algorithm>
#include <cassert>

#include "src/storage/scan_kernel_simd.h"
#include "src/storage/simd_dispatch.h"

namespace tsunami {
namespace ingest {

DeltaChunk::DeltaChunk(int dims, int64_t capacity, uint64_t id)
    : dims_(dims), capacity_(capacity), id_(id), cols_(dims) {
  assert(dims > 0 && capacity > 0);
  for (int d = 0; d < dims; ++d) {
    cols_[d] = std::make_unique<Value[]>(static_cast<size_t>(capacity));
  }
}

DeltaChunk::~DeltaChunk() {
  delete encoded_.load(std::memory_order_relaxed);
}

bool DeltaChunk::Append(const Value* row) {
  const int64_t pos = committed_.load(std::memory_order_relaxed);
  if (pos == capacity_) return false;
  for (int d = 0; d < dims_; ++d) cols_[d][pos] = row[d];
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
    for (int d = 0; d < dims_; ++d) row[d] = cols_[d][r];
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
  result->scanned += rows;
  ScanRaw(rows, query, result);
}

void DeltaChunk::ScanRaw(int64_t rows, const Query& query,
                         QueryResult* result) const {
  const SimdOps& ops = OpsForTier(SimdTier::kAuto);
  const std::vector<Predicate>& filters = query.filters;
  const int num_aggs = query.num_aggs();
  uint32_t sel[kScanBlockRows];
  for (int64_t begin = 0; begin < rows; begin += kScanBlockRows) {
    const int count = static_cast<int>(std::min(kScanBlockRows, rows - begin));
    int n;
    if (filters.empty()) {
      for (int i = 0; i < count; ++i) sel[i] = static_cast<uint32_t>(i);
      n = count;
    } else {
      const Predicate& first = filters[0];
      n = ops.first_pass(cols_[first.dim].get() + begin, count, first.lo,
                         first.hi, sel);
      for (size_t f = 1; f < filters.size() && n > 0; ++f) {
        const Predicate& p = filters[f];
        n = ops.refine_pass(cols_[p.dim].get() + begin, sel, n, p.lo, p.hi);
      }
    }
    if (n == 0) continue;
    result->matched += n;
    for (int a = 0; a < num_aggs; ++a) {
      const AggregateSpec spec = query.agg_spec(a);
      int64_t* acc = result->agg_accumulator(a);
      if (spec.op == AggKind::kCount) {
        *acc += n;
        continue;
      }
      const Value* col = cols_[spec.column].get() + begin;
      switch (spec.op) {
        case AggKind::kCount:
          break;
        case AggKind::kSum:
        case AggKind::kAvg:
          *acc += ops.sum_gather(col, sel, n);
          break;
        case AggKind::kMin: {
          Value m = ops.min_gather(col, sel, n);
          if (m < *acc) *acc = m;
          break;
        }
        case AggKind::kMax: {
          Value m = ops.max_gather(col, sel, n);
          if (m > *acc) *acc = m;
          break;
        }
      }
    }
  }
}

Value DeltaChunk::Get(int64_t row, int dim) const {
  assert(row < committed());
  return cols_[dim][row];
}

void DeltaChunk::AppendRowsTo(Dataset* out, int64_t rows) const {
  assert(rows <= committed());
  std::vector<Value> row(dims_);
  for (int64_t r = 0; r < rows; ++r) {
    for (int d = 0; d < dims_; ++d) row[d] = cols_[d][r];
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
