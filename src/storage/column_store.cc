#include "src/storage/column_store.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/stats.h"
#include "src/exec/task_scheduler.h"

namespace tsunami {

ColumnStore::ColumnStore(const Dataset& data, bool encode)
    : num_rows_(data.size()) {
  BuildColumns(data, nullptr, encode, nullptr, nullptr);
}

ColumnStore::ColumnStore(const Dataset& data,
                         const std::vector<uint32_t>& perm, bool encode,
                         TaskScheduler* scheduler, double* thread_seconds)
    : num_rows_(data.size()) {
  BuildColumns(data, perm.data(), encode, scheduler, thread_seconds);
}

void ColumnStore::BuildColumns(const Dataset& data, const uint32_t* perm,
                               bool encode, TaskScheduler* scheduler,
                               double* thread_seconds) {
  const int dims = data.dims();
  columns_.assign(dims, {});
  zones_.Reset(dims, num_rows_);
  std::vector<double> seconds(dims, 0.0);
  auto build_column = [&](int64_t d) {
    Timer timer;
    std::vector<Value> raw(num_rows_);
    if (perm != nullptr) {
      for (int64_t r = 0; r < num_rows_; ++r) raw[r] = data.at(perm[r], d);
    } else {
      for (int64_t r = 0; r < num_rows_; ++r) raw[r] = data.at(r, d);
    }
    zones_.BuildDim(static_cast<int>(d), raw);
    columns_[d].Encode(raw, encode);
    seconds[d] = timer.ElapsedSeconds();
  };
  if (scheduler != nullptr) {
    scheduler->Run(dims, [&](int64_t d, int) { build_column(d); });
  } else {
    for (int d = 0; d < dims; ++d) build_column(d);
  }
  if (thread_seconds != nullptr) {
    *thread_seconds = std::accumulate(seconds.begin(), seconds.end(), 0.0);
  }
}

void ColumnStore::ScanRange(int64_t begin, int64_t end, const Query& query,
                            bool exact, QueryResult* out,
                            const ScanOptions& options) const {
  kernel().Scan(begin, end, query, exact, out, options);
}

void ColumnStore::ScanRanges(std::span<const RangeTask> tasks,
                             const Query& query, QueryResult* out,
                             const ScanOptions& options) const {
  kernel().ScanBatch(tasks, query, out, options);
}

int64_t ColumnStore::LowerBound(int dim, int64_t begin, int64_t end,
                                Value v) const {
  const EncodedColumn& col = columns_[dim];
  while (begin < end) {
    const int64_t mid = begin + (end - begin) / 2;
    if (col.Get(mid) < v) {
      begin = mid + 1;
    } else {
      end = mid;
    }
  }
  return begin;
}

int64_t ColumnStore::UpperBound(int dim, int64_t begin, int64_t end,
                                Value v) const {
  const EncodedColumn& col = columns_[dim];
  while (begin < end) {
    const int64_t mid = begin + (end - begin) / 2;
    if (col.Get(mid) <= v) {
      begin = mid + 1;
    } else {
      end = mid;
    }
  }
  return begin;
}

int64_t ColumnStore::DataSizeBytes() const {
  int64_t bytes = 0;
  for (const EncodedColumn& col : columns_) bytes += col.SizeBytes();
  return bytes;
}

int64_t ColumnStore::QuarantinedBlocks() const {
  int64_t total = 0;
  for (const EncodedColumn& col : columns_) total += col.quarantined_blocks();
  return total;
}

bool ColumnStore::RepairBlock(int dim, int64_t block, const Value* values,
                              int64_t n) {
  if (dim < 0 || dim >= dims()) return false;
  if (!columns_[dim].RepairBlock(block, values, n)) return false;
  // The block's zone entry may have been built from the corrupt bytes
  // (Deserialize decodes to rebuild zones); recompute it from the repair.
  if (!zones_.empty()) zones_.UpdateBlock(dim, block, values, n);
  return true;
}

QueryResult ExecuteFullScan(const ColumnStore& store, const Query& query) {
  QueryResult result = InitResult(query);
  store.ScanRange(0, store.size(), query, /*exact=*/false, &result);
  result.cell_ranges = 1;
  return result;
}

void ColumnStore::Serialize(BinaryWriter* writer) const {
  writer->PutVarI64(num_rows_);
  writer->PutVarU64(columns_.size());
  for (const EncodedColumn& column : columns_) column.Serialize(writer);
}

bool ColumnStore::Deserialize(BinaryReader* reader) {
  num_rows_ = reader->GetVarI64();
  uint64_t dims = reader->GetVarU64();
  if (!reader->ok() || num_rows_ < 0 || dims > 4096) {
    reader->MarkCorrupt();
    return false;
  }
  columns_.assign(dims, {});
  for (uint64_t d = 0; d < dims; ++d) {
    if (!columns_[d].Deserialize(reader) ||
        columns_[d].rows() != num_rows_) {
      reader->MarkCorrupt();
      return false;
    }
  }
  // Zone maps are derived state: cheaper to rebuild than to persist.
  if (reader->ok()) zones_.Build(columns_);
  return reader->ok();
}

}  // namespace tsunami
