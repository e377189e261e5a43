// In-memory column store substrate (§6.1). All indexes in this library are
// *clustered*: they choose a row order (a permutation) at build time, and the
// column store materializes the columns in that order so that each index's
// cells map to contiguous physical ranges. Columns are *stored encoded*:
// each kScanBlockRows-row block holds frame-of-reference + bit-width
// narrowed codes (see encoded_column.h), so scans read 2-8x fewer bytes
// and the SIMD kernel packs 2-8x more values per vector; blocks whose
// range does not fit 32-bit codes fall back to raw 64-bit storage.
#ifndef TSUNAMI_STORAGE_COLUMN_STORE_H_
#define TSUNAMI_STORAGE_COLUMN_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/io/serializer.h"
#include "src/storage/encoded_column.h"
#include "src/storage/scan_kernel.h"

namespace tsunami {

class TaskScheduler;

/// Columnar storage for a single table of 64-bit integer attributes.
///
/// Implements the paper's one scan-time optimization: if the caller
/// guarantees that a physical range matches the query exactly ("exact
/// range"), the scan skips checking each value against the filters; for
/// COUNT this touches no data at all.
class ColumnStore {
 public:
  ColumnStore() = default;

  /// Materializes the dataset with rows in their original order. `encode`
  /// (default: on, unless TSUNAMI_DISABLE_ENCODING is set at build or in
  /// the environment) controls per-block code narrowing; false pins every
  /// block to raw 64-bit storage. Both settings produce bit-identical
  /// query results — encoding only changes the physical representation.
  explicit ColumnStore(const Dataset& data,
                       bool encode = EncodingEnabledByDefault());

  /// Materializes the dataset with row `perm[i]` stored at position `i`.
  /// `perm` must be a permutation of [0, data.size()).
  ///
  /// Both constructors build one column at a time: gather it, fill its
  /// zone-map entries, encode it, free it, so construction holds one raw
  /// column per worker. With a `scheduler`, each column is one chunk of a
  /// job on it (throws, like TaskScheduler::Run, when a chunk fails);
  /// null builds the columns in order on this thread. Either way the store
  /// is identical. `thread_seconds`, when non-null, receives the column
  /// steps' summed thread time.
  ColumnStore(const Dataset& data, const std::vector<uint32_t>& perm,
              bool encode = EncodingEnabledByDefault(),
              TaskScheduler* scheduler = nullptr,
              double* thread_seconds = nullptr);

  int dims() const { return static_cast<int>(columns_.size()); }
  int64_t size() const { return columns_.empty() ? 0 : num_rows_; }

  Value Get(int64_t row, int dim) const { return columns_[dim].Get(row); }

  /// Materializes one column's decoded values — a build-time helper for
  /// callers that need random access to a whole column (e.g. the secondary
  /// indexes' key sorts). O(rows) and allocates; query-time code should go
  /// through Get or the scan kernel instead.
  std::vector<Value> DecodeColumn(int dim) const {
    return columns_[dim].DecodeAll();
  }

  /// The encoded form of one column (codec widths, per-block views,
  /// compressed size) — introspection for EXPLAIN output and tests.
  const EncodedColumn& encoded(int dim) const { return columns_[dim]; }

  /// Quarantined (checksum-failed) blocks across all columns. Scans skip
  /// these and flag their results degraded.
  int64_t QuarantinedBlocks() const;

  /// Re-encodes one quarantined (or healthy) block of one column in place
  /// from `values` — exactly the block's row count — clearing quarantine
  /// and fixing that block's zone-map entry. Fails when the data no longer
  /// fits the block's stored code width. The repair path for
  /// TsunamiIndex::RepairedCopy.
  bool RepairBlock(int dim, int64_t block, const Value* values, int64_t n);

  /// Scans physical rows [begin, end), accumulating the query's aggregate
  /// over rows matching every filter into `out`. Updates out->scanned /
  /// matched. If `exact` is true, all rows in the range are known to match
  /// and per-row filter checks are skipped. `options.tier` picks the
  /// kernel's SIMD tier; every tier produces bit-identical results.
  void ScanRange(int64_t begin, int64_t end, const Query& query, bool exact,
                 QueryResult* out, const ScanOptions& options = {}) const;

  /// Batched multi-range execution: scans every task in order into one
  /// accumulator. Indexes plan all candidate ranges (cells, runs, pages)
  /// and submit them in a single call. Does not touch out->cell_ranges.
  void ScanRanges(std::span<const RangeTask> tasks, const Query& query,
                  QueryResult* out, const ScanOptions& options = {}) const;

  /// The block zone maps (per-block min/max/sum per dimension), built at
  /// construction and after Deserialize.
  const ZoneMaps& zone_maps() const { return zones_; }

  /// A scan-kernel view over this store's columns and zone maps.
  ScanKernel kernel() const { return ScanKernel(columns_, zones_); }

  /// First row in sorted-by-`dim` range [begin, end) with value >= v.
  /// Precondition: rows [begin, end) are sorted by `dim`.
  int64_t LowerBound(int dim, int64_t begin, int64_t end, Value v) const;

  /// First row in sorted-by-`dim` range [begin, end) with value > v.
  int64_t UpperBound(int dim, int64_t begin, int64_t end, Value v) const;

  /// Bytes of column data actually held: encoded code payloads plus codec
  /// metadata, per column (for reporting; not index overhead). With
  /// narrowing disabled this is raw bytes plus metadata; the pre-encoding
  /// figure was rows * dims * 8.
  int64_t DataSizeBytes() const;

  /// Persistence (§8): columns are written in physical (clustered) order
  /// and in their *encoded* form — codecs and code payloads round-trip
  /// verbatim, so loading neither re-sorts nor re-encodes (zone maps, being
  /// derived state, are rebuilt).
  void Serialize(BinaryWriter* writer) const;
  bool Deserialize(BinaryReader* reader);

 private:
  // The constructors' shared column-at-a-time build; `perm` null = rows
  // in their original order.
  void BuildColumns(const Dataset& data, const uint32_t* perm, bool encode,
                    TaskScheduler* scheduler, double* thread_seconds);

  int64_t num_rows_ = 0;
  std::vector<EncodedColumn> columns_;
  ZoneMaps zones_;
};

/// Executes `query` by scanning the full store (the scan FullScanIndex
/// plans); the reference answer tests compare against.
QueryResult ExecuteFullScan(const ColumnStore& store, const Query& query);

}  // namespace tsunami

#endif  // TSUNAMI_STORAGE_COLUMN_STORE_H_
