// Vectorized block-based scan kernel (the in-cell half of query execution).
// The column store is divided into fixed-size blocks of kScanBlockRows rows;
// per block and per dimension a zone map records min/max/sum, built once at
// cluster time. Scans process one block at a time, column-at-a-time: each
// predicate ANDs its in-range rows into a per-block row bitmask, COUNT is
// the mask's popcount, and each aggregated column is folded once under the
// mask. Zone maps triage each block per filter: a block disjoint from a
// filter is skipped, a filter whose range holds the block's [min, max] runs
// no pass over it, and a block every filter covers is aggregated without
// per-row checks (SUM served straight from the block sums).
//
// There is one kernel body. Its data-parallel inner loops (predicate
// compares into the mask, masked sum/min/max folds, zone-map builds) come
// from the SimdOps table of one instruction-set tier: the portable loops
// (SimdTier::kNone) or lane-parallel SIMD (AVX-512, AVX2 or NEON), chosen
// at startup by runtime CPU dispatch; see simd_dispatch.h. Every tier
// produces bit-identical QueryResults; ScanOptions::tier can force one for
// tests and benchmarks.
#ifndef TSUNAMI_STORAGE_SCAN_KERNEL_H_
#define TSUNAMI_STORAGE_SCAN_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/storage/encoded_column.h"
#include "src/storage/simd_dispatch.h"

namespace tsunami {

struct SimdOps;

// kScanBlockRows (rows per zone-map / codec block) lives in
// encoded_column.h, which this header re-exports: the zone maps and the
// per-block codecs share one block grid by construction.

/// Rows between cooperative-stop probes inside a batched scan: frequent
/// enough that a deadline lands within tens of microseconds even on one
/// giant range, rare enough that the probe (a clock read at worst) is noise.
inline constexpr int64_t kScanStopProbeRows = 16 * 1024;

/// Per-scan execution options. `tier` picks the SIMD tier of the kernel's
/// inner loops; the default is the best runtime-supported one, and a forced
/// tier the CPU lacks degrades to the portable kNone loops.
///
/// `stop_probe` is the cooperative-cancellation seam: when non-null,
/// ScanBatch slices ranges at block-aligned kScanStopProbeRows boundaries
/// and calls `stop_probe(stop_arg)` between slices, abandoning the rest of
/// the batch once it returns true — so even one giant scan can be cancelled
/// mid-flight. Kept as a raw function pointer + argument (not std::function)
/// so ScanOptions stays trivially copyable; the slicing is block-aligned and
/// integer aggregation is associative, so a probed scan that is never
/// stopped stays bit-identical to an unprobed one.
struct ScanOptions {
  SimdTier tier = SimdTier::kAuto;
  bool (*stop_probe)(const void*) = nullptr;  // Borrowed; null = never stop.
  const void* stop_arg = nullptr;

  bool ShouldStop() const {
    return stop_probe != nullptr && stop_probe(stop_arg);
  }
};

/// One physical row range an index has decided must be scanned. `exact`
/// means every row in [begin, end) is known to match the query's filters,
/// so per-row checks can be skipped (§6.1's exact-range optimization).
struct RangeTask {
  int64_t begin = 0;
  int64_t end = 0;  // Exclusive.
  bool exact = false;
};

/// Appends `task` to a plan, extending the plan's last task instead when
/// `task` starts where it ends with the same `exact` flag, so a contiguous
/// run of planned ranges reaches the scan as one task. Empty tasks are
/// dropped. Every row keeps its exactness, so answers and `scanned` are
/// unchanged; planners count `cell_ranges` themselves.
inline void AppendRangeTask(std::vector<RangeTask>* tasks, RangeTask task) {
  if (task.begin >= task.end) return;
  if (!tasks->empty() && tasks->back().end == task.begin &&
      tasks->back().exact == task.exact) {
    tasks->back().end = task.end;
    return;
  }
  tasks->push_back(task);
}

/// A set of small indexes (filter positions, column ids) in one word. An
/// index at or past kCapacity is never a member: Insert reports it as new
/// every time and Contains never finds it, so a caller that skips members'
/// work still does that work for such an index.
class SmallIndexSet {
 public:
  static constexpr size_t kCapacity = 64;

  /// Adds `i`; returns false when it was already a member.
  bool Insert(size_t i) {
    if (i >= kCapacity) return true;
    const uint64_t bit = uint64_t{1} << i;
    const bool fresh = (bits_ & bit) == 0;
    bits_ |= bit;
    return fresh;
  }
  bool Contains(size_t i) const {
    return i < kCapacity && ((bits_ >> i) & 1) != 0;
  }

 private:
  uint64_t bits_ = 0;
};

/// Per-block min/max/sum per dimension over a set of columns. Blocks are
/// aligned to absolute row index (block b covers rows
/// [b * kScanBlockRows, (b+1) * kScanBlockRows), the last block truncated),
/// so any caller-supplied range maps directly onto blocks.
class ZoneMaps {
 public:
  /// Sizes the maps for `dims` columns of `rows` rows. Each dimension's
  /// entries are then filled by BuildDim; distinct dimensions may be built
  /// concurrently.
  void Reset(int dims, int64_t rows);
  /// Fills dimension `dim`'s entries from its raw column (the `rows` values
  /// given to Reset); O(rows), one unmasked fold_i64 per block at the
  /// detected SIMD tier (the per-block stats are order-insensitive, so
  /// every tier produces identical maps). Called at cluster time, one
  /// column at a time.
  void BuildDim(int dim, std::span<const Value> column);
  /// Rebuild from encoded columns (the Deserialize path): each block is
  /// decoded into a scratch buffer first, so the stats are identical to a
  /// raw-column build of the same data.
  void Build(const std::vector<EncodedColumn>& columns);
  void Clear();

  bool empty() const { return num_blocks_ == 0; }
  int64_t num_blocks() const { return num_blocks_; }
  Value Min(int dim, int64_t block) const { return min_[dim][block]; }
  Value Max(int dim, int64_t block) const { return max_[dim][block]; }
  int64_t Sum(int dim, int64_t block) const { return sum_[dim][block]; }

  /// Recomputes one block's stats for one dimension from `values` (the
  /// block's rows, in order) — the block-repair path.
  void UpdateBlock(int dim, int64_t block, const Value* values, int64_t n);

  int64_t SizeBytes() const;

 private:
  int64_t num_blocks_ = 0;
  std::vector<std::vector<Value>> min_;    // [dim][block]
  std::vector<std::vector<Value>> max_;    // [dim][block]
  std::vector<std::vector<int64_t>> sum_;  // [dim][block]
};

/// One block's columns as the per-block scan step reads them. A store
/// block resolves each column's codec view; a raw block (an unsealed delta
/// chunk's kScanBlockRows-row slice) is width-8 views with ref 0, column
/// `dim` starting at `raw + dim * stride`.
class BlockColumns {
 public:
  BlockColumns(const std::vector<EncodedColumn>& columns, int64_t block)
      : columns_(&columns), block_(block) {}
  BlockColumns(const Value* raw, int64_t stride) : raw_(raw), stride_(stride) {}

  EncodedColumn::BlockView view(int dim) const {
    if (columns_ != nullptr) return (*columns_)[dim].block(block_);
    return {raw_ + dim * stride_, 0, 8};
  }

 private:
  const std::vector<EncodedColumn>* columns_ = nullptr;
  int64_t block_ = 0;
  const Value* raw_ = nullptr;
  int64_t stride_ = 0;
};

/// The per-block scan step every scan path shares: selects the rows
/// [off, off + count) of the block whose values match every filter, counts
/// them into out->matched, and folds them into every aggregate accumulator.
/// `covered` holds the positions in query.filters known to hold on every
/// row of the block (its zone map proves them); they run no pass. Each
/// other predicate ANDs its in-range rows into a kScanBlockRows-bit mask at
/// its column's code width, with bounds translated into code space (a
/// predicate empty after translation ends the block without reading a
/// code; one covering the whole code domain skips its pass), and the block
/// ends as soon as the mask is empty. COUNT is the mask's popcount; each
/// distinct aggregated column is folded once under the mask.
void ScanBlockSlice(const BlockColumns& columns, int64_t off, int count,
                    const Query& query, SmallIndexSet covered,
                    const SimdOps& ops, QueryResult* out);

/// A non-owning view over a table's encoded columns plus its zone maps that
/// executes scans. Construction is two pointers; ColumnStore hands one out
/// per call. Predicates are evaluated on the per-block codes, and
/// aggregates fold codes under the row mask; values are never
/// materialized: a fold's sum/min/max lift into value space with the
/// block's frame of reference (raw fallback blocks fold values directly).
///
/// `scanned` counts the rows a range was responsible for (not the rows
/// actually touched after block skipping), so results are bit-for-bit
/// comparable across tiers and codecs.
class ScanKernel {
 public:
  ScanKernel(const std::vector<EncodedColumn>& columns, const ZoneMaps& zones)
      : columns_(&columns),
        zones_(&zones),
        num_rows_(columns.empty() ? 0 : columns[0].rows()) {}

  /// Scans [begin, end), accumulating every aggregate of the query over
  /// matching rows into `out` (does not touch out->cell_ranges). Multi-
  /// aggregate queries share one mask per block, and the aggregates over
  /// one column share one fold, so SUM+COUNT+MIN+MAX of a column cost one
  /// pass over the predicates and one fold.
  /// Exact ranges skip the filters: fully covered blocks aggregate from
  /// their zone maps, and an all-COUNT query touches no column at all.
  void Scan(int64_t begin, int64_t end, const Query& query, bool exact,
            QueryResult* out, const ScanOptions& options = {}) const;

  /// Scans every task in order into one accumulator. The batch seam: index
  /// code plans all candidate ranges, then submits them in one call.
  void ScanBatch(std::span<const RangeTask> tasks, const Query& query,
                 QueryResult* out, const ScanOptions& options = {}) const;

  /// Integrity gate: true when every column this query must read — filter
  /// dims for non-exact ranges, plus non-COUNT aggregate columns, each
  /// checked once — is readable (checksum-verified, not quarantined) in
  /// `block`. On failure the block is counted into out->quarantined_blocks
  /// and the result flagged degraded; the caller skips the block (or, for
  /// a secondary index's row probe, the row). Columns the query never
  /// reads (e.g. everything, for an exact COUNT) are not checked, so
  /// zone-map- or count-only answers stay exact even over a quarantined
  /// store.
  bool BlockReadable(int64_t block, const Query& query, bool exact,
                     QueryResult* out) const;

 private:
  // Folds rows [begin, end) — all known to match — inside block `block`
  // into every aggregate accumulator: from the zone map when the rows span
  // the full block, else one unmasked fold per aggregated column. Leaves
  // matched/scanned to the caller.
  void AggregateRun(int64_t begin, int64_t end, int64_t block,
                    const Query& query, const SimdOps& ops,
                    QueryResult* out) const;

  // True when [begin, end) covers every row of `block`.
  bool CoversBlock(int64_t begin, int64_t end, int64_t block) const {
    int64_t block_begin = block * kScanBlockRows;
    int64_t block_end = std::min(num_rows_, block_begin + kScanBlockRows);
    return begin <= block_begin && end >= block_end;
  }

  const std::vector<EncodedColumn>* columns_;
  const ZoneMaps* zones_;
  int64_t num_rows_;
};

}  // namespace tsunami

#endif  // TSUNAMI_STORAGE_SCAN_KERNEL_H_
