#include "src/storage/scan_kernel.h"

#include <algorithm>

#include "src/storage/scan_kernel_simd.h"

namespace tsunami {

namespace {

// ---- Aggregate partials over one block slice ------------------------------
//
// Each aggregate computes its partial over the slice's rows (a count, sum,
// min or max) and folds it into its accumulator through MergeAggValue, the
// rule that also merges partial QueryResults. Narrow blocks fold codes and
// lift the result into value space algebraically: sum(ref + c_j) =
// n * ref + sum(c_j) (exact modulo 2^64, the ring every SUM wraps in),
// min(ref + c_j) = ref + min(c_j) (exact — it reconstructs an original
// value), likewise max. Raw blocks fold values through the tier's SIMD
// ops; a block the rows cover whole answers from its zone-map entry.

// The rows a partial folds, as offsets into the slice: the selection
// sel[0, n), or the contiguous run [0, n).
struct Selected {
  const uint32_t* sel;
  uint32_t operator[](int64_t j) const { return sel[j]; }
};
struct Run {
  int64_t operator[](int64_t j) const { return j; }
};

// Folds over a narrow block's codes. Min/Max need n >= 1.
template <typename T, typename Rows>
struct CodeFolds {
  const T* codes;
  uint64_t ref;
  Rows rows;
  int64_t n;

  int64_t Sum() const {
    uint64_t s = 0;
    for (int64_t j = 0; j < n; ++j) s += codes[rows[j]];
    return static_cast<int64_t>(s + ref * static_cast<uint64_t>(n));
  }
  Value Min() const {
    T m = codes[rows[0]];
    for (int64_t j = 1; j < n; ++j) m = codes[rows[j]] < m ? codes[rows[j]] : m;
    return static_cast<Value>(ref + m);
  }
  Value Max() const {
    T m = codes[rows[0]];
    for (int64_t j = 1; j < n; ++j) m = codes[rows[j]] > m ? codes[rows[j]] : m;
    return static_cast<Value>(ref + m);
  }
};

// Folds over a raw block's values through the tier's gather (selection)
// or range (run) loops.
template <typename Rows>
struct RawFolds;

template <>
struct RawFolds<Selected> {
  const Value* values;
  Selected rows;
  int64_t n;
  const SimdOps* ops;

  int64_t Sum() const { return ops->sum_gather(values, rows.sel, Count()); }
  Value Min() const { return ops->min_gather(values, rows.sel, Count()); }
  Value Max() const { return ops->max_gather(values, rows.sel, Count()); }
  int Count() const { return static_cast<int>(n); }
};

template <>
struct RawFolds<Run> {
  const Value* values;
  Run rows;
  int64_t n;
  const SimdOps* ops;

  int64_t Sum() const { return ops->sum_range(values, n); }
  Value Min() const { return ops->min_range(values, n); }
  Value Max() const { return ops->max_range(values, n); }
};

// Folds of a block the rows cover whole: its zone-map entry.
struct ZoneFolds {
  const ZoneMaps* zones;
  int dim;
  int64_t block;

  int64_t Sum() const { return zones->Sum(dim, block); }
  Value Min() const { return zones->Min(dim, block); }
  Value Max() const { return zones->Max(dim, block); }
};

// The one aggregate switch: `op`'s partial over n rows (COUNT reads no
// folds).
template <typename Folds>
int64_t Partial(AggKind op, int64_t n, const Folds& folds) {
  switch (op) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      return folds.Sum();
    case AggKind::kMin:
      return folds.Min();
    case AggKind::kMax:
      return folds.Max();
  }
  return n;
}

// The one code-width switch for partials: `op` over the `rows` of the
// slice that starts `off` rows into the block `view`.
template <typename Rows>
int64_t SlicePartial(AggKind op, const EncodedColumn::BlockView& view,
                     int64_t off, Rows rows, int64_t n, const SimdOps& ops) {
  const uint64_t ref = static_cast<uint64_t>(view.ref);
  switch (view.width) {
    case 1:
      return Partial(op, n, CodeFolds<uint8_t, Rows>{
          static_cast<const uint8_t*>(view.codes) + off, ref, rows, n});
    case 2:
      return Partial(op, n, CodeFolds<uint16_t, Rows>{
          static_cast<const uint16_t*>(view.codes) + off, ref, rows, n});
    case 4:
      return Partial(op, n, CodeFolds<uint32_t, Rows>{
          static_cast<const uint32_t*>(view.codes) + off, ref, rows, n});
    default:
      return Partial(op, n, RawFolds<Rows>{
          static_cast<const Value*>(view.codes) + off, rows, n, &ops});
  }
}

}  // namespace

void ZoneMaps::Reset(int dims, int64_t rows) {
  Clear();
  if (dims == 0 || rows == 0) return;
  num_blocks_ = (rows + kScanBlockRows - 1) / kScanBlockRows;
  min_.assign(dims, std::vector<Value>(num_blocks_));
  max_.assign(dims, std::vector<Value>(num_blocks_));
  sum_.assign(dims, std::vector<int64_t>(num_blocks_));
}

void ZoneMaps::BuildDim(int dim, std::span<const Value> column) {
  const SimdOps& ops = OpsForTier(SimdTier::kAuto);
  const int64_t rows = static_cast<int64_t>(column.size());
  for (int64_t b = 0; b < num_blocks_; ++b) {
    const int64_t lo = b * kScanBlockRows;
    const int64_t hi = std::min(rows, lo + kScanBlockRows);
    ops.block_stats(column.data() + lo, hi - lo, &min_[dim][b],
                    &max_[dim][b], &sum_[dim][b]);
  }
}

void ZoneMaps::Build(const std::vector<EncodedColumn>& columns) {
  Reset(static_cast<int>(columns.size()),
        columns.empty() ? 0 : columns[0].rows());
  Value scratch[kScanBlockRows];
  for (size_t d = 0; d < columns.size(); ++d) {
    const int64_t rows = columns[d].rows();
    for (int64_t b = 0; b < num_blocks_; ++b) {
      const int64_t lo = b * kScanBlockRows;
      const int64_t hi = std::min(rows, lo + kScanBlockRows);
      columns[d].Decode(lo, hi, scratch);
      UpdateBlock(static_cast<int>(d), b, scratch, hi - lo);
    }
  }
}

void ZoneMaps::UpdateBlock(int dim, int64_t block, const Value* values,
                           int64_t n) {
  const SimdOps& ops = OpsForTier(SimdTier::kAuto);
  ops.block_stats(values, n, &min_[dim][block], &max_[dim][block],
                  &sum_[dim][block]);
}

void ZoneMaps::Clear() {
  num_blocks_ = 0;
  min_.clear();
  max_.clear();
  sum_.clear();
}

int64_t ZoneMaps::SizeBytes() const {
  return num_blocks_ * static_cast<int64_t>(min_.size()) *
         (2 * sizeof(Value) + sizeof(int64_t));
}

void ScanKernel::Scan(int64_t begin, int64_t end, const Query& query,
                      bool exact, QueryResult* out,
                      const ScanOptions& options) const {
  if (begin >= end) return;
  const int num_aggs = query.num_aggs();
  if (exact) {
    bool all_count = true;
    for (int a = 0; a < num_aggs; ++a) {
      all_count = all_count && query.agg_spec(a).op == AggKind::kCount;
    }
    if (all_count) {
      // Pure counting touches no column bytes: exact even over a
      // quarantined store, so no integrity gate.
      out->matched += end - begin;
      for (int a = 0; a < num_aggs; ++a) {
        *out->agg_accumulator(a) += end - begin;
      }
      return;
    }
  }
  const SimdOps& ops = OpsForTier(options.tier);
  const std::vector<Predicate>& filters = query.filters;
  out->scanned += end - begin;
  uint32_t sel[kScanBlockRows];
  const int64_t b_last = (end - 1) / kScanBlockRows;
  for (int64_t b = begin / kScanBlockRows; b <= b_last; ++b) {
    const int64_t lo = std::max(begin, b * kScanBlockRows);
    const int64_t hi = std::min(end, (b + 1) * kScanBlockRows);
    // Integrity gate before zone triage: a quarantined block's zone entries
    // may themselves derive from the corrupt bytes (Deserialize rebuilds
    // zones by decoding), so they cannot be trusted even to skip it.
    if (!BlockReadable(b, query, exact, out)) {
      out->scanned -= hi - lo;  // Skipped, never read: not scanned.
      continue;
    }
    // Zone-map triage: a block disjoint from any filter contributes
    // nothing; a block inside every filter needs no per-row checks.
    bool all_match = exact || filters.empty();
    if (!all_match && !zones_->empty()) {
      all_match = true;
      bool skip = false;
      for (const Predicate& p : filters) {
        const Value zmin = zones_->Min(p.dim, b);
        const Value zmax = zones_->Max(p.dim, b);
        if (zmin > p.hi || zmax < p.lo) {
          skip = true;
          break;
        }
        all_match = all_match && p.lo <= zmin && zmax <= p.hi;
      }
      if (skip) continue;
    }
    if (all_match) {
      out->matched += hi - lo;
      AggregateRun(lo, hi, b, query, ops, out);
      continue;
    }
    ScanBlockSlice(BlockColumns(*columns_, b), lo - b * kScanBlockRows,
                   static_cast<int>(hi - lo), query, ops, sel, out);
  }
}

void ScanKernel::ScanBatch(std::span<const RangeTask> tasks,
                           const Query& query, QueryResult* out,
                           const ScanOptions& options) const {
  if (options.stop_probe == nullptr) {
    for (const RangeTask& task : tasks) {
      Scan(task.begin, task.end, query, task.exact, out, options);
    }
    return;
  }
  // Cancellable batch: probe between tasks and, inside oversized tasks,
  // between block-aligned kScanStopProbeRows slices, so a deadline or
  // cancel flag lands mid-scan instead of after the largest range. The
  // accumulation is a left-to-right fold over the same rows, so an
  // uncancelled probed batch is bit-identical to the unprobed loop above.
  for (const RangeTask& task : tasks) {
    int64_t begin = task.begin;
    while (begin < task.end) {
      if (options.ShouldStop()) return;
      int64_t end = task.end;
      if (end - begin > kScanStopProbeRows) {
        // Slice on a block boundary so full-block zone-map paths (and the
        // exact-range SUM-from-block-sums path) see whole blocks.
        end = begin + kScanStopProbeRows;
        end -= end % kScanBlockRows;
        if (end <= begin) end = std::min(task.end, begin + kScanBlockRows);
      }
      Scan(begin, end, query, task.exact, out, options);
      begin = end;
    }
  }
}

bool ScanKernel::BlockReadable(int64_t block, const Query& query, bool exact,
                               QueryResult* out) const {
  const std::vector<EncodedColumn>& columns = *columns_;
  // No short-circuit: every involved column advances its lazy verification
  // even when an earlier one is already quarantined.
  bool ok = true;
  if (!exact) {
    for (const Predicate& p : query.filters) {
      ok = columns[p.dim].EnsureReadable(block) && ok;
    }
  }
  for (int a = 0; a < query.num_aggs(); ++a) {
    const AggregateSpec spec = query.agg_spec(a);
    if (spec.op != AggKind::kCount) {
      ok = columns[spec.column].EnsureReadable(block) && ok;
    }
  }
  if (!ok) {
    out->degraded = true;
    ++out->quarantined_blocks;
  }
  return ok;
}

void ScanBlockSlice(const BlockColumns& columns, int64_t off, int count,
                    const Query& query, const SimdOps& ops, uint32_t* sel,
                    QueryResult* out) {
  // First effective predicate compacts [0, count) into sel; later ones
  // compact the survivors in place. All passes are compare+compress at the
  // block's code width, lane-parallel under the SIMD tiers. n == -1 means
  // no pass has run yet (every predicate so far covered the whole block's
  // code domain).
  int n = -1;
  for (const Predicate& p : query.filters) {
    const EncodedColumn::BlockView view = columns.view(p.dim);
    if (view.width == 8) {
      // Raw block: compare values directly, untranslated.
      const Value* col = static_cast<const Value*>(view.codes) + off;
      n = n < 0 ? ops.first_pass(col, count, p.lo, p.hi, sel)
                : ops.refine_pass(col, sel, n, p.lo, p.hi);
    } else {
      const CodeRange cr = TranslateToCodeSpace(p.lo, p.hi, view.ref,
                                                CodeDomainMax(view.width));
      if (cr.state == CodeRange::kEmpty) return;
      if (cr.state == CodeRange::kAll) continue;  // Pass is the identity.
      switch (view.width) {
        case 1: {
          const uint8_t* c = static_cast<const uint8_t*>(view.codes) + off;
          n = n < 0 ? ops.first_pass_u8(c, count, static_cast<uint8_t>(cr.lo),
                                        static_cast<uint8_t>(cr.hi), sel)
                    : ops.refine_pass_u8(c, sel, n,
                                         static_cast<uint8_t>(cr.lo),
                                         static_cast<uint8_t>(cr.hi));
          break;
        }
        case 2: {
          const uint16_t* c = static_cast<const uint16_t*>(view.codes) + off;
          n = n < 0
                  ? ops.first_pass_u16(c, count, static_cast<uint16_t>(cr.lo),
                                       static_cast<uint16_t>(cr.hi), sel)
                  : ops.refine_pass_u16(c, sel, n,
                                        static_cast<uint16_t>(cr.lo),
                                        static_cast<uint16_t>(cr.hi));
          break;
        }
        default: {
          const uint32_t* c = static_cast<const uint32_t*>(view.codes) + off;
          n = n < 0
                  ? ops.first_pass_u32(c, count, static_cast<uint32_t>(cr.lo),
                                       static_cast<uint32_t>(cr.hi), sel)
                  : ops.refine_pass_u32(c, sel, n,
                                        static_cast<uint32_t>(cr.lo),
                                        static_cast<uint32_t>(cr.hi));
          break;
        }
      }
    }
    if (n == 0) return;
  }
  if (n < 0) {
    // No filters, or every predicate covered the whole code domain.
    for (int i = 0; i < count; ++i) sel[i] = static_cast<uint32_t>(i);
    n = count;
  }
  out->matched += n;
  // One selection vector feeds every aggregate: the compare+compress
  // passes above run once per block regardless of how many aggregates the
  // query computes; only the partials repeat per aggregate.
  for (int a = 0; a < query.num_aggs(); ++a) {
    const AggregateSpec spec = query.agg_spec(a);
    const int64_t partial =
        spec.op == AggKind::kCount
            ? n
            : SlicePartial(spec.op, columns.view(spec.column), off,
                           Selected{sel}, n, ops);
    MergeAggValue(spec.op, partial, out->agg_accumulator(a));
  }
}

void ScanKernel::AggregateRun(int64_t begin, int64_t end, int64_t block,
                              const Query& query, const SimdOps& ops,
                              QueryResult* out) const {
  const int64_t n = end - begin;
  const bool full = !zones_->empty() && CoversBlock(begin, end, block);
  const int64_t off = begin - block * kScanBlockRows;
  for (int a = 0; a < query.num_aggs(); ++a) {
    const AggregateSpec spec = query.agg_spec(a);
    int64_t partial = n;
    if (full) {
      partial = Partial(spec.op, n, ZoneFolds{zones_, spec.column, block});
    } else if (spec.op != AggKind::kCount) {
      partial = SlicePartial(spec.op, (*columns_)[spec.column].block(block),
                             off, Run{}, n, ops);
    }
    MergeAggValue(spec.op, partial, out->agg_accumulator(a));
  }
}

}  // namespace tsunami
