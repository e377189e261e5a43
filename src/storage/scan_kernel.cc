#include "src/storage/scan_kernel.h"

#include <algorithm>

#include "src/storage/scan_kernel_simd.h"

namespace tsunami {

namespace {

// ---- Aggregate partials over one block slice ------------------------------
//
// Each aggregate computes its partial over the slice's selected rows (a
// count, sum, min or max) and folds it into its accumulator through
// MergeAggValue, the rule that also merges partial QueryResults. A column
// is folded once per slice, whatever aggregates read it: the tier's fold
// returns the sum, min and max of its codes, lifted into value space
// algebraically: sum(ref + c_j) = n * ref + sum(c_j) (exact modulo 2^64,
// the ring every SUM wraps in), min(ref + c_j) = ref + min(c_j) (exact —
// it reconstructs an original value), likewise max. Raw blocks have ref 0.
// A block the rows cover whole answers from its zone-map entry instead.

// One column's sum/min/max over the selected rows, in value space.
struct ValueFold {
  int64_t sum;
  Value min;
  Value max;
};

// Folds the codes of rows [off, off + count) of the block `view` under
// `mask` (null: every row), n of them selected.
ValueFold FoldSlice(const EncodedColumn::BlockView& view, int64_t off,
                    int count, const uint64_t* mask, int64_t n,
                    const SimdOps& ops) {
  CodeFold f;
  switch (view.width) {
    case 1:
      f = ops.fold_u8(static_cast<const uint8_t*>(view.codes) + off, count,
                      mask);
      break;
    case 2:
      f = ops.fold_u16(static_cast<const uint16_t*>(view.codes) + off, count,
                       mask);
      break;
    case 4:
      f = ops.fold_u32(static_cast<const uint32_t*>(view.codes) + off, count,
                       mask);
      break;
    default:
      f = ops.fold_i64(static_cast<const Value*>(view.codes) + off, count,
                       mask);
      break;
  }
  const uint64_t ref = static_cast<uint64_t>(view.ref);
  return {static_cast<int64_t>(f.sum + ref * static_cast<uint64_t>(n)),
          static_cast<Value>(ref + static_cast<uint64_t>(f.min)),
          static_cast<Value>(ref + static_cast<uint64_t>(f.max))};
}

// The one aggregate switch: merges every aggregate's partial over n
// selected rows into `out`. `fold(column)` is the column's ValueFold; it
// runs once per distinct non-COUNT column (COUNT reads no fold).
template <typename FoldColumn>
void MergePartials(const Query& query, int64_t n, FoldColumn fold,
                   QueryResult* out) {
  int columns[kMaxQueryAggs];
  ValueFold folds[kMaxQueryAggs];
  int cached = 0;
  for (int a = 0; a < query.num_aggs(); ++a) {
    const AggregateSpec spec = query.agg_spec(a);
    int64_t partial = n;
    if (spec.op != AggKind::kCount) {
      int j = 0;
      while (j < cached && columns[j] != spec.column) ++j;
      ValueFold f;
      if (j < cached) {
        f = folds[j];
      } else {
        f = fold(spec.column);
        columns[cached] = spec.column;
        folds[cached++] = f;
      }
      partial = spec.op == AggKind::kMin   ? f.min
                : spec.op == AggKind::kMax ? f.max
                                           : f.sum;  // SUM, AVG.
    }
    MergeAggValue(spec.op, partial, out->agg_accumulator(a));
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
  const int64_t rows = static_cast<int64_t>(column.size());
  for (int64_t b = 0; b < num_blocks_; ++b) {
    const int64_t lo = b * kScanBlockRows;
    const int64_t hi = std::min(rows, lo + kScanBlockRows);
    UpdateBlock(dim, b, column.data() + lo, hi - lo);
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
  const CodeFold f = OpsForTier(SimdTier::kAuto)
                         .fold_i64(values, static_cast<int>(n), nullptr);
  min_[dim][block] = f.min;
  max_[dim][block] = f.max;
  sum_[dim][block] = static_cast<int64_t>(f.sum);
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
    // Zone-map triage, per filter: a block disjoint from any filter
    // contributes nothing. A filter whose range holds the block's
    // [min, max] holds on every row of the block, and so of the slice
    // [lo, hi): it joins `covered` and runs no pass. A block every filter
    // covers needs no per-row checks at all.
    SmallIndexSet covered;
    bool all_match = exact || filters.empty();
    if (!all_match && !zones_->empty()) {
      all_match = true;
      bool skip = false;
      for (size_t i = 0; i < filters.size(); ++i) {
        const Predicate& p = filters[i];
        const Value zmin = zones_->Min(p.dim, b);
        const Value zmax = zones_->Max(p.dim, b);
        if (zmin > p.hi || zmax < p.lo) {
          skip = true;
          break;
        }
        if (p.lo <= zmin && zmax <= p.hi) {
          covered.Insert(i);
        } else {
          all_match = false;
        }
      }
      if (skip) continue;
    }
    if (all_match) {
      out->matched += hi - lo;
      AggregateRun(lo, hi, b, query, ops, out);
      continue;
    }
    ScanBlockSlice(BlockColumns(*columns_, b), lo - b * kScanBlockRows,
                   static_cast<int>(hi - lo), query, covered, ops, out);
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
  // even when an earlier one is already quarantined. A column's verdict is
  // settled by its first check, so a repeat would only re-read it.
  bool ok = true;
  SmallIndexSet checked;
  auto check = [&](int column) {
    if (checked.Insert(static_cast<size_t>(column))) {
      ok = columns[column].EnsureReadable(block) && ok;
    }
  };
  if (!exact) {
    for (const Predicate& p : query.filters) check(p.dim);
  }
  for (int a = 0; a < query.num_aggs(); ++a) {
    const AggregateSpec spec = query.agg_spec(a);
    if (spec.op != AggKind::kCount) check(spec.column);
  }
  if (!ok) {
    out->degraded = true;
    ++out->quarantined_blocks;
  }
  return ok;
}

void ScanBlockSlice(const BlockColumns& columns, int64_t off, int count,
                    const Query& query, SmallIndexSet covered,
                    const SimdOps& ops, QueryResult* out) {
  // Bit i of the mask is row off + i. Each effective predicate ANDs its
  // in-range bits in at its column's code width; `masked` is false until
  // the first pass runs (every predicate so far was covered or spanned the
  // whole block's code domain, so every row is still selected).
  uint64_t mask[kMaskWords];
  bool masked = false;
  int n = count;  // Rows still selected.
  const std::vector<Predicate>& filters = query.filters;
  for (size_t i = 0; i < filters.size(); ++i) {
    if (covered.Contains(i)) continue;  // Holds on every row: no pass.
    const Predicate& p = filters[i];
    const EncodedColumn::BlockView view = columns.view(p.dim);
    CodeRange cr{CodeRange::kCompare, 0, 0};
    if (view.width != 8) {
      cr = TranslateToCodeSpace(p.lo, p.hi, view.ref,
                                CodeDomainMax(view.width));
      if (cr.state == CodeRange::kEmpty) return;
      if (cr.state == CodeRange::kAll) continue;  // Pass is the identity.
    }
    if (!masked) {
      std::fill(mask, mask + kMaskWords, ~uint64_t{0});
      masked = true;
    }
    switch (view.width) {
      case 1:
        n = ops.and_mask_u8(static_cast<const uint8_t*>(view.codes) + off,
                            count, static_cast<uint8_t>(cr.lo),
                            static_cast<uint8_t>(cr.hi), mask);
        break;
      case 2:
        n = ops.and_mask_u16(static_cast<const uint16_t*>(view.codes) + off,
                             count, static_cast<uint16_t>(cr.lo),
                             static_cast<uint16_t>(cr.hi), mask);
        break;
      case 4:
        n = ops.and_mask_u32(static_cast<const uint32_t*>(view.codes) + off,
                             count, static_cast<uint32_t>(cr.lo),
                             static_cast<uint32_t>(cr.hi), mask);
        break;
      default:  // Raw block: compare values directly, untranslated.
        n = ops.and_mask_i64(static_cast<const Value*>(view.codes) + off,
                             count, p.lo, p.hi, mask);
        break;
    }
    if (n == 0) return;
  }
  out->matched += n;
  const uint64_t* rows = masked ? mask : nullptr;
  MergePartials(
      query, n,
      [&](int column) {
        return FoldSlice(columns.view(column), off, count, rows, n, ops);
      },
      out);
}

void ScanKernel::AggregateRun(int64_t begin, int64_t end, int64_t block,
                              const Query& query, const SimdOps& ops,
                              QueryResult* out) const {
  const int64_t n = end - begin;
  if (!zones_->empty() && CoversBlock(begin, end, block)) {
    MergePartials(
        query, n,
        [&](int column) {
          return ValueFold{zones_->Sum(column, block),
                           zones_->Min(column, block),
                           zones_->Max(column, block)};
        },
        out);
    return;
  }
  const int64_t off = begin - block * kScanBlockRows;
  MergePartials(
      query, n,
      [&](int column) {
        return FoldSlice((*columns_)[column].block(block), off,
                         static_cast<int>(n), nullptr, n, ops);
      },
      out);
}

}  // namespace tsunami
