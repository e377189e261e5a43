// Row-at-a-time reference scan: the oracle the scan-kernel suites compare
// every SIMD tier, codec and delta-chunk path against. It reads ColumnStore
// rows [begin, end) one at a time through EncodedColumn::Get and folds each
// match with AccumulateAgg, sharing none of the kernel's block code. It
// keeps the kernel's observable contract:
//   - exact ranges skip the filter checks;
//   - an all-COUNT exact range touches no column (no integrity gate, no
//     `scanned`);
//   - a block with an unreadable column the query reads
//     (EncodedColumn::EnsureReadable fails) is skipped, uncharged from
//     `scanned`, counted in `quarantined_blocks`, and sets `degraded`.
#ifndef TSUNAMI_TESTS_SCAN_ORACLE_H_
#define TSUNAMI_TESTS_SCAN_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/storage/column_store.h"
#include "src/storage/scan_kernel.h"

namespace tsunami {

// True when every column the query reads in `block` is readable; otherwise
// flags `out` degraded and counts the block. Checks every column (no
// short-circuit), like the kernel, so lazy verification advances alike.
inline bool OracleBlockReadable(const ColumnStore& store, int64_t block,
                                const Query& query, bool exact,
                                QueryResult* out) {
  bool ok = true;
  if (!exact) {
    for (const Predicate& p : query.filters) {
      ok = store.encoded(p.dim).EnsureReadable(block) && ok;
    }
  }
  for (int a = 0; a < query.num_aggs(); ++a) {
    const AggregateSpec spec = query.agg_spec(a);
    if (spec.op != AggKind::kCount) {
      ok = store.encoded(spec.column).EnsureReadable(block) && ok;
    }
  }
  if (!ok) {
    out->degraded = true;
    ++out->quarantined_blocks;
  }
  return ok;
}

inline bool OracleRowMatches(const ColumnStore& store, int64_t row,
                             const std::vector<Predicate>& filters) {
  for (const Predicate& p : filters) {
    if (!p.Matches(store.encoded(p.dim).Get(row))) return false;
  }
  return true;
}

// Scans [begin, end) of `store` row by row into `out` (cell_ranges
// untouched), with the kernel's semantics.
inline void OracleScan(const ColumnStore& store, int64_t begin, int64_t end,
                       const Query& query, bool exact, QueryResult* out) {
  if (begin >= end) return;
  const int num_aggs = query.num_aggs();
  bool touches_data = !exact;
  for (int a = 0; a < num_aggs; ++a) {
    touches_data = touches_data || query.agg_spec(a).op != AggKind::kCount;
  }
  if (!touches_data) {
    out->matched += end - begin;
    for (int a = 0; a < num_aggs; ++a) *out->agg_accumulator(a) += end - begin;
    return;
  }
  out->scanned += end - begin;
  for (int64_t lo = begin; lo < end;) {
    const int64_t b = lo / kScanBlockRows;
    const int64_t hi = std::min(end, (b + 1) * kScanBlockRows);
    if (!OracleBlockReadable(store, b, query, exact, out)) {
      out->scanned -= hi - lo;  // Skipped, never read: not scanned.
      lo = hi;
      continue;
    }
    for (int64_t r = lo; r < hi; ++r) {
      if (!exact && !OracleRowMatches(store, r, query.filters)) continue;
      ++out->matched;
      for (int a = 0; a < num_aggs; ++a) {
        const AggregateSpec spec = query.agg_spec(a);
        AccumulateAgg(spec.op,
                      spec.op == AggKind::kCount
                          ? 0
                          : store.encoded(spec.column).Get(r),
                      out->agg_accumulator(a));
      }
    }
    lo = hi;
  }
}

// OracleScan over every task in order, into one accumulator.
inline void OracleScanTasks(const ColumnStore& store,
                            std::span<const RangeTask> tasks,
                            const Query& query, QueryResult* out) {
  for (const RangeTask& task : tasks) {
    OracleScan(store, task.begin, task.end, query, task.exact, out);
  }
}

}  // namespace tsunami

#endif  // TSUNAMI_TESTS_SCAN_ORACLE_H_
