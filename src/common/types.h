// Core value, predicate, and query types shared by every index in the library.
#ifndef TSUNAMI_COMMON_TYPES_H_
#define TSUNAMI_COMMON_TYPES_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tsunami {

/// All attributes are 64-bit integers (strings are dictionary encoded and
/// floating point values are scaled to integers prior to indexing, §6.1).
using Value = int64_t;

inline constexpr Value kValueMin = std::numeric_limits<Value>::min();
inline constexpr Value kValueMax = std::numeric_limits<Value>::max();

/// An inclusive range filter `lo <= R.dim <= hi` over one dimension.
/// An equality filter is expressed as `lo == hi`.
struct Predicate {
  int dim = 0;
  Value lo = kValueMin;
  Value hi = kValueMax;

  bool Matches(Value v) const { return lo <= v && v <= hi; }
  bool IsEquality() const { return lo == hi; }
};

/// Supported aggregations. All indexes pay the same aggregation cost, so the
/// paper evaluates COUNT; SUM/MIN/MAX/AVG over a column are provided for the
/// API ("SUM(R.X) can be replaced by any aggregation", §2).
enum class AggKind { kCount, kSum, kMin, kMax, kAvg };

/// Identity element for an aggregate's accumulator: the value such that
/// accumulating any row into it gives that row's contribution.
constexpr int64_t AggIdentity(AggKind kind) {
  switch (kind) {
    case AggKind::kMin:
      return kValueMax;
    case AggKind::kMax:
      return kValueMin;
    default:
      return 0;  // COUNT / SUM / AVG accumulate from zero.
  }
}

/// a + b modulo 2^64: the ring every SUM accumulates in, so overflow wraps
/// the same way in every scan path instead of being undefined.
constexpr int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Folds one matching row's value `v` into the accumulator `agg`. AVG
/// accumulates the sum; the mean is `agg / matched` at finalization.
inline void AccumulateAgg(AggKind kind, Value v, int64_t* agg) {
  switch (kind) {
    case AggKind::kCount:
      ++*agg;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      *agg = WrappingAdd(*agg, v);
      break;
    case AggKind::kMin:
      if (v < *agg) *agg = v;
      break;
    case AggKind::kMax:
      if (v > *agg) *agg = v;
      break;
  }
}

/// One aggregate of a (possibly multi-aggregate) query: the operation and
/// the aggregated column (`column` is ignored for kCount).
struct AggregateSpec {
  AggKind op = AggKind::kCount;
  int column = 0;

  bool operator==(const AggregateSpec&) const = default;
};

/// Most aggregates one query computes. A Query stores its list inline in
/// an array of this size, and its constructor and SetAggregates throw
/// beyond it; the SQL parser and the wire decoder reject a longer list from
/// outside the program with a typed error before any Query is built. The
/// cap keeps statement cost proportional to what a user would reasonably
/// write.
inline constexpr int kMaxQueryAggs = 8;

/// A conjunctive range query:
/// `SELECT AGG1(col), AGG2(col), ... FROM t WHERE p1 AND p2 ...`.
///
/// Aggregates: 1..kMaxQueryAggs specs, one COUNT by default, stored inline
/// so copying a Query allocates nothing for them. Only the constructor and
/// SetAggregates set the list. All aggregates of one query are computed in
/// a single scan pass.
///
/// `type` labels the query type (§4.3.1) when known from the workload
/// generator; -1 means unlabeled (Tsunami will cluster types itself).
struct Query {
  std::vector<Predicate> filters;
  int type = -1;

  Query() = default;
  Query(std::vector<Predicate> fs, const std::vector<AggregateSpec>& specs)
      : filters(std::move(fs)) {
    SetAggregates(specs);
  }

  /// Number of aggregates this query computes (1..kMaxQueryAggs).
  int num_aggs() const { return num_aggs_; }

  /// The i-th aggregate, 0 <= i < num_aggs().
  AggregateSpec agg_spec(int i) const { return aggs_[i]; }

  /// The aggregate list, in SELECT order.
  std::span<const AggregateSpec> aggs() const {
    return {aggs_.data(), static_cast<size_t>(num_aggs_)};
  }

  /// Installs `specs` as this query's aggregates; an empty list resets to
  /// one COUNT. Throws std::invalid_argument for more than kMaxQueryAggs.
  void SetAggregates(std::span<const AggregateSpec> specs) {
    if (specs.size() > static_cast<size_t>(kMaxQueryAggs)) {
      throw std::invalid_argument("more than kMaxQueryAggs aggregates");
    }
    std::copy(specs.begin(), specs.end(), aggs_.begin());
    if (specs.empty()) aggs_[0] = AggregateSpec{};
    num_aggs_ = specs.empty() ? 1 : static_cast<int>(specs.size());
  }
  void SetAggregates(std::initializer_list<AggregateSpec> specs) {
    SetAggregates(std::span<const AggregateSpec>(specs));
  }

  /// Returns the filter over `dim`, or nullptr if the query does not
  /// filter that dimension.
  const Predicate* FilterOn(int dim) const {
    for (const Predicate& p : filters) {
      if (p.dim == dim) return &p;
    }
    return nullptr;
  }

 private:
  std::array<AggregateSpec, kMaxQueryAggs> aggs_{};
  int num_aggs_ = 1;
};

/// Result of executing one query, plus the execution counters used by the
/// paper's cost model and our benchmark reporting.
///
/// Multi-aggregate queries keep their first accumulator in `agg` (so every
/// single-aggregate code path keeps working unchanged) and the accumulators
/// for aggs[1..] in `extra`, parallel to the query's aggregate list.
struct QueryResult {
  int64_t agg = 0;           // First aggregate's accumulator (sum for AVG).
  int64_t scanned = 0;       // Points touched by the scan.
  int64_t matched = 0;       // Points matching all filters.
  int64_t cell_ranges = 0;   // Physical storage ranges visited.
  std::vector<int64_t> extra;  // Accumulators for aggregates 1..N-1.

  /// True when the scan had to skip quarantined (checksum-failed) storage
  /// blocks: the answer is complete over every healthy block but may be
  /// missing rows. `quarantined_blocks` counts the skipped block touches:
  /// planners coalesce ranges that meet into one task, which touches a
  /// block once, but a block shared by two tasks that do not meet (or by
  /// the halves of a task an executor split inside it) counts once each.
  bool degraded = false;
  int64_t quarantined_blocks = 0;

  /// Accumulator for the query's i-th aggregate.
  int64_t agg_value(int i) const { return i == 0 ? agg : extra[i - 1]; }
  int64_t* agg_accumulator(int i) { return i == 0 ? &agg : &extra[i - 1]; }
};

/// Folds one accumulator value into another per the aggregate kind
/// (COUNT/SUM/AVG add modulo 2^64, MIN/MAX take the extremum). Scan
/// kernels fold each block's partial with it too.
inline void MergeAggValue(AggKind kind, int64_t in, int64_t* out) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kSum:
    case AggKind::kAvg:
      *out = WrappingAdd(*out, in);
      break;
    case AggKind::kMin:
      if (in < *out) *out = in;
      break;
    case AggKind::kMax:
      if (in > *out) *out = in;
      break;
  }
}

/// Merges a partial result into `out`: counters add once; every
/// accumulator (primary + extras) combines per its aggregate's kind from
/// `query`. Partials must cover disjoint row sets for counts to be exact.
/// Used by parallel region execution and disjoint-box unions.
inline void MergeQueryResults(const Query& query, const QueryResult& in,
                              QueryResult* out) {
  out->scanned += in.scanned;
  out->matched += in.matched;
  out->cell_ranges += in.cell_ranges;
  out->degraded = out->degraded || in.degraded;
  out->quarantined_blocks += in.quarantined_blocks;
  MergeAggValue(query.agg_spec(0).op, in.agg, &out->agg);
  for (size_t i = 0; i < out->extra.size(); ++i) {
    MergeAggValue(query.agg_spec(static_cast<int>(i) + 1).op, in.extra[i],
                  &out->extra[i]);
  }
}

/// A QueryResult whose accumulators are initialized for the query's
/// aggregates (0 for COUNT/SUM/AVG, +inf for MIN, -inf for MAX). Every
/// index's Execute starts from this.
inline QueryResult InitResult(const Query& query) {
  QueryResult result;
  result.agg = AggIdentity(query.agg_spec(0).op);
  result.extra.resize(query.num_aggs() - 1);
  for (int i = 1; i < query.num_aggs(); ++i) {
    result.extra[i - 1] = AggIdentity(query.agg_spec(i).op);
  }
  return result;
}

/// Final scalar value of the `index`-th aggregate of a finished result: the
/// accumulator itself for COUNT/SUM/MIN/MAX, the mean for AVG. MIN/MAX/AVG
/// over zero matching rows have no defined value; this returns 0 in that
/// case (SQL would return NULL).
inline double FinalAggValue(const Query& query, const QueryResult& result,
                            int index) {
  const AggregateSpec spec = query.agg_spec(index);
  const int64_t acc = result.agg_value(index);
  if (result.matched == 0 && spec.op != AggKind::kCount &&
      spec.op != AggKind::kSum) {
    return 0.0;
  }
  if (spec.op == AggKind::kAvg) {
    return static_cast<double>(acc) / static_cast<double>(result.matched);
  }
  return static_cast<double>(acc);
}

/// Final scalar value of the primary (first) aggregate.
inline double FinalAggValue(const Query& query, const QueryResult& result) {
  return FinalAggValue(query, result, 0);
}

/// 64-bit hash combiner (boost-style golden-ratio mix) used for plan
/// fingerprints.
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

/// `filters` merged to one predicate per filtered dimension, in order of
/// each dimension's first filter: same-dim conjuncts intersect, and an
/// empty intersection (lo > hi) matches nothing. Answer-equivalent to the
/// input on any index, and scanned with one pass per dimension.
inline std::vector<Predicate> MergedFilters(
    const std::vector<Predicate>& filters) {
  std::vector<Predicate> merged;
  for (const Predicate& p : filters) {
    auto same_dim = std::find_if(merged.begin(), merged.end(),
                                 [&](const Predicate& m) {
                                   return m.dim == p.dim;
                                 });
    if (same_dim == merged.end()) {
      merged.push_back(p);
    } else {
      same_dim->lo = std::max(same_dim->lo, p.lo);
      same_dim->hi = std::min(same_dim->hi, p.hi);
    }
  }
  return merged;
}

/// The query's filters normalized into a canonical rectangle: the
/// MergedFilters, sorted by dimension. Two queries with equal normalized
/// filters and equal aggregate lists are answer-equivalent on any index,
/// which is exactly the equivalence a plan cache needs.
inline std::vector<Predicate> NormalizedFilters(const Query& query) {
  std::vector<Predicate> rect = MergedFilters(query.filters);
  std::sort(rect.begin(), rect.end(),
            [](const Predicate& a, const Predicate& b) { return a.dim < b.dim; });
  return rect;
}

/// Fingerprint of a query's normalized filter rectangle plus its aggregate
/// list — the plan-cache key half that depends on the query (the other half
/// is the index the plan addresses). Collisions are possible (64-bit hash);
/// a cache must confirm semantic equivalence on a fingerprint match by
/// comparing the normalized rectangles (NormalizedRectEqual) and aggregate
/// lists — FingerprintEquivalent is the Query-level form. The (rect, aggs)
/// overload lets a caller that already normalized the query hash without
/// renormalizing.
inline uint64_t QueryFingerprint(const std::vector<Predicate>& rect,
                                 std::span<const AggregateSpec> aggs) {
  uint64_t h = 0x5161'7573'6572'7631ULL;  // Arbitrary non-zero seed.
  for (const Predicate& p : rect) {
    h = HashCombine(h, static_cast<uint64_t>(p.dim));
    h = HashCombine(h, static_cast<uint64_t>(p.lo));
    h = HashCombine(h, static_cast<uint64_t>(p.hi));
  }
  h = HashCombine(h, static_cast<uint64_t>(aggs.size()));
  for (const AggregateSpec& spec : aggs) {
    h = HashCombine(h, static_cast<uint64_t>(spec.op));
    h = HashCombine(h, static_cast<uint64_t>(spec.column));
  }
  return h;
}

inline uint64_t QueryFingerprint(const Query& query) {
  return QueryFingerprint(NormalizedFilters(query), query.aggs());
}

/// Element-wise equality of two normalized rectangles — the one
/// fingerprint-collision comparator, shared by FingerprintEquivalent and
/// the plan cache's key so the two can never drift apart.
inline bool NormalizedRectEqual(const std::vector<Predicate>& a,
                                const std::vector<Predicate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dim != b[i].dim || a[i].lo != b[i].lo || a[i].hi != b[i].hi) {
      return false;
    }
  }
  return true;
}

/// True when two queries are answer-equivalent for caching purposes: same
/// normalized filter rectangle and same aggregate list. (The `type` label
/// is irrelevant to execution and deliberately excluded.)
inline bool FingerprintEquivalent(const Query& a, const Query& b) {
  return std::ranges::equal(a.aggs(), b.aggs()) &&
         NormalizedRectEqual(NormalizedFilters(a), NormalizedFilters(b));
}

/// A workload is a list of queries; types, when present, are stored on the
/// queries themselves.
using Workload = std::vector<Query>;

/// Row-major multidimensional dataset used at build time. Indexes reorder it
/// into their clustered layout (via ColumnStore).
class Dataset {
 public:
  Dataset() = default;
  Dataset(int dims, std::vector<Value> row_major)
      : dims_(dims), data_(std::move(row_major)) {}

  int dims() const { return dims_; }
  int64_t size() const {
    return dims_ == 0 ? 0 : static_cast<int64_t>(data_.size()) / dims_;
  }
  Value at(int64_t row, int dim) const { return data_[row * dims_ + dim]; }
  Value& at(int64_t row, int dim) { return data_[row * dims_ + dim]; }

  const std::vector<Value>& raw() const { return data_; }
  std::vector<Value>& raw() { return data_; }

  void Reserve(int64_t rows) { data_.reserve(rows * dims_); }
  void AppendRow(const std::vector<Value>& row) {
    data_.insert(data_.end(), row.begin(), row.end());
  }

 private:
  int dims_ = 0;
  std::vector<Value> data_;
};

/// A dataset together with its generated workload and metadata; produced by
/// the generators in src/datasets.
struct Benchmark {
  std::string name;
  Dataset data;
  Workload workload;
  std::vector<std::string> dim_names;
  int num_query_types = 0;
};

}  // namespace tsunami

#endif  // TSUNAMI_COMMON_TYPES_H_
