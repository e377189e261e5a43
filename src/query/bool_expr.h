// Disjunctive filter support: boolean predicate trees (AND / OR / NOT over
// range and equality predicates), normalization to disjoint axis-aligned
// boxes, and execution of box unions over any MultiDimIndex.
//
// The paper's query class (§2) is conjunctive; real analytics statements
// also use OR, IN (...), and NOT. Every such WHERE clause over range
// predicates denotes a finite union of axis-aligned rectangles, so it can be
// served exactly by a conjunctive-rectangle index: normalize the expression
// to DNF, turn each conjunct into a box, make the boxes pairwise disjoint
// (so COUNT/SUM do not double-count), and run one index query per box.
#ifndef TSUNAMI_QUERY_BOOL_EXPR_H_
#define TSUNAMI_QUERY_BOOL_EXPR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"

namespace tsunami {

/// An axis-aligned box over all `d` dimensions, inclusive on both ends.
/// Dimensions a filter does not constrain hold [kValueMin, kValueMax].
struct Box {
  std::vector<Value> lo;
  std::vector<Value> hi;

  /// The all-space box over `dims` dimensions.
  static Box All(int dims);

  int dims() const { return static_cast<int>(lo.size()); }
  bool Empty() const;
  bool Contains(const std::vector<Value>& point) const;

  /// Narrows this box by `lo <= dim <= hi` (intersection).
  void Intersect(const Predicate& p);

  /// The conjunctive Query this box denotes: one filter per dimension that
  /// is narrower than the full value domain. Aggregate settings are copied
  /// from `proto`.
  Query ToQuery(const Query& proto) const;

  bool operator==(const Box&) const = default;
};

/// A boolean combination of single-dimension range predicates.
///
/// Leaves hold a bound Predicate; kNot has exactly one child; kAnd / kOr
/// have one or more. An empty kAnd is `true`; an empty kOr is `false`.
struct BoolExpr {
  enum class Kind { kLeaf, kAnd, kOr, kNot };

  Kind kind = Kind::kAnd;  // Default: empty AND == `true` (no WHERE clause).
  Predicate leaf;
  std::vector<BoolExpr> children;

  static BoolExpr Leaf(Predicate p);
  static BoolExpr And(std::vector<BoolExpr> cs);
  static BoolExpr Or(std::vector<BoolExpr> cs);
  static BoolExpr Not(BoolExpr c);

  /// True when the expression is a (possibly empty) conjunction of leaves —
  /// the paper's query class, servable by one index query.
  bool IsConjunctive() const;

  /// Evaluates the expression on one point (reference semantics for
  /// tests).
  bool Matches(const std::vector<Value>& point) const;

  /// Compact notation, e.g. "(d0 in [3, 8] AND NOT d1 in [5, 5])".
  std::string ToString() const;
};

/// Limits for normalization. DNF can blow up exponentially in the number of
/// OR alternations; conversion fails cleanly past the cap instead of eating
/// unbounded memory.
struct NormalizeLimits {
  int64_t max_boxes = 1 << 14;
};

/// Normalizes `expr` over `dims` dimensions into *pairwise disjoint* boxes
/// whose union contains exactly the points matching `expr`. Empty output
/// with ok=true means the expression is unsatisfiable.
struct NormalizeResult {
  bool ok = false;
  std::string error;
  std::vector<Box> boxes;
};
NormalizeResult ToDisjointBoxes(const BoolExpr& expr, int dims,
                                const NormalizeLimits& limits = {});

/// Subtracts `b` from `a`: up to 2*dims disjoint boxes covering exactly
/// a \ b. Appends to `out`.
void SubtractBox(const Box& a, const Box& b, std::vector<Box>* out);

/// Executes the union of pairwise-disjoint boxes over `index`, combining
/// per-box results into one QueryResult (counters add; MIN/MAX combine by
/// min/max). `proto` supplies the aggregate list (all aggregates of a
/// multi-aggregate proto are combined).
QueryResult ExecuteBoxUnion(const MultiDimIndex& index,
                            const std::vector<Box>& boxes,
                            const Query& proto);

}  // namespace tsunami

#endif  // TSUNAMI_QUERY_BOOL_EXPR_H_
