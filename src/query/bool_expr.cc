#include "src/query/bool_expr.h"

#include <algorithm>
#include <utility>

namespace tsunami {

Box Box::All(int dims) {
  Box box;
  box.lo.assign(dims, kValueMin);
  box.hi.assign(dims, kValueMax);
  return box;
}

bool Box::Empty() const {
  for (int d = 0; d < dims(); ++d) {
    if (lo[d] > hi[d]) return true;
  }
  return false;
}

bool Box::Contains(const std::vector<Value>& point) const {
  for (int d = 0; d < dims(); ++d) {
    if (point[d] < lo[d] || point[d] > hi[d]) return false;
  }
  return true;
}

void Box::Intersect(const Predicate& p) {
  lo[p.dim] = std::max(lo[p.dim], p.lo);
  hi[p.dim] = std::min(hi[p.dim], p.hi);
}

Query Box::ToQuery(const Query& proto) const {
  Query q;
  q.SetAggregates(proto.aggs());
  q.type = proto.type;
  for (int d = 0; d < dims(); ++d) {
    if (lo[d] != kValueMin || hi[d] != kValueMax) {
      q.filters.push_back(Predicate{d, lo[d], hi[d]});
    }
  }
  return q;
}

BoolExpr BoolExpr::Leaf(Predicate p) {
  BoolExpr e;
  e.kind = Kind::kLeaf;
  e.leaf = p;
  return e;
}

BoolExpr BoolExpr::And(std::vector<BoolExpr> cs) {
  BoolExpr e;
  e.kind = Kind::kAnd;
  e.children = std::move(cs);
  return e;
}

BoolExpr BoolExpr::Or(std::vector<BoolExpr> cs) {
  BoolExpr e;
  e.kind = Kind::kOr;
  e.children = std::move(cs);
  return e;
}

BoolExpr BoolExpr::Not(BoolExpr c) {
  BoolExpr e;
  e.kind = Kind::kNot;
  e.children.push_back(std::move(c));
  return e;
}

bool BoolExpr::IsConjunctive() const {
  if (kind == Kind::kLeaf) return true;
  if (kind != Kind::kAnd) return false;
  for (const BoolExpr& c : children) {
    if (c.kind != Kind::kLeaf) return false;
  }
  return true;
}

bool BoolExpr::Matches(const std::vector<Value>& point) const {
  switch (kind) {
    case Kind::kLeaf:
      return leaf.Matches(point[leaf.dim]);
    case Kind::kAnd:
      for (const BoolExpr& c : children) {
        if (!c.Matches(point)) return false;
      }
      return true;
    case Kind::kOr:
      for (const BoolExpr& c : children) {
        if (c.Matches(point)) return true;
      }
      return false;
    case Kind::kNot:
      return !children[0].Matches(point);
  }
  return false;
}

std::string BoolExpr::ToString() const {
  switch (kind) {
    case Kind::kLeaf:
      return "d" + std::to_string(leaf.dim) + " in [" +
             std::to_string(leaf.lo) + ", " + std::to_string(leaf.hi) + "]";
    case Kind::kNot:
      return "NOT " + children[0].ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      if (children.empty()) return kind == Kind::kAnd ? "TRUE" : "FALSE";
      std::string sep = kind == Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += sep;
        out += children[i].ToString();
      }
      return out + ")";
    }
  }
  return "";
}

namespace {

// Rewrites `expr` into negation normal form: NOT is eliminated entirely.
// The negation of a leaf `lo <= x <= hi` is the union of the two outside
// ranges; sides that fall off the value domain are dropped.
BoolExpr ToNnf(const BoolExpr& expr, bool negate) {
  switch (expr.kind) {
    case BoolExpr::Kind::kLeaf: {
      if (!negate) return expr;
      // An empty leaf (lo > hi) negates to all-space.
      if (expr.leaf.lo > expr.leaf.hi) {
        return BoolExpr::Leaf(Predicate{expr.leaf.dim, kValueMin, kValueMax});
      }
      std::vector<BoolExpr> parts;
      if (expr.leaf.lo > kValueMin) {
        parts.push_back(BoolExpr::Leaf(
            Predicate{expr.leaf.dim, kValueMin, expr.leaf.lo - 1}));
      }
      if (expr.leaf.hi < kValueMax) {
        parts.push_back(BoolExpr::Leaf(
            Predicate{expr.leaf.dim, expr.leaf.hi + 1, kValueMax}));
      }
      // A full-domain leaf negates to the empty OR, i.e. `false`.
      return BoolExpr::Or(std::move(parts));
    }
    case BoolExpr::Kind::kNot:
      return ToNnf(expr.children[0], !negate);
    case BoolExpr::Kind::kAnd:
    case BoolExpr::Kind::kOr: {
      bool is_and = (expr.kind == BoolExpr::Kind::kAnd) != negate;
      std::vector<BoolExpr> cs;
      cs.reserve(expr.children.size());
      for (const BoolExpr& c : expr.children) cs.push_back(ToNnf(c, negate));
      return is_and ? BoolExpr::And(std::move(cs))
                    : BoolExpr::Or(std::move(cs));
    }
  }
  return expr;
}

// Expands an NNF expression into a union of (possibly overlapping) boxes.
// Returns false if the expansion exceeds `max_boxes` at any point.
bool ExpandToBoxes(const BoolExpr& expr, int dims, int64_t max_boxes,
                   std::vector<Box>* out) {
  switch (expr.kind) {
    case BoolExpr::Kind::kLeaf: {
      Box box = Box::All(dims);
      box.Intersect(expr.leaf);
      if (!box.Empty()) out->push_back(std::move(box));
      return true;
    }
    case BoolExpr::Kind::kOr: {
      for (const BoolExpr& c : expr.children) {
        if (!ExpandToBoxes(c, dims, max_boxes, out)) return false;
        if (static_cast<int64_t>(out->size()) > max_boxes) return false;
      }
      return true;
    }
    case BoolExpr::Kind::kAnd: {
      // Cross product of the children's box lists, intersecting as we go.
      std::vector<Box> acc = {Box::All(dims)};
      for (const BoolExpr& c : expr.children) {
        std::vector<Box> child_boxes;
        if (!ExpandToBoxes(c, dims, max_boxes, &child_boxes)) return false;
        std::vector<Box> next;
        for (const Box& a : acc) {
          for (const Box& b : child_boxes) {
            Box merged = a;
            for (int d = 0; d < dims; ++d) {
              merged.lo[d] = std::max(merged.lo[d], b.lo[d]);
              merged.hi[d] = std::min(merged.hi[d], b.hi[d]);
            }
            if (!merged.Empty()) next.push_back(std::move(merged));
            if (static_cast<int64_t>(next.size()) > max_boxes) return false;
          }
        }
        acc = std::move(next);
        if (acc.empty()) break;  // Contradiction: whole AND is empty.
      }
      out->insert(out->end(), std::make_move_iterator(acc.begin()),
                  std::make_move_iterator(acc.end()));
      return static_cast<int64_t>(out->size()) <= max_boxes;
    }
    case BoolExpr::Kind::kNot:
      // Unreachable after NNF.
      return false;
  }
  return false;
}

}  // namespace

void SubtractBox(const Box& a, const Box& b, std::vector<Box>* out) {
  // No overlap: a survives whole.
  Box overlap = a;
  for (int d = 0; d < a.dims(); ++d) {
    overlap.lo[d] = std::max(overlap.lo[d], b.lo[d]);
    overlap.hi[d] = std::min(overlap.hi[d], b.hi[d]);
  }
  if (overlap.Empty()) {
    out->push_back(a);
    return;
  }
  // Carve off the parts of `a` outside the overlap, one dimension at a
  // time; `rest` shrinks to the overlap as we go, so emitted pieces are
  // pairwise disjoint.
  Box rest = a;
  for (int d = 0; d < a.dims(); ++d) {
    if (rest.lo[d] < overlap.lo[d]) {
      Box below = rest;
      below.hi[d] = overlap.lo[d] - 1;
      out->push_back(std::move(below));
      rest.lo[d] = overlap.lo[d];
    }
    if (rest.hi[d] > overlap.hi[d]) {
      Box above = rest;
      above.lo[d] = overlap.hi[d] + 1;
      out->push_back(std::move(above));
      rest.hi[d] = overlap.hi[d];
    }
  }
  // `rest` is now exactly the overlap — dropped.
}

NormalizeResult ToDisjointBoxes(const BoolExpr& expr, int dims,
                                const NormalizeLimits& limits) {
  NormalizeResult result;
  BoolExpr nnf = ToNnf(expr, /*negate=*/false);
  std::vector<Box> raw;
  if (!ExpandToBoxes(nnf, dims, limits.max_boxes, &raw)) {
    result.error = "DNF expansion exceeds " +
                   std::to_string(limits.max_boxes) + " boxes";
    return result;
  }
  // Make the union disjoint: each new box keeps only the part not covered
  // by boxes already accepted.
  std::vector<Box>& disjoint = result.boxes;
  for (const Box& box : raw) {
    std::vector<Box> fragments = {box};
    for (const Box& seen : disjoint) {
      std::vector<Box> next;
      for (const Box& frag : fragments) SubtractBox(frag, seen, &next);
      fragments = std::move(next);
      if (fragments.empty()) break;
      if (static_cast<int64_t>(disjoint.size() + fragments.size()) >
          limits.max_boxes) {
        result.error = "disjoint decomposition exceeds " +
                       std::to_string(limits.max_boxes) + " boxes";
        return result;
      }
    }
    disjoint.insert(disjoint.end(),
                    std::make_move_iterator(fragments.begin()),
                    std::make_move_iterator(fragments.end()));
  }
  result.ok = true;
  return result;
}

QueryResult ExecuteBoxUnion(const MultiDimIndex& index,
                            const std::vector<Box>& boxes,
                            const Query& proto) {
  QueryResult total = InitResult(proto);
  for (const Box& box : boxes) {
    if (box.Empty()) continue;
    MergeQueryResults(proto, index.Execute(box.ToQuery(proto)), &total);
  }
  return total;
}

}  // namespace tsunami
