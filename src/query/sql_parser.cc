#include "src/query/sql_parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>

namespace tsunami {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

enum class TokenKind { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;  // Points into the statement.
  size_t offset = 0;      // Character offset, for error messages.

  bool IsKeyword(std::string_view kw) const {
    return kind == TokenKind::kIdent && EqualsIgnoreCase(text, kw);
  }
  bool IsSymbol(std::string_view s) const {
    return kind == TokenKind::kSymbol && text == s;
  }
};

/// Splits the statement into tokens. Unterminated strings and stray bytes
/// produce an error token list (signalled through `error`).
class Lexer {
 public:
  explicit Lexer(std::string_view sql) : sql_(sql) {}

  bool Tokenize(std::vector<Token>* out, std::string* error) {
    size_t i = 0;
    while (i < sql_.size()) {
      char c = sql_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < sql_.size() &&
               (std::isalnum(static_cast<unsigned char>(sql_[i])) ||
                sql_[i] == '_')) {
          ++i;
        }
        out->push_back({TokenKind::kIdent, sql_.substr(start, i - start),
                        start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && i + 1 < sql_.size() &&
           std::isdigit(static_cast<unsigned char>(sql_[i + 1])))) {
        size_t start = i;
        bool seen_dot = false;
        while (i < sql_.size() &&
               (std::isdigit(static_cast<unsigned char>(sql_[i])) ||
                (sql_[i] == '.' && !seen_dot))) {
          if (sql_[i] == '.') seen_dot = true;
          ++i;
        }
        out->push_back({TokenKind::kNumber, sql_.substr(start, i - start),
                        start});
        continue;
      }
      if (c == '\'') {
        size_t start = i++;
        while (i < sql_.size() && sql_[i] != '\'') ++i;
        if (i == sql_.size()) {
          *error = "unterminated string literal at offset " +
                   std::to_string(start);
          return false;
        }
        // Text excludes the quotes.
        out->push_back({TokenKind::kString,
                        sql_.substr(start + 1, i - start - 1), start});
        ++i;
        continue;
      }
      // Multi-character comparison operators first.
      if ((c == '<' || c == '>' || c == '!') && i + 1 < sql_.size() &&
          sql_[i + 1] == '=') {
        out->push_back({TokenKind::kSymbol, sql_.substr(i, 2), i});
        i += 2;
        continue;
      }
      if (c == '<' && i + 1 < sql_.size() && sql_[i + 1] == '>') {
        out->push_back({TokenKind::kSymbol, sql_.substr(i, 2), i});
        i += 2;
        continue;
      }
      if (std::string_view("<>=()*,;-").find(c) != std::string_view::npos) {
        out->push_back({TokenKind::kSymbol, sql_.substr(i, 1), i});
        ++i;
        continue;
      }
      *error = std::string("unexpected character '") + c + "' at offset " +
               std::to_string(i);
      return false;
    }
    out->push_back({TokenKind::kEnd, std::string_view(), sql_.size()});
    return true;
  }

 private:
  std::string_view sql_;
};

/// A numeric literal held exactly as (sign, digits, implied denominator
/// 10^frac_digits) so that fixed-point scaling never loses precision.
struct Decimal {
  bool negative = false;
  __int128 numer = 0;  // Digits with the dot removed.
  int64_t denom = 1;   // 10^(number of fractional digits).

  /// Saturates literals beyond the value domain; comparisons against them
  /// then behave like comparisons against the domain bounds.
  static int64_t Saturate(__int128 q) {
    if (q > static_cast<__int128>(kValueMax)) return kValueMax;
    if (q < static_cast<__int128>(kValueMin)) return kValueMin;
    return static_cast<int64_t>(q);
  }

  /// The literal scaled by `scale`, rounded toward -inf (floor) or +inf
  /// (ceil). Exact when the scaled value is integral.
  int64_t Floor(int64_t scale) const {
    __int128 n = (negative ? -numer : numer) * scale;
    __int128 q = n / denom;
    if (n % denom != 0 && n < 0) --q;
    return Saturate(q);
  }
  int64_t Ceil(int64_t scale) const {
    __int128 n = (negative ? -numer : numer) * scale;
    __int128 q = n / denom;
    if (n % denom != 0 && n > 0) ++q;
    return Saturate(q);
  }
  bool IsExact(int64_t scale) const {
    return (numer * scale) % denom == 0;
  }
};

/// One comparison before merging: `column op literal`.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq };

CompareOp Mirror(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
      return CompareOp::kEq;
  }
  return CompareOp::kEq;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const TableSchema& schema)
      : tokens_(std::move(tokens)), schema_(schema) {}

  ParseResult Parse() {
    ParseResult out;
    out.where = BoolExpr::And({});  // No WHERE clause == TRUE.

    if (!Expect("SELECT")) return Fail();
    if (!ParseSelectList(&out.query)) return Fail();
    if (!Expect("FROM")) return Fail();
    if (!ParseTableName()) return Fail();
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      if (!ParseOrExpr(&out.where)) return Fail();
    }
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      error_ = "unexpected trailing input at offset " +
               std::to_string(Peek().offset) + ": '" +
               std::string(Peek().text) + "'";
      return Fail();
    }

    if (out.where.IsConjunctive()) {
      // The paper's query class: merge all leaves into one rectangle.
      std::vector<Value> lo(schema_.columns.size(), kValueMin);
      std::vector<Value> hi(schema_.columns.size(), kValueMax);
      std::vector<bool> touched(schema_.columns.size(), false);
      auto merge = [&](const Predicate& p) {
        lo[p.dim] = std::max(lo[p.dim], p.lo);
        hi[p.dim] = std::min(hi[p.dim], p.hi);
        touched[p.dim] = true;
      };
      if (out.where.kind == BoolExpr::Kind::kLeaf) {
        merge(out.where.leaf);
      } else {
        for (const BoolExpr& c : out.where.children) merge(c.leaf);
      }
      for (size_t d = 0; d < touched.size(); ++d) {
        if (!touched[d]) continue;
        if (lo[d] > hi[d]) out.empty_result = true;
        out.query.filters.push_back(
            Predicate{static_cast<int>(d), lo[d], hi[d]});
      }
    } else {
      out.disjunctive = true;
    }
    out.ok = true;
    return out;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  ParseResult Fail() {
    ParseResult out;
    out.error = error_.empty() ? "parse error" : error_;
    return out;
  }

  bool Expect(std::string_view keyword) {
    if (Peek().IsKeyword(keyword)) {
      Advance();
      return true;
    }
    error_ = "expected " + std::string(keyword) + " at offset " +
             std::to_string(Peek().offset);
    return false;
  }

  bool ExpectSymbol(std::string_view sym) {
    if (Peek().IsSymbol(sym)) {
      Advance();
      return true;
    }
    error_ = "expected '" + std::string(sym) + "' at offset " +
             std::to_string(Peek().offset);
    return false;
  }

  /// One `AGG(col)` / `COUNT(*)` term of the SELECT list.
  bool ParseAggregate(AggregateSpec* spec) {
    const Token& fn = Peek();
    AggKind kind;
    if (fn.IsKeyword("COUNT")) {
      kind = AggKind::kCount;
    } else if (fn.IsKeyword("SUM")) {
      kind = AggKind::kSum;
    } else if (fn.IsKeyword("MIN")) {
      kind = AggKind::kMin;
    } else if (fn.IsKeyword("MAX")) {
      kind = AggKind::kMax;
    } else if (fn.IsKeyword("AVG")) {
      kind = AggKind::kAvg;
    } else {
      error_ = "expected aggregate (COUNT/SUM/MIN/MAX/AVG) at offset " +
               std::to_string(fn.offset);
      return false;
    }
    Advance();
    if (!ExpectSymbol("(")) return false;
    spec->op = kind;
    spec->column = 0;
    if (kind == AggKind::kCount && Peek().IsSymbol("*")) {
      Advance();
    } else {
      const Token& col = Peek();
      if (col.kind != TokenKind::kIdent) {
        error_ = "expected column name in aggregate at offset " +
                 std::to_string(col.offset);
        return false;
      }
      int dim = schema_.ColumnIndex(col.text);
      if (dim < 0) {
        error_ = "unknown column '" + std::string(col.text) + "'";
        return false;
      }
      spec->column = dim;
      Advance();
    }
    return ExpectSymbol(")");
  }

  /// Comma-separated aggregate list; every aggregate of one statement is
  /// computed in a single scan pass.
  bool ParseSelectList(Query* query) {
    std::vector<AggregateSpec> specs;
    while (true) {
      AggregateSpec spec;
      if (!ParseAggregate(&spec)) return false;
      specs.push_back(spec);
      if (static_cast<int>(specs.size()) > kMaxQueryAggs) {
        error_ = "too many aggregates in SELECT list (max " +
                 std::to_string(kMaxQueryAggs) + ")";
        return false;
      }
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    query->SetAggregates(specs);
    return true;
  }

  bool ParseTableName() {
    const Token& name = Peek();
    if (name.kind != TokenKind::kIdent) {
      error_ = "expected table name at offset " +
               std::to_string(name.offset);
      return false;
    }
    if (!schema_.table_name.empty() &&
        !EqualsIgnoreCase(name.text, schema_.table_name)) {
      error_ = "unknown table '" + std::string(name.text) + "' (expected '" +
               schema_.table_name + "')";
      return false;
    }
    Advance();
    return true;
  }

  /// A literal as written: either a string token or a (possibly negated)
  /// number token.
  struct Literal {
    Token token;
    bool negative = false;
  };

  // Boolean expression grammar over predicates; AND binds tighter than OR.
  //   orExpr  := andExpr (OR andExpr)*
  //   andExpr := unary (AND unary)*
  //   unary   := NOT unary | '(' orExpr ')' | predicate
  bool ParseOrExpr(BoolExpr* out) {
    BoolExpr first;
    if (!ParseAndExpr(&first)) return false;
    if (!Peek().IsKeyword("OR")) {
      *out = std::move(first);
      return true;
    }
    std::vector<BoolExpr> alts;
    alts.push_back(std::move(first));
    while (Peek().IsKeyword("OR")) {
      Advance();
      BoolExpr next;
      if (!ParseAndExpr(&next)) return false;
      alts.push_back(std::move(next));
    }
    *out = BoolExpr::Or(std::move(alts));
    return true;
  }

  bool ParseAndExpr(BoolExpr* out) {
    BoolExpr first;
    if (!ParseUnaryExpr(&first)) return false;
    if (!Peek().IsKeyword("AND")) {
      *out = std::move(first);
      return true;
    }
    std::vector<BoolExpr> terms;
    terms.push_back(std::move(first));
    while (Peek().IsKeyword("AND")) {
      Advance();
      BoolExpr next;
      if (!ParseUnaryExpr(&next)) return false;
      terms.push_back(std::move(next));
    }
    // Flatten nested conjunctions so `a AND b AND c` stays recognizable as
    // the paper's conjunctive class even when written `(a AND b) AND c`.
    std::vector<BoolExpr> flat;
    for (BoolExpr& t : terms) {
      if (t.kind == BoolExpr::Kind::kAnd) {
        for (BoolExpr& c : t.children) flat.push_back(std::move(c));
      } else {
        flat.push_back(std::move(t));
      }
    }
    *out = BoolExpr::And(std::move(flat));
    return true;
  }

  bool ParseUnaryExpr(BoolExpr* out) {
    if (Peek().IsKeyword("NOT")) {
      Advance();
      BoolExpr inner;
      if (!ParseUnaryExpr(&inner)) return false;
      *out = BoolExpr::Not(std::move(inner));
      return true;
    }
    if (Peek().IsSymbol("(")) {
      Advance();
      if (!ParseOrExpr(out)) return false;
      return ExpectSymbol(")");
    }
    return ParsePredicate(out);
  }

  // Predicate forms: `col op literal`, `literal op col`,
  // `col [NOT] BETWEEN lit AND lit`, `col [NOT] IN (lit, ...)`,
  // `col != literal`, `col <> literal`.
  bool ParsePredicate(BoolExpr* out) {
    const Token& first = Peek();
    if (first.kind == TokenKind::kIdent) {
      int dim = schema_.ColumnIndex(first.text);
      if (dim < 0) {
        error_ = "unknown column '" + std::string(first.text) + "'";
        return false;
      }
      Advance();
      bool negated = false;
      if (Peek().IsKeyword("NOT")) {
        // Only the composite forms follow `col NOT`.
        Advance();
        negated = true;
        if (!Peek().IsKeyword("BETWEEN") && !Peek().IsKeyword("IN")) {
          error_ = "expected BETWEEN or IN after NOT at offset " +
                   std::to_string(Peek().offset);
          return false;
        }
      }
      if (Peek().IsKeyword("BETWEEN")) {
        Advance();
        Literal lo_lit, hi_lit;
        if (!ParseLiteral(&lo_lit)) return false;
        if (!Expect("AND")) return false;
        if (!ParseLiteral(&hi_lit)) return false;
        Predicate lo_p, hi_p;
        if (!MakePredicate(dim, CompareOp::kGe, lo_lit, &lo_p) ||
            !MakePredicate(dim, CompareOp::kLe, hi_lit, &hi_p)) {
          return false;
        }
        std::vector<BoolExpr> terms;
        terms.push_back(BoolExpr::Leaf(lo_p));
        terms.push_back(BoolExpr::Leaf(hi_p));
        *out = BoolExpr::And(std::move(terms));
        if (negated) *out = BoolExpr::Not(std::move(*out));
        return true;
      }
      if (Peek().IsKeyword("IN")) {
        Advance();
        if (!ExpectSymbol("(")) return false;
        std::vector<BoolExpr> alts;
        while (true) {
          Literal lit;
          if (!ParseLiteral(&lit)) return false;
          Predicate p;
          if (!MakePredicate(dim, CompareOp::kEq, lit, &p)) return false;
          alts.push_back(BoolExpr::Leaf(p));
          if (Peek().IsSymbol(",")) {
            Advance();
            continue;
          }
          break;
        }
        if (!ExpectSymbol(")")) return false;
        *out = BoolExpr::Or(std::move(alts));
        if (negated) *out = BoolExpr::Not(std::move(*out));
        return true;
      }
      CompareOp op;
      bool op_negated = false;
      if (!ParseOp(&op, &op_negated)) return false;
      Literal lit;
      if (!ParseLiteral(&lit)) return false;
      Predicate p;
      if (!MakePredicate(dim, op, lit, &p)) return false;
      *out = BoolExpr::Leaf(p);
      if (op_negated) *out = BoolExpr::Not(std::move(*out));
      return true;
    }
    // literal op col
    Literal lit;
    if (!ParseLiteral(&lit)) return false;
    CompareOp op;
    bool op_negated = false;
    if (!ParseOp(&op, &op_negated)) return false;
    const Token& col = Peek();
    if (col.kind != TokenKind::kIdent) {
      error_ = "expected column name at offset " +
               std::to_string(col.offset);
      return false;
    }
    int dim = schema_.ColumnIndex(col.text);
    if (dim < 0) {
      error_ = "unknown column '" + std::string(col.text) + "'";
      return false;
    }
    Advance();
    Predicate p;
    if (!MakePredicate(dim, Mirror(op), lit, &p)) return false;
    *out = BoolExpr::Leaf(p);
    if (op_negated) *out = BoolExpr::Not(std::move(*out));
    return true;
  }

  /// `negated` is set for `!=` / `<>`, which parse as an equality the
  /// caller wraps in NOT.
  bool ParseOp(CompareOp* op, bool* negated) {
    const Token& t = Peek();
    *negated = false;
    if (t.IsSymbol("<")) {
      *op = CompareOp::kLt;
    } else if (t.IsSymbol("<=")) {
      *op = CompareOp::kLe;
    } else if (t.IsSymbol(">")) {
      *op = CompareOp::kGt;
    } else if (t.IsSymbol(">=")) {
      *op = CompareOp::kGe;
    } else if (t.IsSymbol("=")) {
      *op = CompareOp::kEq;
    } else if (t.IsSymbol("!=") || t.IsSymbol("<>")) {
      *op = CompareOp::kEq;
      *negated = true;
    } else {
      error_ = "expected comparison operator at offset " +
               std::to_string(t.offset);
      return false;
    }
    Advance();
    return true;
  }

  /// Consumes a number (with optional leading '-') or string token.
  bool ParseLiteral(Literal* out) {
    out->negative = false;
    if (Peek().IsSymbol("-")) {
      out->negative = true;
      Advance();
    }
    const Token& t = Peek();
    if (t.kind == TokenKind::kString) {
      if (out->negative) {
        error_ = "cannot negate a string literal at offset " +
                 std::to_string(t.offset);
        return false;
      }
      out->token = t;
      Advance();
      return true;
    }
    if (t.kind != TokenKind::kNumber) {
      error_ = "expected literal at offset " + std::to_string(t.offset);
      return false;
    }
    out->token = t;
    Advance();
    return true;
  }

  bool ParseDecimal(const Literal& lit, Decimal* out) {
    out->negative = lit.negative;
    out->numer = 0;
    out->denom = 1;
    bool frac = false;
    for (char c : lit.token.text) {
      if (c == '.') {
        frac = true;
        continue;
      }
      out->numer = out->numer * 10 + (c - '0');
      if (frac) out->denom *= 10;
      if (out->numer > (__int128{1} << 100)) {
        error_ = "numeric literal too large at offset " +
                 std::to_string(lit.token.offset);
        return false;
      }
    }
    return true;
  }

  /// Binds `dim op literal` to a single range predicate. Unsatisfiable
  /// comparisons (unknown dictionary string, fractional equality on an
  /// integer column) produce the canonical empty range lo=1, hi=0.
  bool MakePredicate(int dim, CompareOp op, const Literal& lit,
                     Predicate* out) {
    Value lo = kValueMin, hi = kValueMax;
    if (lit.token.kind == TokenKind::kString) {
      const Dictionary* dict = schema_.DictionaryOf(dim);
      if (dict == nullptr) {
        error_ = "column '" + schema_.columns[dim] +
                 "' is numeric; string literal not allowed";
        return false;
      }
      const std::string s(lit.token.text);
      switch (op) {
        case CompareOp::kEq: {
          Value code = dict->Encode(s);
          if (code < 0) {
            lo = 1;
            hi = 0;  // Not in dictionary: matches nothing.
          } else {
            lo = hi = code;
          }
          break;
        }
        case CompareOp::kLe:
          hi = dict->EncodeUpperBound(s);
          break;
        case CompareOp::kLt:
          hi = dict->EncodeLowerBound(s) - 1;
          break;
        case CompareOp::kGe:
          lo = dict->EncodeLowerBound(s);
          break;
        case CompareOp::kGt:
          lo = dict->EncodeUpperBound(s) + 1;
          break;
      }
    } else {
      Decimal d;
      if (!ParseDecimal(lit, &d)) return false;
      int64_t scale = schema_.ScaleOf(dim);
      switch (op) {
        case CompareOp::kEq:
          if (!d.IsExact(scale)) {
            lo = 1;
            hi = 0;  // E.g. `col = 1.5` on an integer column.
          } else {
            lo = hi = d.Floor(scale);
          }
          break;
        case CompareOp::kLe:
          hi = d.Floor(scale);
          break;
        case CompareOp::kLt: {
          Value bound = d.Ceil(scale);
          if (bound == kValueMin) {  // `x < min` matches nothing.
            lo = 1;
            hi = 0;
          } else {
            hi = bound - 1;
          }
          break;
        }
        case CompareOp::kGe:
          lo = d.Ceil(scale);
          break;
        case CompareOp::kGt: {
          Value bound = d.Floor(scale);
          if (bound == kValueMax) {  // `x > max` matches nothing.
            lo = 1;
            hi = 0;
          } else {
            lo = bound + 1;
          }
          break;
        }
      }
    }
    out->dim = dim;
    out->lo = lo;
    out->hi = hi;
    return true;
  }

  std::vector<Token> tokens_;
  const TableSchema& schema_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

int TableSchema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i], name)) return static_cast<int>(i);
  }
  return -1;
}

int64_t TableSchema::ScaleOf(int column) const {
  if (column < 0 || column >= static_cast<int>(scales.size())) return 1;
  return scales[column] > 0 ? scales[column] : 1;
}

const Dictionary* TableSchema::DictionaryOf(int column) const {
  if (column < 0 || column >= static_cast<int>(dictionaries.size())) {
    return nullptr;
  }
  return dictionaries[column];
}

ParseResult ParseSql(std::string_view sql, const TableSchema& schema) {
  std::vector<Token> tokens;
  std::string error;
  if (!Lexer(sql).Tokenize(&tokens, &error)) {
    ParseResult out;
    out.error = error;
    return out;
  }
  return Parser(std::move(tokens), schema).Parse();
}

}  // namespace tsunami
