#include "focq/logic/parser.h"

#include <cctype>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "focq/logic/build.h"
#include "focq/util/parse_number.h"

// Local helper: propagate a Status out of a Result-returning function.
#define FOCQ_RETURN_IF_ERROR_R(expr)                \
  do {                                              \
    ::focq::Status s__ = (expr);                    \
    if (!s__.ok()) return s__;                      \
  } while (0)

namespace focq {
namespace {

enum class TokKind {
  kIdent,   // names and variables
  kInt,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kBang,
  kAmp,
  kPipe,
  kPlus,
  kMinus,
  kStar,
  kEquals,
  kAt,
  kHash,
  kLeq,     // "<="
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;   // for kIdent
  CountInt value = 0; // for kInt
  std::size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Status Tokenize(std::vector<Token>* out) {
    std::size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token tok;
      tok.pos = i;
      if (std::isdigit(static_cast<unsigned char>(c))) {
        std::size_t start = i;
        while (i < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[i]))) {
          ++i;
        }
        tok.kind = TokKind::kInt;
        if (!ParseNumber(text_.substr(start, i - start), &tok.value)) {
          return Status::InvalidArgument(
              "integer literal out of range at offset " +
              std::to_string(start));
        }
        out->push_back(tok);
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t start = i;
        // '$' appears in generated fresh-variable names, so printed
        // expressions stay parseable.
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_' || text_[i] == '\'' || text_[i] == '$')) {
          ++i;
        }
        tok.kind = TokKind::kIdent;
        tok.text = std::string(text_.substr(start, i - start));
        out->push_back(tok);
        continue;
      }
      if (c == '<' && i + 1 < text_.size() && text_[i + 1] == '=') {
        tok.kind = TokKind::kLeq;
        out->push_back(tok);
        i += 2;
        continue;
      }
      switch (c) {
        case '(': tok.kind = TokKind::kLParen; break;
        case ')': tok.kind = TokKind::kRParen; break;
        case ',': tok.kind = TokKind::kComma; break;
        case '.': tok.kind = TokKind::kDot; break;
        case '!': tok.kind = TokKind::kBang; break;
        case '&': tok.kind = TokKind::kAmp; break;
        case '|': tok.kind = TokKind::kPipe; break;
        case '+': tok.kind = TokKind::kPlus; break;
        case '-': tok.kind = TokKind::kMinus; break;
        case '*': tok.kind = TokKind::kStar; break;
        case '=': tok.kind = TokKind::kEquals; break;
        case '@': tok.kind = TokKind::kAt; break;
        case '#': tok.kind = TokKind::kHash; break;
        default:
          return Status::InvalidArgument("unexpected character '" +
                                         std::string(1, c) + "' at offset " +
                                         std::to_string(i));
      }
      out->push_back(tok);
      ++i;
    }
    Token end;
    end.kind = TokKind::kEnd;
    end.pos = text_.size();
    out->push_back(end);
    return Status::Ok();
  }

 private:
  std::string_view text_;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const PredicateCollection& preds)
      : tokens_(std::move(tokens)), preds_(preds) {}

  Result<Formula> ParseFormulaToEnd() {
    Result<Formula> f = ParseOr();
    if (!f.ok()) return f;
    FOCQ_RETURN_IF_ERROR_R(ExpectEnd());
    return f;
  }

  Result<Term> ParseTermToEnd() {
    Result<Term> t = ParseAdd();
    if (!t.ok()) return t;
    FOCQ_RETURN_IF_ERROR_R(ExpectEnd());
    return t;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Advance() { return tokens_[pos_++]; }
  bool Match(TokKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(TokKind kind, const char* what) {
    if (!Match(kind)) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " at offset " + std::to_string(Peek().pos));
    }
    return Status::Ok();
  }

  Status ExpectEnd() { return Expect(TokKind::kEnd, "end of input"); }

  Result<Formula> ParseOr() {
    Result<Formula> first = ParseAnd();
    if (!first.ok()) return first;
    std::vector<Formula> parts = {*first};
    while (Match(TokKind::kPipe)) {
      Result<Formula> next = ParseAnd();
      if (!next.ok()) return next;
      parts.push_back(*next);
    }
    return Or(std::move(parts));
  }

  Result<Formula> ParseAnd() {
    Result<Formula> first = ParseUnaryFormula();
    if (!first.ok()) return first;
    std::vector<Formula> parts = {*first};
    while (Match(TokKind::kAmp)) {
      Result<Formula> next = ParseUnaryFormula();
      if (!next.ok()) return next;
      parts.push_back(*next);
    }
    return And(std::move(parts));
  }

  Result<Formula> ParseUnaryFormula() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokKind::kBang: {
        Advance();
        Result<Formula> inner = ParseUnaryFormula();
        if (!inner.ok()) return inner;
        return Not(*inner);
      }
      case TokKind::kLParen: {
        Advance();
        Result<Formula> inner = ParseOr();
        if (!inner.ok()) return inner;
        FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kRParen, "')'"));
        return inner;
      }
      case TokKind::kAt:
        return ParseNumPred();
      case TokKind::kIdent:
        return ParseIdentFormula();
      case TokKind::kLeq:
        return ParseIdentFormula();  // atom whose symbol name is "<="
      default:
        return Status::InvalidArgument("expected a formula at offset " +
                                       std::to_string(tok.pos));
    }
  }

  Result<Formula> ParseNumPred() {
    FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kAt, "'@'"));
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected predicate name after '@'");
    }
    std::string name = Advance().text;
    PredicateRef pred = preds_.Find(name);
    if (pred == nullptr) {
      return Status::NotFound("unknown numerical predicate '" + name + "'");
    }
    FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kLParen, "'('"));
    std::vector<Term> args;
    if (Peek().kind != TokKind::kRParen) {
      for (;;) {
        Result<Term> t = ParseAdd();
        if (!t.ok()) return t.status();
        args.push_back(*t);
        if (!Match(TokKind::kComma)) break;
      }
    }
    FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kRParen, "')'"));
    if (pred->arity() != static_cast<int>(args.size())) {
      return Status::InvalidArgument(
          "predicate '" + name + "' expects " + std::to_string(pred->arity()) +
          " arguments, got " + std::to_string(args.size()));
    }
    return Pred(std::move(pred), std::move(args));
  }

  Result<Formula> ParseIdentFormula() {
    Token tok = Advance();
    std::string name = tok.kind == TokKind::kLeq ? "<=" : tok.text;
    if (name == "true") return True();
    if (name == "false") return False();
    if (name == "exists" || name == "forall") {
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected variable after quantifier");
      }
      Var v = VarNamed(Advance().text);
      FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kDot, "'.'"));
      Result<Formula> body = ParseOr();
      if (!body.ok()) return body;
      return name == "exists" ? Exists(v, *body) : Forall(v, *body);
    }
    if (name == "dist") {
      FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kLParen, "'('"));
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected variable in dist()");
      }
      Var x = VarNamed(Advance().text);
      FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kComma, "','"));
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected variable in dist()");
      }
      Var y = VarNamed(Advance().text);
      FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kRParen, "')'"));
      FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kLeq, "'<='"));
      if (Peek().kind != TokKind::kInt) {
        return Status::InvalidArgument("expected distance bound");
      }
      const Token bound = Advance();
      if (bound.value > std::numeric_limits<std::uint32_t>::max()) {
        return Status::InvalidArgument(
            "distance bound out of range at offset " +
            std::to_string(bound.pos));
      }
      return DistAtMost(x, y, static_cast<std::uint32_t>(bound.value));
    }
    if (Peek().kind == TokKind::kLParen) {
      // Relation atom.
      Advance();
      std::vector<Var> args;
      if (Peek().kind != TokKind::kRParen) {
        for (;;) {
          if (Peek().kind != TokKind::kIdent) {
            return Status::InvalidArgument("atom arguments must be variables");
          }
          args.push_back(VarNamed(Advance().text));
          if (!Match(TokKind::kComma)) break;
        }
      }
      FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kRParen, "')'"));
      return Atom(name, std::move(args));
    }
    if (Match(TokKind::kEquals)) {
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected variable after '='");
      }
      Var rhs = VarNamed(Advance().text);
      return Eq(VarNamed(name), rhs);
    }
    return Status::InvalidArgument("unexpected identifier '" + name +
                                   "' at offset " + std::to_string(tok.pos));
  }

  Result<Term> ParseAdd() {
    Result<Term> first = ParseMul();
    if (!first.ok()) return first;
    Term acc = *first;
    for (;;) {
      if (Match(TokKind::kPlus)) {
        Result<Term> next = ParseMul();
        if (!next.ok()) return next;
        acc = Add(acc, *next);
      } else if (Match(TokKind::kMinus)) {
        Result<Term> next = ParseMul();
        if (!next.ok()) return next;
        acc = Sub(acc, *next);
      } else {
        return acc;
      }
    }
  }

  Result<Term> ParseMul() {
    Result<Term> first = ParseUnaryTerm();
    if (!first.ok()) return first;
    Term acc = *first;
    while (Match(TokKind::kStar)) {
      Result<Term> next = ParseUnaryTerm();
      if (!next.ok()) return next;
      acc = Mul(acc, *next);
    }
    return acc;
  }

  Result<Term> ParseUnaryTerm() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokKind::kInt:
        return Int(Advance().value);
      case TokKind::kMinus: {
        Advance();
        if (Peek().kind == TokKind::kInt) {
          return Int(-Advance().value);  // fold "-5" into a literal
        }
        Result<Term> inner = ParseUnaryTerm();
        if (!inner.ok()) return inner;
        return Mul(Int(-1), *inner);
      }
      case TokKind::kLParen: {
        Advance();
        Result<Term> inner = ParseAdd();
        if (!inner.ok()) return inner;
        FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kRParen, "')'"));
        return inner;
      }
      case TokKind::kHash: {
        Advance();
        FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kLParen, "'('"));
        std::vector<Var> binders;
        if (Peek().kind != TokKind::kRParen) {
          for (;;) {
            if (Peek().kind != TokKind::kIdent) {
              return Status::InvalidArgument("count binders must be variables");
            }
            binders.push_back(VarNamed(Advance().text));
            if (!Match(TokKind::kComma)) break;
          }
        }
        FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kRParen, "')'"));
        FOCQ_RETURN_IF_ERROR_R(Expect(TokKind::kDot, "'.'"));
        Result<Formula> body = ParseUnaryFormula();
        if (!body.ok()) return body.status();
        return Count(std::move(binders), *body);
      }
      default:
        return Status::InvalidArgument("expected a term at offset " +
                                       std::to_string(tok.pos));
    }
  }

  std::vector<Token> tokens_;
  const PredicateCollection& preds_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Formula> ParseFormula(std::string_view text,
                             const PredicateCollection& preds) {
  std::vector<Token> tokens;
  Status s = Lexer(text).Tokenize(&tokens);
  if (!s.ok()) return s;
  return Parser(std::move(tokens), preds).ParseFormulaToEnd();
}

Result<Formula> ParseFormula(std::string_view text) {
  return ParseFormula(text, StandardPredicates());
}

Result<Term> ParseTerm(std::string_view text,
                       const PredicateCollection& preds) {
  std::vector<Token> tokens;
  Status s = Lexer(text).Tokenize(&tokens);
  if (!s.ok()) return s;
  return Parser(std::move(tokens), preds).ParseTermToEnd();
}

Result<Term> ParseTerm(std::string_view text) {
  return ParseTerm(text, StandardPredicates());
}

}  // namespace focq
