#include "focq/core/statement.h"

#include <utility>
#include <vector>

#include "focq/logic/build.h"
#include "focq/logic/fragment.h"
#include "focq/logic/parser.h"

namespace focq {
namespace {

Result<std::string> Decimal(const Result<CountInt>& value) {
  if (!value.ok()) return value.status();
  return std::to_string(static_cast<long long>(*value));
}

}  // namespace

std::optional<StatementKind> ParseStatementKind(std::string_view word) {
  if (word == "check") return StatementKind::kCheck;
  if (word == "count") return StatementKind::kCount;
  if (word == "term") return StatementKind::kTerm;
  if (word == "update") return StatementKind::kUpdate;
  return std::nullopt;
}

Result<Statement> Statement::Parse(StatementKind kind, std::string_view text,
                                   const Signature& sig) {
  Statement statement;
  statement.kind_ = kind;
  if (kind == StatementKind::kUpdate) {
    Result<TupleUpdate> update = ParseUpdate(text, sig);
    if (!update.ok()) return update.status();
    statement.update_ = std::move(update).value();
  } else if (kind == StatementKind::kTerm) {
    Result<Term> term = ParseTerm(text);
    if (!term.ok()) return term.status();
    FOCQ_RETURN_IF_ERROR(CheckSymbols(*term, sig));
    statement.term_ = std::move(term).value();
  } else {
    Result<Formula> formula = ParseFormula(text);
    if (!formula.ok()) return formula.status();
    FOCQ_RETURN_IF_ERROR(CheckSymbols(*formula, sig));
    statement.formula_ = std::move(formula).value();
  }
  return statement;
}

Result<EvalPlan> Statement::Compile(const Signature& sig) const {
  switch (kind_) {
    case StatementKind::kCheck:
      return CompileFormula(formula_, sig);
    case StatementKind::kCount: {
      std::vector<Var> free = FreeVars(formula_);
      if (free.empty()) return CompileFormula(formula_, sig);
      return CompileTerm(Count(std::move(free), formula_), sig);
    }
    case StatementKind::kTerm:
      return CompileTerm(term_, sig);
    case StatementKind::kUpdate:
      break;
  }
  return Status::InvalidArgument("an update statement has no plan");
}

Result<std::string> Statement::Execute(const Structure& a,
                                       const EvalOptions& options,
                                       Structure* writable) const {
  switch (kind_) {
    case StatementKind::kCheck: {
      Result<bool> holds = ModelCheck(formula_, a, options);
      if (!holds.ok()) return holds.status();
      return std::string(*holds ? "true" : "false");
    }
    case StatementKind::kCount:
      return Decimal(CountSolutions(formula_, a, options));
    case StatementKind::kTerm:
      return Decimal(EvaluateGroundTerm(term_, a, options));
    case StatementKind::kUpdate: {
      Result<UpdateStats> applied = ApplyUpdate(update_, writable, options);
      if (!applied.ok()) return applied.status();
      return std::string(applied->changed ? "applied" : "noop");
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<std::string> ExecuteStatement(StatementKind kind, std::string_view text,
                                     const Structure& a,
                                     const EvalOptions& options,
                                     Structure* writable) {
  Result<Statement> statement = Statement::Parse(kind, text, a.signature());
  if (!statement.ok()) return statement.status();
  return statement->Execute(a, options, writable);
}

Result<std::string> Session::Execute(StatementKind kind,
                                     std::string_view text) {
  Result<std::string> r = ExecuteStatement(kind, text, *a_, options_,
                                           mutable_a_);
  MaybeSampleOpenMetrics();
  return r;
}

}  // namespace focq
