// Statements: the one definition of what a check / count / term / update
// statement means (DESIGN.md §3d, §3g). focq_cli (single-shot, --update and
// --batch), focq_serve and focq_logreplay all parse, symbol-check, dispatch
// and render through this module, so the serve ≡ serial-replay contract and
// the query-log digests hold by construction rather than by keeping several
// copies in step.
//
// The kinds are the paper's three evaluation problems plus the tuple update
// of §3e, each with one canonical response text:
//
//   check  <sentence>  A |= phi                  "true" | "false"
//   count  <formula>   |phi(A)| (Corollary 5.6)  decimal count
//   term   <term>      ground term t^A           decimal value
//   update <spec>      insert/delete one tuple   "applied" | "noop"
//
// A statement that fails yields a Status; its ToString() is the error text
// every surface prints and every query-log digest covers.
#ifndef FOCQ_CORE_STATEMENT_H_
#define FOCQ_CORE_STATEMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "focq/core/api.h"
#include "focq/core/plan.h"
#include "focq/structure/update.h"

namespace focq {

enum class StatementKind : std::uint8_t { kCheck, kCount, kTerm, kUpdate };

/// The kind a grammar word ("check", "count", "term", "update") names;
/// nullopt for any other word.
std::optional<StatementKind> ParseStatementKind(std::string_view word);

/// One statement, parsed and symbol-checked against a signature.
class Statement {
 public:
  /// Parses `text` as a `kind` statement and checks its relation symbols and
  /// arities against `sig` (the evaluators would abort on either).
  static Result<Statement> Parse(StatementKind kind, std::string_view text,
                                 const Signature& sig);

  StatementKind kind() const { return kind_; }

  /// The plan that evaluating this read statement compiles — what EXPLAIN
  /// and --stats show: the sentence for check, the term for term, and for
  /// count the counting term #(x1..xk). phi that CountSolutions evaluates
  /// (phi itself when it is a sentence). An update has no plan.
  Result<EvalPlan> Compile(const Signature& sig) const;

  /// Runs the statement and renders its response text. Reads call the
  /// public ModelCheck / CountSolutions / EvaluateGroundTerm over `a` with
  /// `options`; an update goes through ApplyUpdate(update, writable,
  /// options), so `writable` must be `a` itself when updates are allowed.
  Result<std::string> Execute(const Structure& a, const EvalOptions& options,
                              Structure* writable = nullptr) const;

 private:
  StatementKind kind_ = StatementKind::kCheck;
  Formula formula_;     // check, count
  Term term_;           // term
  TupleUpdate update_;  // update
};

/// Statement::Parse, then Execute: the whole statement path in one call.
Result<std::string> ExecuteStatement(StatementKind kind, std::string_view text,
                                     const Structure& a,
                                     const EvalOptions& options,
                                     Structure* writable = nullptr);

}  // namespace focq

#endif  // FOCQ_CORE_STATEMENT_H_
