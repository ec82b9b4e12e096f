// Textual syntax for FOC(P) expressions. Round-trips with the printer.
//
//   formula  := or ( '|' or )*                         -- n-ary disjunction
//   or       := and ( '&' and )*
//   and      := '!' and
//             | 'exists' var '.' formula               -- maximal scope
//             | 'forall' var '.' formula
//             | 'true' | 'false'
//             | '@' name '(' term {',' term} ')'       -- numerical predicate
//             | 'dist' '(' var ',' var ')' '<=' int
//             | name '(' [var {',' var}] ')'           -- relation atom
//             | var '=' var
//             | '(' formula ')'
//   term     := mul ( ('+'|'-') mul )*
//   mul      := unary ( '*' unary )*
//   unary    := int | '-' unary
//             | '#' '(' [var {',' var}] ')' '.' and    -- counting term
//             | '(' term ')'
//
// Example: "@prime((#(x). (x = x) + #(x, y). E(x, y)))"
#ifndef FOCQ_LOGIC_PARSER_H_
#define FOCQ_LOGIC_PARSER_H_

#include <string_view>

#include "focq/logic/expr.h"
#include "focq/logic/numpred.h"
#include "focq/util/status.h"

namespace focq {

/// Parses a formula; numerical predicate names (after '@') are resolved
/// against `preds`.
Result<Formula> ParseFormula(std::string_view text,
                             const PredicateCollection& preds);
Result<Formula> ParseFormula(std::string_view text);  // StandardPredicates()

/// Parses a counting term.
Result<Term> ParseTerm(std::string_view text,
                       const PredicateCollection& preds);
Result<Term> ParseTerm(std::string_view text);

}  // namespace focq

#endif  // FOCQ_LOGIC_PARSER_H_
