// Interned first-order variables. The paper fixes a countably infinite
// variable set `vars`; we intern names into dense ids so evaluator
// environments can be flat arrays. The intern table is process-wide and
// thread-safe.
#ifndef FOCQ_LOGIC_VARS_H_
#define FOCQ_LOGIC_VARS_H_

#include <cstdint>
#include <string>

namespace focq {

/// A first-order variable (index into the global intern table).
using Var = std::uint32_t;

/// Interns `name`, returning its stable id. Idempotent.
Var VarNamed(const std::string& name);

/// The name of an interned variable.
const std::string& VarName(Var v);

/// A variable guaranteed distinct from all previously interned ones
/// (used for fresh bound variables during rewrites). Its name starts with
/// `hint`.
Var FreshVar(const std::string& hint);

}  // namespace focq

#endif  // FOCQ_LOGIC_VARS_H_
