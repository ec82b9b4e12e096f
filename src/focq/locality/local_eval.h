// Locality machinery (Section 6.1):
//
//  * the syntactic "local kernel" fragment: FO+ formulas whose quantifiers
//    are ball-guarded (exists y (dist(y,x) <= d and ...)); such formulas are
//    r-local around their free variables for a syntactically computable r.
//    This is the implementable stand-in for Gaifman normal form (substitution
//    #1 of DESIGN.md): Gaifman's theorem guarantees that local formulas of
//    this shape suffice, and all of the paper's example queries are already
//    in the fragment;
//
//  * LocalEvaluator: a FOC(P) evaluator that exploits guards. One
//    enumeration decides which values a bound variable is tried at, for
//    quantifiers, counting binders and the candidate tuples of
//    multi-variable query heads alike: the BFS ball of a ball guard first,
//    then the values an atom or equality of the scope allows, then the
//    universe. Semantically identical to NaiveEvaluator (differentially
//    tested), but near-linear on sparse structures for guarded formulas;
//
//  * EvaluateOnNeighborhood: evaluates a formula on the induced substructure
//    N_r(a-bar), the right-hand side of the locality equivalence.
#ifndef FOCQ_LOCALITY_LOCAL_EVAL_H_
#define FOCQ_LOCALITY_LOCAL_EVAL_H_

#include <map>
#include <set>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "focq/eval/naive_eval.h"
#include "focq/locality/delta.h"
#include "focq/logic/expr.h"
#include "focq/structure/structure.h"

namespace focq {

/// Returns a radius r such that the FO+ formula `e` is r-local around its
/// free variables, or nullopt if `e` is outside the guarded fragment
/// (contains an unguarded quantifier or a counting construct).
///
/// Rules: atoms/equality 0; dist(x,y)<=d is ceil(d/2)-local; Boolean
/// connectives take the max; a guarded quantifier over a ball of radius d
/// adds d to its body's radius.
std::optional<std::uint32_t> SyntacticLocalityRadius(const Expr& e);
inline std::optional<std::uint32_t> SyntacticLocalityRadius(const Formula& f) {
  return SyntacticLocalityRadius(f.node());
}

/// A detected ball guard of a quantifier node.
struct BallGuard {
  Var anchor = 0;
  std::uint32_t d = 0;
  bool found = false;
};

/// Detects the ball guard of a kExists node (a conjunct dist(y,x)<=d of its
/// body) or kForall node (a disjunct !dist(y,x)<=d), with x != y.
BallGuard DetectGuard(const Expr& quantifier_node);

/// exists y (dist(y, anchor) <= d and body).
Formula GuardedExists(Var y, Var anchor, std::uint32_t d, Formula body);

/// forall y (dist(y, anchor) <= d -> body).
Formula GuardedForall(Var y, Var anchor, std::uint32_t d, Formula body);

/// Evaluates `f` on the induced substructure N_r(a-bar) at a-bar.
/// This is the right-hand side of the r-locality property.
bool EvaluateOnNeighborhood(const Structure& a, const Graph& gaifman,
                            const Formula& f, const std::vector<Var>& vars,
                            const Tuple& tuple, std::uint32_t r);

/// Guard-aware FOC(P) evaluator on a fixed structure. Results agree with
/// NaiveEvaluator on every input. Quantifiers, counting binders and
/// CandidateTuples draw their values through one enumeration, which tries
/// the first of these that applies:
///   * the BFS ball of a ball guard whose anchor is bound;
///   * the values that the scope's most selective equality or relational
///     atom mentioning the variable allows (a conjunct for exists and
///     counting binders, a negated disjunct for forall), read from the
///     relation's tuples with lazily-built per-column hash indexes, which
///     turns the exists-chains of SQL-style queries into index lookups;
///   * the whole universe.
class LocalEvaluator {
 public:
  /// `gaifman` must be the Gaifman graph of `structure`; both must outlive
  /// the evaluator. With `tables` lent, dist atoms and ball guards of a
  /// radius that has a table read its balls from there; other radii explore
  /// lazily. The tables must be balls of `gaifman` and outlive the evaluator.
  LocalEvaluator(const Structure& structure, const Graph& gaifman,
                 const BallTables* tables = nullptr);

  const Structure& structure() const { return structure_; }

  bool Satisfies(const Formula& f, Env* env);
  bool Satisfies(const Formula& sentence);
  bool Satisfies(const Formula& f,
                 const std::vector<std::pair<Var, ElemId>>& binding);

  Result<CountInt> Evaluate(const Term& t, Env* env);
  Result<CountInt> Evaluate(const Term& ground_term);
  Result<CountInt> Evaluate(const Term& t,
                            const std::vector<std::pair<Var, ElemId>>& binding);

  /// The closeness oracle of radius d: the one cache of d-balls that every
  /// dist atom and ball guard this evaluator checks shares. Table-backed
  /// when the lent tables have radius d, else lazy. Stays valid for the
  /// evaluator's lifetime.
  ClosenessOracle& OracleFor(std::uint32_t d);

  /// Confines every oracle this evaluator owns or creates later to the
  /// subgraph induced on `scope` (ClosenessOracle::Confine), so every ball
  /// guard and dist atom reads a ball of that subgraph. Needs an evaluator
  /// without lent tables. A confined evaluator must never enumerate outside
  /// a ball: a quantifier or counting binder without a bound ball guard
  /// fails a check. `scope` must outlive the confinement; an empty scope
  /// lifts it.
  void Confine(std::span<const ElemId> scope);

  /// The candidate head tuples of a query with head `head_vars` and
  /// condition `condition`: the variables are bound in order, each drawn as
  /// a counting binder of the condition given the ones before it. Every
  /// tuple satisfying the condition is among them; they are distinct and in
  /// lexicographic order. Needs an unconfined evaluator.
  std::vector<Tuple> CandidateTuples(const Formula& condition,
                                     const std::vector<Var>& head_vars);

 private:
  bool EvalFormula(const Expr& e, Env* env);
  std::optional<CountInt> EvalTerm(const Expr& e, Env* env);
  SymbolId ResolveAtom(const Expr& e);

  // Quantifier core. `is_exists` selects semantics.
  bool EvalQuantifier(const Expr& e, Env* env, bool is_exists);

  /// Calls `fn(a)`, in increasing order of a and until it returns false,
  /// for every value a at which a variable `y` bound over scope `body` must
  /// be tried: the d-ball of a ball guard whose anchor is bound, else the
  /// CandidatesFor restriction, else the universe. `is_exists` is true for
  /// exists and counting binders, false for forall. `fn` binds `y` itself.
  /// Returns false iff `fn` stopped the enumeration.
  template <typename Fn>
  bool ForEachValue(const Expr& body, Var y, bool is_exists, Env* env,
                    Fn&& fn);

  /// Binds `binders[depth..]` in turn, each through ForEachValue as a
  /// counting binder of `body`, and calls `leaf()` on every combination
  /// until it returns false. Returns false iff `leaf` stopped it. The
  /// binders must be unbound on entry and are unbound on return.
  template <typename Leaf>
  bool Enumerate(const Expr& body, std::span<const Var> binders,
                 std::size_t depth, Env* env, Leaf& leaf);

  /// The values of `y` that can make scope `body` true (exists and counting
  /// binders) or false (forall): descends through a prefix of binders of
  /// the same kind (inner binders shadow) and takes the smallest
  /// restriction that an equality or relational atom mentioning `y` gives,
  /// where such a leaf is a conjunct (exists) or a negated disjunct
  /// (forall). nullopt means "no restriction found" (callers sweep the
  /// universe). The returned vector is sorted and duplicate-free.
  std::optional<std::vector<ElemId>> CandidatesFor(const Expr& body, Var y,
                                                   bool is_exists, Env* env);

  /// Candidates from a single equality/atom leaf; nullopt if unusable.
  /// Variables in `shadowed` are treated as unbound wildcards.
  std::optional<std::vector<ElemId>> LeafCandidates(
      const Expr& leaf, Var y, Env* env, const std::set<Var>& shadowed);

  /// Tuple indices of relation `id` whose position `pos` holds value `v`
  /// (index built lazily per column).
  const std::vector<std::uint32_t>& TuplesWith(SymbolId id, int pos, ElemId v);

  const Structure& structure_;
  const Graph& gaifman_;
  const BallTables* tables_;
  std::span<const ElemId> scope_;  // empty: unconfined
  std::unordered_map<std::string, SymbolId> atom_cache_;
  std::unordered_map<std::uint32_t, std::unique_ptr<ClosenessOracle>> oracles_;
  // (symbol, column) -> value -> tuple indices.
  std::map<std::pair<SymbolId, int>,
           std::unordered_map<ElemId, std::vector<std::uint32_t>>>
      column_index_;
  bool overflow_ = false;
  Tuple scratch_tuple_;
};

}  // namespace focq

#endif  // FOCQ_LOCALITY_LOCAL_EVAL_H_
