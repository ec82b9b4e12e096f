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
//  * LocalEvaluator: a FOC(P) evaluator that exploits guards, enumerating
//    ball-guarded quantifiers over BFS balls instead of the whole universe.
//    Semantically identical to NaiveEvaluator (differentially tested), but
//    near-linear on sparse structures for guarded formulas;
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
/// NaiveEvaluator on every input. Two enumeration optimisations make it
/// practical on sparse and database-shaped structures:
///   * ball-guarded quantifiers range over BFS balls of the Gaifman graph;
///   * quantifiers and counting binders whose scope *entails* a relational
///     atom mentioning the variable draw candidates from that relation's
///     tuples (with lazily-built per-column hash indexes), which turns the
///     exists-chains of SQL-style queries into index lookups instead of
///     active-domain sweeps.
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

 private:
  friend class GuardProbe;

  bool EvalFormula(const Expr& e, Env* env);
  std::optional<CountInt> EvalTerm(const Expr& e, Env* env);
  bool DistanceAtMost(ElemId a, ElemId b, std::uint32_t d);
  SymbolId ResolveAtom(const Expr& e);

  // Quantifier cores with guard detection. `is_exists` selects semantics.
  bool EvalQuantifier(const Expr& e, Env* env, bool is_exists);

  /// Candidate values for variable `y` inside a quantifier/count whose scope
  /// is `body`: if some conjunct of `body` is an equality or relational atom
  /// mentioning `y`, only values consistent with it can satisfy the scope.
  /// nullopt means "no restriction found" (callers sweep the universe).
  /// The returned vector is sorted and duplicate-free.
  std::optional<std::vector<ElemId>> CandidatesFor(const Expr& body, Var y,
                                                   Env* env);

  /// Same for forall bodies: a disjunct !atom(...) restricts the values that
  /// can falsify the body.
  std::optional<std::vector<ElemId>> ForallCandidatesFor(const Expr& body,
                                                         Var y, Env* env);

  /// Candidates from a single equality/atom leaf; nullopt if unusable.
  /// Variables in `shadowed` are treated as unbound wildcards.
  std::optional<std::vector<ElemId>> LeafCandidates(
      const Expr& leaf, Var y, Env* env, const std::set<Var>& shadowed);

  /// Tuple indices of relation `id` whose position `pos` holds value `v`
  /// (index built lazily per column).
  const std::vector<std::uint32_t>& TuplesWith(SymbolId id, int pos, ElemId v);

  /// Recursive candidate-driven counting over `binders[depth..]`.
  void CountRec(const Expr& body, const std::vector<Var>& binders,
                std::size_t depth, Env* env, CountInt* count, bool* overflow);

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
