#include "focq/locality/local_eval.h"

#include <algorithm>

#include "focq/logic/build.h"
#include "focq/structure/neighborhood.h"

namespace focq {
namespace {

// The ball guard of a quantifier over y with body `body`: the first
// dist(y, x) <= d (either variable order, x != y) that is the body or one of
// its conjuncts (exists), or whose negation is the body or one of its
// disjuncts (forall).
BallGuard MatchGuard(const Expr& body, Var y, bool is_exists) {
  auto match = [y, is_exists](const Expr& e) -> BallGuard {
    const Expr* atom = &e;
    if (!is_exists) {
      if (e.kind != ExprKind::kNot) return {};
      atom = e.children[0].get();
    }
    if (atom->kind != ExprKind::kDistAtom) return {};
    const Var a = atom->vars[0], b = atom->vars[1];
    if (a == b || (a != y && b != y)) return {};
    return {a == y ? b : a, atom->dist_bound, true};
  };
  if (body.kind != (is_exists ? ExprKind::kAnd : ExprKind::kOr)) {
    return match(body);
  }
  for (const ExprRef& c : body.children) {
    if (BallGuard g = match(*c); g.found) return g;
  }
  return {};
}

}  // namespace

BallGuard DetectGuard(const Expr& quantifier_node) {
  FOCQ_CHECK(quantifier_node.kind == ExprKind::kExists ||
             quantifier_node.kind == ExprKind::kForall);
  return MatchGuard(*quantifier_node.children[0], quantifier_node.vars[0],
                    quantifier_node.kind == ExprKind::kExists);
}

std::optional<std::uint32_t> SyntacticLocalityRadius(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kEqual:
    case ExprKind::kAtom:
    case ExprKind::kTrue:
    case ExprKind::kFalse:
      return 0;
    case ExprKind::kDistAtom:
      return SaturatedRadius((std::uint64_t{e.dist_bound} + 1) / 2);
    case ExprKind::kNot:
      return SyntacticLocalityRadius(*e.children[0]);
    case ExprKind::kOr:
    case ExprKind::kAnd: {
      std::uint32_t r = 0;
      for (const ExprRef& c : e.children) {
        std::optional<std::uint32_t> rc = SyntacticLocalityRadius(*c);
        if (!rc) return std::nullopt;
        r = std::max(r, *rc);
      }
      return r;
    }
    case ExprKind::kExists:
    case ExprKind::kForall: {
      BallGuard g = DetectGuard(e);
      if (!g.found) return std::nullopt;
      std::optional<std::uint32_t> rb = SyntacticLocalityRadius(*e.children[0]);
      if (!rb) return std::nullopt;
      return SaturatedRadius(std::uint64_t{g.d} + *rb);
    }
    default:
      return std::nullopt;  // counting constructs are not FO+
  }
}

Formula GuardedExists(Var y, Var anchor, std::uint32_t d, Formula body) {
  return Exists(y, And(DistAtMost(y, anchor, d), std::move(body)));
}

Formula GuardedForall(Var y, Var anchor, std::uint32_t d, Formula body) {
  return Forall(y, Or(Not(DistAtMost(y, anchor, d)), std::move(body)));
}

bool EvaluateOnNeighborhood(const Structure& a, const Graph& gaifman,
                            const Formula& f, const std::vector<Var>& vars,
                            const Tuple& tuple, std::uint32_t r) {
  FOCQ_CHECK_EQ(vars.size(), tuple.size());
  SubstructureView view = NeighborhoodSubstructure(a, gaifman, tuple, r);
  NaiveEvaluator eval(view.structure);
  Env env;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    env.Bind(vars[i], view.ToLocal(tuple[i]));
  }
  return eval.Satisfies(f, &env);
}

LocalEvaluator::LocalEvaluator(const Structure& structure, const Graph& gaifman,
                               const BallTables* tables)
    : structure_(structure), gaifman_(gaifman), tables_(tables) {
  FOCQ_CHECK_EQ(gaifman.num_vertices(), structure.universe_size());
}

SymbolId LocalEvaluator::ResolveAtom(const Expr& e) {
  auto it = atom_cache_.find(e.symbol_name);
  if (it != atom_cache_.end()) return it->second;
  std::optional<SymbolId> id = structure_.signature().Find(e.symbol_name);
  FOCQ_CHECK(id.has_value());
  FOCQ_CHECK_EQ(structure_.signature().Arity(*id),
                static_cast<int>(e.vars.size()));
  atom_cache_.emplace(e.symbol_name, *id);
  return *id;
}

ClosenessOracle& LocalEvaluator::OracleFor(std::uint32_t d) {
  std::unique_ptr<ClosenessOracle>& slot = oracles_[d];
  if (slot == nullptr) {
    slot = MakeOracle(gaifman_, tables_, d);
    if (!scope_.empty()) slot->Confine(scope_);
  }
  return *slot;
}

void LocalEvaluator::Confine(std::span<const ElemId> scope) {
  FOCQ_CHECK(tables_ == nullptr);
  scope_ = scope;
  for (auto& [d, oracle] : oracles_) oracle->Confine(scope);
}

const std::vector<std::uint32_t>& LocalEvaluator::TuplesWith(SymbolId id,
                                                             int pos,
                                                             ElemId v) {
  auto& per_value = column_index_[{id, pos}];
  if (per_value.empty() && structure_.relation(id).NumTuples() > 0) {
    const auto tuples = structure_.relation(id).tuples();
    for (std::uint32_t i = 0; i < tuples.size(); ++i) {
      per_value[tuples[i][pos]].push_back(i);
    }
  }
  static const std::vector<std::uint32_t>& empty =
      *new std::vector<std::uint32_t>();
  auto it = per_value.find(v);
  return it == per_value.end() ? empty : it->second;
}

std::optional<std::vector<ElemId>> LocalEvaluator::LeafCandidates(
    const Expr& leaf, Var y, Env* env, const std::set<Var>& shadowed) {
  // Variables bound by quantifiers between the candidate variable's binder
  // and the leaf are wildcards, regardless of outer-scope bindings.
  auto usable = [&](Var v) { return env->IsBound(v) && !shadowed.contains(v); };
  if (leaf.kind == ExprKind::kEqual) {
    Var a = leaf.vars[0], b = leaf.vars[1];
    if (a == y && b != y && usable(b)) {
      return std::vector<ElemId>{env->Get(b)};
    }
    if (b == y && a != y && usable(a)) {
      return std::vector<ElemId>{env->Get(a)};
    }
    return std::nullopt;
  }
  if (leaf.kind != ExprKind::kAtom) return std::nullopt;
  bool mentions_y = false;
  int bound_pos = -1;
  for (std::size_t i = 0; i < leaf.vars.size(); ++i) {
    if (leaf.vars[i] == y) mentions_y = true;
    if (leaf.vars[i] != y && usable(leaf.vars[i]) && bound_pos < 0) {
      bound_pos = static_cast<int>(i);
    }
  }
  if (!mentions_y) return std::nullopt;
  SymbolId id = ResolveAtom(leaf);
  const auto tuples = structure_.relation(id).tuples();

  auto consistent_value = [&](TupleRef t) -> std::optional<ElemId> {
    std::optional<ElemId> value;
    for (std::size_t i = 0; i < leaf.vars.size(); ++i) {
      Var v = leaf.vars[i];
      if (v == y) {
        if (value.has_value() && *value != t[i]) return std::nullopt;
        value = t[i];
      } else if (usable(v) && env->Get(v) != t[i]) {
        return std::nullopt;
      }
    }
    return value;
  };

  std::vector<ElemId> out;
  if (bound_pos >= 0) {
    // Narrow via the column index on a bound position.
    for (std::uint32_t i :
         TuplesWith(id, bound_pos, env->Get(leaf.vars[bound_pos]))) {
      if (auto v = consistent_value(tuples[i])) out.push_back(*v);
    }
  } else {
    for (TupleRef t : tuples) {
      if (auto v = consistent_value(t)) out.push_back(*v);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<std::vector<ElemId>> LocalEvaluator::CandidatesFor(
    const Expr& body, Var y, bool is_exists, Env* env) {
  // Descend through a prefix of binders of the same kind: a witness for y
  // (exists) must make the inner scope true for some inner assignment, a
  // counterexample (forall) must make it false for some, so inner leaves
  // still restrict y. Inner binders shadow.
  const ExprKind binder = is_exists ? ExprKind::kExists : ExprKind::kForall;
  std::set<Var> shadowed;
  const Expr* scope = &body;
  while (scope->kind == binder && scope->vars[0] != y) {
    shadowed.insert(scope->vars[0]);
    scope = scope->children[0].get();
  }
  if (scope->kind == binder) return std::nullopt;  // y shadowed

  // A restricting leaf is a conjunct (exists) or a negated disjunct
  // (forall). Equalities beat atoms (a single candidate); otherwise take the
  // smallest usable restriction.
  std::optional<std::vector<ElemId>> best;
  auto consider = [&](const Expr& child) {
    if (best.has_value() && best->size() <= 1) return;
    const Expr* leaf = &child;
    if (!is_exists) {
      if (child.kind != ExprKind::kNot) return;
      leaf = child.children[0].get();
    }
    std::optional<std::vector<ElemId>> c =
        LeafCandidates(*leaf, y, env, shadowed);
    if (c.has_value() && (!best.has_value() || c->size() < best->size())) {
      best = std::move(c);
    }
  };
  if (scope->kind == (is_exists ? ExprKind::kAnd : ExprKind::kOr)) {
    for (const ExprRef& child : scope->children) consider(*child);
  } else {
    consider(*scope);
  }
  return best;
}

template <typename Fn>
bool LocalEvaluator::ForEachValue(const Expr& body, Var y, bool is_exists,
                                  Env* env, Fn&& fn) {
  // Only elements in the d-ball of a bound anchor can make the scope true
  // (exists) or false (forall): outside it the guard conjunct is false, or
  // the negated guard disjunct true.
  if (BallGuard g = MatchGuard(body, y, is_exists);
      g.found && env->IsBound(g.anchor)) {
    for (ElemId a : OracleFor(g.d).BallOf(env->Get(g.anchor))) {
      if (!fn(a)) return false;
    }
    return true;
  }
  // Candidates and universe sweeps range over the whole structure.
  FOCQ_CHECK(scope_.empty());
  if (std::optional<std::vector<ElemId>> candidates =
          CandidatesFor(body, y, is_exists, env)) {
    for (ElemId a : *candidates) {
      if (!fn(a)) return false;
    }
    return true;
  }
  for (ElemId a = 0; a < structure_.universe_size(); ++a) {
    if (!fn(a)) return false;
  }
  return true;
}

template <typename Leaf>
bool LocalEvaluator::Enumerate(const Expr& body, std::span<const Var> binders,
                               std::size_t depth, Env* env, Leaf& leaf) {
  if (depth == binders.size()) return leaf();
  const Var y = binders[depth];
  const bool finished =
      ForEachValue(body, y, /*is_exists=*/true, env, [&](ElemId a) {
        env->Bind(y, a);
        return Enumerate(body, binders, depth + 1, env, leaf);
      });
  if (env->IsBound(y)) env->Unbind(y);
  return finished;
}

bool LocalEvaluator::EvalQuantifier(const Expr& e, Env* env, bool is_exists) {
  const Var y = e.vars[0];
  const Expr& body = *e.children[0];
  const bool was_bound = env->IsBound(y);
  const ElemId old = was_bound ? env->Get(y) : 0;
  // exists holds iff some value satisfies the body, forall iff none
  // falsifies it: the sweep stops at the first value whose body value is
  // is_exists.
  const bool finished = ForEachValue(body, y, is_exists, env, [&](ElemId a) {
    env->Bind(y, a);
    return EvalFormula(body, env) != is_exists;
  });
  if (was_bound) {
    env->Bind(y, old);
  } else if (env->IsBound(y)) {
    env->Unbind(y);
  }
  return finished != is_exists;
}

std::vector<Tuple> LocalEvaluator::CandidateTuples(
    const Formula& condition, const std::vector<Var>& head_vars) {
  Env env;
  std::vector<Tuple> out;
  auto leaf = [&] {
    Tuple& head = out.emplace_back();
    head.reserve(head_vars.size());
    for (Var v : head_vars) head.push_back(env.Get(v));
    return true;
  };
  Enumerate(condition.node(), head_vars, 0, &env, leaf);
  return out;
}

bool LocalEvaluator::EvalFormula(const Expr& e, Env* env) {
  switch (e.kind) {
    case ExprKind::kEqual:
      return env->Get(e.vars[0]) == env->Get(e.vars[1]);
    case ExprKind::kAtom: {
      SymbolId id = ResolveAtom(e);
      scratch_tuple_.clear();
      for (Var v : e.vars) scratch_tuple_.push_back(env->Get(v));
      return structure_.Holds(id, scratch_tuple_);
    }
    case ExprKind::kNot:
      return !EvalFormula(*e.children[0], env);
    case ExprKind::kOr:
      for (const ExprRef& c : e.children) {
        if (EvalFormula(*c, env)) return true;
      }
      return false;
    case ExprKind::kAnd:
      for (const ExprRef& c : e.children) {
        if (!EvalFormula(*c, env)) return false;
      }
      return true;
    case ExprKind::kExists:
      return EvalQuantifier(e, env, /*is_exists=*/true);
    case ExprKind::kForall:
      return EvalQuantifier(e, env, /*is_exists=*/false);
    case ExprKind::kNumPred: {
      std::vector<CountInt> args;
      args.reserve(e.children.size());
      for (const ExprRef& t : e.children) {
        std::optional<CountInt> v = EvalTerm(*t, env);
        if (!v) {
          overflow_ = true;
          return false;
        }
        args.push_back(*v);
      }
      return e.pred->Holds(args);
    }
    case ExprKind::kTrue:
      return true;
    case ExprKind::kFalse:
      return false;
    case ExprKind::kDistAtom:
      return OracleFor(e.dist_bound)
          .Close(env->Get(e.vars[0]), env->Get(e.vars[1]));
    default:
      FOCQ_CHECK(false);
      return false;
  }
}

std::optional<CountInt> LocalEvaluator::EvalTerm(const Expr& e, Env* env) {
  switch (e.kind) {
    case ExprKind::kIntConst:
      return e.int_value;
    case ExprKind::kAdd: {
      CountInt acc = 0;
      for (const ExprRef& c : e.children) {
        std::optional<CountInt> v = EvalTerm(*c, env);
        if (!v) return std::nullopt;
        std::optional<CountInt> sum = CheckedAdd(acc, *v);
        if (!sum) return std::nullopt;
        acc = *sum;
      }
      return acc;
    }
    case ExprKind::kMul: {
      CountInt acc = 1;
      for (const ExprRef& c : e.children) {
        std::optional<CountInt> v = EvalTerm(*c, env);
        if (!v) return std::nullopt;
        std::optional<CountInt> prod = CheckedMul(acc, *v);
        if (!prod) return std::nullopt;
        acc = *prod;
      }
      return acc;
    }
    case ExprKind::kCount: {
      // The binders shadow the outer scope: unbind them, enumerate, restore.
      const Expr& body = *e.children[0];
      std::vector<std::pair<Var, ElemId>> outer;
      for (Var y : e.vars) {
        if (!env->IsBound(y)) continue;
        outer.emplace_back(y, env->Get(y));
        env->Unbind(y);
      }
      std::optional<CountInt> count = 0;
      auto leaf = [&] {
        if (EvalFormula(body, env)) count = CheckedAdd(*count, 1);
        return count.has_value();  // overflow stops the enumeration
      };
      Enumerate(body, e.vars, 0, env, leaf);
      for (auto [y, a] : outer) env->Bind(y, a);
      return count;
    }
    default:
      FOCQ_CHECK(false);
      return std::nullopt;
  }
}

bool LocalEvaluator::Satisfies(const Formula& f, Env* env) {
  overflow_ = false;
  bool result = EvalFormula(f.node(), env);
  FOCQ_CHECK(!overflow_);
  return result;
}

bool LocalEvaluator::Satisfies(const Formula& sentence) {
  Env env;
  return Satisfies(sentence, &env);
}

bool LocalEvaluator::Satisfies(
    const Formula& f, const std::vector<std::pair<Var, ElemId>>& binding) {
  Env env;
  for (auto [v, a] : binding) env.Bind(v, a);
  return Satisfies(f, &env);
}

Result<CountInt> LocalEvaluator::Evaluate(const Term& t, Env* env) {
  std::optional<CountInt> v = EvalTerm(t.node(), env);
  if (!v) return Status::OutOfRange("counting-term value overflows int64");
  return *v;
}

Result<CountInt> LocalEvaluator::Evaluate(const Term& ground_term) {
  Env env;
  return Evaluate(ground_term, &env);
}

Result<CountInt> LocalEvaluator::Evaluate(
    const Term& t, const std::vector<std::pair<Var, ElemId>>& binding) {
  Env env;
  for (auto [v, a] : binding) env.Bind(v, a);
  return Evaluate(t, &env);
}

}  // namespace focq
