#include "focq/locality/local_eval.h"

#include <algorithm>

#include "focq/logic/build.h"
#include "focq/structure/neighborhood.h"

namespace focq {
namespace {

/// A detected ball guard of a quantifier.
struct Guard {
  Var anchor = 0;
  std::uint32_t d = 0;
  bool found = false;
};

// Looks for a conjunct dist(y, x) <= d (either variable order) among
// `conjuncts`, with x != y. For forall, callers pass the disjuncts of the
// body and look for !dist(y,x)<=d instead.
Guard FindExistsGuard(const Expr& body, Var y) {
  Guard g;
  auto inspect = [&g, y](const Expr& atom) {
    if (atom.kind != ExprKind::kDistAtom) return;
    Var a = atom.vars[0], b = atom.vars[1];
    if (a == y && b != y) {
      g.anchor = b;
      g.d = atom.dist_bound;
      g.found = true;
    } else if (b == y && a != y) {
      g.anchor = a;
      g.d = atom.dist_bound;
      g.found = true;
    }
  };
  if (body.kind == ExprKind::kDistAtom) {
    inspect(body);
  } else if (body.kind == ExprKind::kAnd) {
    for (const ExprRef& c : body.children) {
      if (!g.found) inspect(*c);
    }
  }
  return g;
}

Guard FindForallGuard(const Expr& body, Var y) {
  Guard g;
  auto inspect = [&g, y](const Expr& child) {
    if (child.kind != ExprKind::kNot) return;
    const Expr& atom = *child.children[0];
    if (atom.kind != ExprKind::kDistAtom) return;
    Var a = atom.vars[0], b = atom.vars[1];
    if (a == y && b != y) {
      g.anchor = b;
      g.d = atom.dist_bound;
      g.found = true;
    } else if (b == y && a != y) {
      g.anchor = a;
      g.d = atom.dist_bound;
      g.found = true;
    }
  };
  if (body.kind == ExprKind::kNot) {
    inspect(body);
  } else if (body.kind == ExprKind::kOr) {
    for (const ExprRef& c : body.children) {
      if (!g.found) inspect(*c);
    }
  }
  return g;
}

}  // namespace

BallGuard DetectGuard(const Expr& quantifier_node) {
  FOCQ_CHECK(quantifier_node.kind == ExprKind::kExists ||
             quantifier_node.kind == ExprKind::kForall);
  const Expr& body = *quantifier_node.children[0];
  Var y = quantifier_node.vars[0];
  Guard g = quantifier_node.kind == ExprKind::kExists
                ? FindExistsGuard(body, y)
                : FindForallGuard(body, y);
  return BallGuard{g.anchor, g.d, g.found};
}

std::optional<std::uint32_t> SyntacticLocalityRadius(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kEqual:
    case ExprKind::kAtom:
    case ExprKind::kTrue:
    case ExprKind::kFalse:
      return 0;
    case ExprKind::kDistAtom:
      return (e.dist_bound + 1) / 2;
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
      const Expr& body = *e.children[0];
      Guard g = e.kind == ExprKind::kExists ? FindExistsGuard(body, e.vars[0])
                                            : FindForallGuard(body, e.vars[0]);
      if (!g.found) return std::nullopt;
      std::optional<std::uint32_t> rb = SyntacticLocalityRadius(body);
      if (!rb) return std::nullopt;
      return g.d + *rb;
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

LocalEvaluator::LocalEvaluator(const Structure& structure, const Graph& gaifman)
    : structure_(structure), gaifman_(gaifman) {
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
  if (slot == nullptr) slot = std::make_unique<ClosenessOracle>(gaifman_, d);
  return *slot;
}

bool LocalEvaluator::DistanceAtMost(ElemId a, ElemId b, std::uint32_t d) {
  return OracleFor(d).Close(a, b);
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
    const Expr& body, Var y, Env* env) {
  // Descend through an exists-prefix: any witness for y must make the inner
  // scope true, so inner conjuncts still restrict y. Inner binders shadow.
  std::set<Var> shadowed;
  const Expr* scope = &body;
  while (scope->kind == ExprKind::kExists && scope->vars[0] != y) {
    shadowed.insert(scope->vars[0]);
    scope = scope->children[0].get();
  }
  if (scope->kind == ExprKind::kExists) return std::nullopt;  // y shadowed

  // Equality conjuncts beat atoms (a single candidate); otherwise take the
  // smallest usable conjunct restriction.
  std::optional<std::vector<ElemId>> best;
  auto consider = [&](const Expr& leaf) {
    if (best.has_value() && best->size() <= 1) return;
    std::optional<std::vector<ElemId>> c =
        LeafCandidates(leaf, y, env, shadowed);
    if (c.has_value() && (!best.has_value() || c->size() < best->size())) {
      best = std::move(c);
    }
  };
  if (scope->kind == ExprKind::kAnd) {
    for (const ExprRef& child : scope->children) consider(*child);
  } else {
    consider(*scope);
  }
  return best;
}

std::optional<std::vector<ElemId>> LocalEvaluator::ForallCandidatesFor(
    const Expr& body, Var y, Env* env) {
  // Descend through a forall-prefix: the inner scope must hold for *all*
  // inner assignments, so a disjunct !leaf(y, ...) whose candidate set
  // (computed with inner binders as wildcards) excludes y makes the scope
  // hold vacuously.
  std::set<Var> shadowed;
  const Expr* scope = &body;
  while (scope->kind == ExprKind::kForall && scope->vars[0] != y) {
    shadowed.insert(scope->vars[0]);
    scope = scope->children[0].get();
  }
  if (scope->kind == ExprKind::kForall) return std::nullopt;  // y shadowed

  std::optional<std::vector<ElemId>> best;
  auto consider = [&](const Expr& child) {
    if (best.has_value() && best->size() <= 1) return;
    if (child.kind != ExprKind::kNot) return;
    std::optional<std::vector<ElemId>> c =
        LeafCandidates(*child.children[0], y, env, shadowed);
    if (c.has_value() && (!best.has_value() || c->size() < best->size())) {
      best = std::move(c);
    }
  };
  if (scope->kind == ExprKind::kOr) {
    for (const ExprRef& child : scope->children) consider(*child);
  } else {
    consider(*scope);
  }
  return best;
}

bool LocalEvaluator::EvalQuantifier(const Expr& e, Env* env, bool is_exists) {
  Var y = e.vars[0];
  const Expr& body = *e.children[0];
  Guard g = is_exists ? FindExistsGuard(body, y) : FindForallGuard(body, y);

  bool was_bound = env->IsBound(y);
  ElemId old = was_bound ? env->Get(y) : 0;
  bool result = !is_exists;  // exists starts false, forall starts true

  auto restore = [&]() {
    if (was_bound) {
      env->Bind(y, old);
    } else if (env->IsBound(y)) {
      env->Unbind(y);
    }
  };

  auto sweep = [&](const std::vector<ElemId>& values) {
    for (ElemId a : values) {
      env->Bind(y, a);
      bool v = EvalFormula(body, env);
      if (is_exists && v) {
        result = true;
        return;
      }
      if (!is_exists && !v) {
        result = false;
        return;
      }
    }
  };

  if (g.found && env->IsBound(g.anchor)) {
    // Only elements in the d-ball of the anchor can flip the result: outside
    // it the guard conjunct is false (exists) / the negated guard disjunct is
    // true (forall).
    const std::vector<ElemId> ball = OracleFor(g.d).BallOf(env->Get(g.anchor));
    sweep(ball);
    restore();
    return result;
  }

  std::optional<std::vector<ElemId>> candidates =
      is_exists ? CandidatesFor(body, y, env)
                : ForallCandidatesFor(body, y, env);
  if (candidates.has_value()) {
    sweep(*candidates);
    restore();
    return result;
  }

  for (ElemId a = 0; a < structure_.universe_size(); ++a) {
    env->Bind(y, a);
    bool v = EvalFormula(body, env);
    if (is_exists && v) {
      result = true;
      break;
    }
    if (!is_exists && !v) {
      result = false;
      break;
    }
  }
  restore();
  return result;
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
      return DistanceAtMost(env->Get(e.vars[0]), env->Get(e.vars[1]),
                            e.dist_bound);
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
      // Guard-aware single-binder fast path.
      const std::vector<Var>& ys = e.vars;
      const Expr& body = *e.children[0];
      if (ys.size() == 1) {
        Guard g = FindExistsGuard(body, ys[0]);
        if (g.found && env->IsBound(g.anchor)) {
          Var y = ys[0];
          bool was_bound = env->IsBound(y);
          ElemId old = was_bound ? env->Get(y) : 0;
          const std::vector<ElemId> ball =
              OracleFor(g.d).BallOf(env->Get(g.anchor));
          CountInt count = 0;
          for (ElemId a : ball) {
            env->Bind(y, a);
            if (EvalFormula(body, env)) ++count;
          }
          if (was_bound) {
            env->Bind(y, old);
          } else if (env->IsBound(y)) {
            env->Unbind(y);
          }
          return count;
        }
      }
      // General case: candidate-driven recursive enumeration over the
      // binders (falls back to universe sweeps per binder when no conjunct
      // restricts it).
      std::vector<bool> was_bound(ys.size());
      std::vector<ElemId> old_value(ys.size());
      for (std::size_t i = 0; i < ys.size(); ++i) {
        was_bound[i] = env->IsBound(ys[i]);
        old_value[i] = was_bound[i] ? env->Get(ys[i]) : 0;
        if (was_bound[i]) env->Unbind(ys[i]);  // binders shadow outer scope
      }
      CountInt count = 0;
      bool count_overflow = false;
      CountRec(body, ys, 0, env, &count, &count_overflow);
      for (std::size_t i = 0; i < ys.size(); ++i) {
        if (was_bound[i]) {
          env->Bind(ys[i], old_value[i]);
        } else if (env->IsBound(ys[i])) {
          env->Unbind(ys[i]);
        }
      }
      if (count_overflow) return std::nullopt;
      return count;
    }
    default:
      FOCQ_CHECK(false);
      return std::nullopt;
  }
}

void LocalEvaluator::CountRec(const Expr& body, const std::vector<Var>& binders,
                              std::size_t depth, Env* env, CountInt* count,
                              bool* overflow) {
  if (*overflow) return;
  if (depth == binders.size()) {
    if (EvalFormula(body, env)) {
      std::optional<CountInt> next = CheckedAdd(*count, 1);
      if (!next) {
        *overflow = true;
        return;
      }
      *count = *next;
    }
    return;
  }
  Var y = binders[depth];
  auto descend = [&](const std::vector<ElemId>& values) {
    for (ElemId a : values) {
      env->Bind(y, a);
      CountRec(body, binders, depth + 1, env, count, overflow);
      if (*overflow) return;
    }
    if (env->IsBound(y)) env->Unbind(y);
  };
  Guard g = FindExistsGuard(body, y);
  if (g.found && env->IsBound(g.anchor)) {
    const std::vector<ElemId> ball = OracleFor(g.d).BallOf(env->Get(g.anchor));
    descend(ball);
    return;
  }
  std::optional<std::vector<ElemId>> candidates = CandidatesFor(body, y, env);
  if (candidates.has_value()) {
    descend(*candidates);
    return;
  }
  for (ElemId a = 0; a < structure_.universe_size(); ++a) {
    env->Bind(y, a);
    CountRec(body, binders, depth + 1, env, count, overflow);
    if (*overflow) return;
  }
  if (env->IsBound(y)) env->Unbind(y);
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
