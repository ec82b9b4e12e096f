#include "focq/testing/formula_gen.h"

#include <cstdint>
#include <iterator>
#include <string>

#include "focq/locality/local_eval.h"
#include "focq/logic/numpred.h"
#include "focq/util/check.h"

namespace focq::fuzz {
namespace {

// Binder-variable pool: names are stable across runs (VarNamed is
// idempotent), distinct from the free-variable pool fz0/fz1 below, and
// parser-compatible, so printed cases round-trip.
Var BinderVar(int index) { return VarNamed("fzb" + std::to_string(index)); }

Var FreePoolVar(int index) { return VarNamed("fz" + std::to_string(index)); }

// Distance bounds around the powers of two of uint32, where the radius
// arithmetic built on a bound (2r+1, k(2r+1), 2r) wraps unless it saturates.
constexpr std::uint32_t kExtremeDistBounds[] = {
    (1u << 30) - 1, 1u << 30, (1u << 31) - 1, 1u << 31, UINT32_MAX};

}  // namespace

FormulaGenerator::FormulaGenerator(const Signature& sig,
                                   const FormulaGenOptions& options, Rng* rng)
    : sig_(sig), options_(options), rng_(rng) {
  FOCQ_CHECK(rng != nullptr);
}

Var FormulaGenerator::NextBinder() { return BinderVar(binder_counter_++); }

Formula FormulaGenerator::GenerateFormula(const std::vector<Var>& free_vars) {
  binder_counter_ = 0;
  int binders = options_.max_binders;
  return GenFormula(free_vars, options_.max_depth, &binders,
                    options_.max_count_depth);
}

Formula FormulaGenerator::GenerateFormula() {
  std::vector<Var> free_vars;
  int arity = static_cast<int>(rng_->NextBelow(options_.max_free_vars + 1));
  for (int i = 0; i < arity; ++i) free_vars.push_back(FreePoolVar(i));
  return GenerateFormula(free_vars);
}

Term FormulaGenerator::GenerateGroundTerm() { return GenerateTerm({}); }

Term FormulaGenerator::GenerateTerm(const std::vector<Var>& free_vars) {
  binder_counter_ = 0;
  int binders = options_.max_binders;
  Term t = GenTerm(free_vars, options_.max_depth, &binders,
                   options_.max_count_depth);
  return t;
}

Formula FormulaGenerator::GenLeaf(const std::vector<Var>& scope) {
  // Collect the atom shapes expressible in this scope: nullary symbols
  // always, positive-arity symbols only when variables are available.
  for (int attempt = 0; attempt < 4; ++attempt) {
    switch (rng_->NextBelow(6)) {
      case 0: {  // relational atom over a random symbol
        if (sig_.NumSymbols() == 0) break;
        SymbolId id = static_cast<SymbolId>(rng_->NextBelow(sig_.NumSymbols()));
        int arity = sig_.Arity(id);
        if (arity > 0 && scope.empty()) break;
        std::vector<Var> vars;
        for (int i = 0; i < arity; ++i) {
          vars.push_back(scope[rng_->NextBelow(scope.size())]);
        }
        return Atom(sig_.Name(id), std::move(vars));
      }
      case 1: {  // x = y
        if (scope.empty()) break;
        return Eq(scope[rng_->NextBelow(scope.size())],
                  scope[rng_->NextBelow(scope.size())]);
      }
      case 2: {  // dist(x, y) <= d with x != y
        if (options_.max_dist_bound == 0 || scope.size() < 2) break;
        Var x = scope[rng_->NextBelow(scope.size())];
        Var y = scope[rng_->NextBelow(scope.size())];
        if (x == y) break;
        if (rng_->NextBool(1.0 / 16)) {
          return DistAtMost(x, y,
                            kExtremeDistBounds[rng_->NextBelow(
                                std::size(kExtremeDistBounds))]);
        }
        return DistAtMost(x, y, static_cast<std::uint32_t>(rng_->NextBelow(
                                    options_.max_dist_bound + 1)));
      }
      case 3:
        return rng_->NextBool(0.5) ? True() : False();
      default: {  // retry toward an atom: leaves should mention the data
        if (sig_.NumSymbols() == 0 || scope.empty()) break;
        SymbolId id = static_cast<SymbolId>(rng_->NextBelow(sig_.NumSymbols()));
        std::vector<Var> vars;
        for (int i = 0; i < sig_.Arity(id); ++i) {
          vars.push_back(scope[rng_->NextBelow(scope.size())]);
        }
        return Atom(sig_.Name(id), std::move(vars));
      }
    }
  }
  return rng_->NextBool(0.5) ? True() : False();
}

Formula FormulaGenerator::GenFormula(const std::vector<Var>& scope, int depth,
                                     int* binders, int count_depth) {
  if (depth <= 0 || rng_->NextBool(0.2)) return GenLeaf(scope);
  switch (rng_->NextBelow(8)) {
    case 0:
      return Not(GenFormula(scope, depth - 1, binders, count_depth));
    case 1:
      return Or(GenFormula(scope, depth - 1, binders, count_depth),
                GenFormula(scope, depth - 1, binders, count_depth));
    case 2:
      return And(GenFormula(scope, depth - 1, binders, count_depth),
                 GenFormula(scope, depth - 1, binders, count_depth));
    case 3:
    case 4: {  // quantifier over a fresh variable
      if (*binders <= 0) return GenLeaf(scope);
      --*binders;
      Var y = NextBinder();
      std::vector<Var> inner = scope;
      inner.push_back(y);
      Formula body = GenFormula(inner, depth - 1, binders, count_depth);
      return rng_->NextBool(0.6) ? Exists(y, body) : Forall(y, body);
    }
    default: {  // numerical-predicate application around one pivot variable
      // FOC1(P): the argument terms together use at most one free variable.
      std::vector<Var> pivot_scope;
      if (!scope.empty() && rng_->NextBool(0.8)) {
        pivot_scope.push_back(scope[rng_->NextBelow(scope.size())]);
      }
      static const PredicateRef kPreds[] = {PredGe1(),   PredEq(),
                                            PredLeq(),   PredEven(),
                                            PredPrime(), PredDivides()};
      PredicateRef pred = kPreds[rng_->NextBelow(std::size(kPreds))];
      std::vector<Term> args;
      for (int i = 0; i < pred->arity(); ++i) {
        args.push_back(GenTerm(pivot_scope, depth - 1, binders, count_depth));
      }
      return Pred(pred, std::move(args));
    }
  }
}

Term FormulaGenerator::GenTerm(const std::vector<Var>& scope, int depth,
                               int* binders, int count_depth) {
  // Counting terms carry the semantics; constants and arithmetic are the
  // glue. Bias toward counts while the nesting budget lasts.
  bool can_count = count_depth > 0 && *binders > 0 && depth > 0;
  if (can_count && rng_->NextBool(0.55)) {
    int k = static_cast<int>(rng_->NextBelow(3));  // 0 binders: 0/1 indicator
    if (k > *binders) k = *binders;
    *binders -= k;
    std::vector<Var> ys;
    std::vector<Var> inner = scope;
    for (int i = 0; i < k; ++i) {
      Var y = NextBinder();
      ys.push_back(y);
      inner.push_back(y);
    }
    Formula body = GenFormula(inner, depth - 1, binders, count_depth - 1);
    return Count(std::move(ys), body);
  }
  if (depth > 0 && rng_->NextBool(0.35)) {
    Term a = GenTerm(scope, depth - 1, binders, count_depth);
    Term b = GenTerm(scope, depth - 1, binders, count_depth);
    switch (rng_->NextBelow(3)) {
      case 0: return Add(a, b);
      case 1: return Sub(a, b);
      default: return Mul(a, b);
    }
  }
  return Int(rng_->NextInRange(-options_.max_const, options_.max_const));
}

// ---------------------------------------------------------------------------
// Shared kernel builders (moved verbatim from tests/test_util.h).
// ---------------------------------------------------------------------------

Formula RandomQuantifierFree(const std::vector<Var>& vars, int depth,
                             bool with_color, std::uint32_t max_dist,
                             Rng* rng) {
  if (depth == 0 || rng->NextBool(0.35)) {
    Var x = vars[rng->NextBelow(vars.size())];
    Var y = vars[rng->NextBelow(vars.size())];
    switch (rng->NextBelow(with_color ? 4 : 3)) {
      case 0:
        return Atom("E", {x, y});
      case 1:
        return Eq(x, y);
      case 2:
        return DistAtMost(x, y, static_cast<std::uint32_t>(
                                    rng->NextBelow(max_dist + 1)));
      default:
        return Atom("R", {x});
    }
  }
  switch (rng->NextBelow(3)) {
    case 0:
      return Not(RandomQuantifierFree(vars, depth - 1, with_color, max_dist, rng));
    case 1:
      return Or(RandomQuantifierFree(vars, depth - 1, with_color, max_dist, rng),
                RandomQuantifierFree(vars, depth - 1, with_color, max_dist, rng));
    default:
      return And(RandomQuantifierFree(vars, depth - 1, with_color, max_dist, rng),
                 RandomQuantifierFree(vars, depth - 1, with_color, max_dist, rng));
  }
}

Formula RandomGuardedKernel(const std::vector<Var>& vars, int depth,
                            bool with_color, std::uint32_t max_guard, Rng* rng,
                            int quantifier_budget) {
  if (depth == 0 || quantifier_budget == 0 || rng->NextBool(0.4)) {
    return RandomQuantifierFree(vars, depth, with_color, max_guard, rng);
  }
  switch (rng->NextBelow(4)) {
    case 0: {
      Var anchor = vars[rng->NextBelow(vars.size())];
      Var fresh = FreshVar("q");
      std::vector<Var> inner = vars;
      inner.push_back(fresh);
      std::uint32_t d = static_cast<std::uint32_t>(rng->NextBelow(max_guard) + 1);
      return GuardedExists(fresh, anchor, d,
                           RandomGuardedKernel(inner, depth - 1, with_color,
                                               max_guard, rng,
                                               quantifier_budget - 1));
    }
    case 1: {
      Var anchor = vars[rng->NextBelow(vars.size())];
      Var fresh = FreshVar("q");
      std::vector<Var> inner = vars;
      inner.push_back(fresh);
      std::uint32_t d = static_cast<std::uint32_t>(rng->NextBelow(max_guard) + 1);
      return GuardedForall(fresh, anchor, d,
                           RandomGuardedKernel(inner, depth - 1, with_color,
                                               max_guard, rng,
                                               quantifier_budget - 1));
    }
    case 2:
      return Or(RandomGuardedKernel(vars, depth - 1, with_color, max_guard, rng,
                                    quantifier_budget),
                RandomGuardedKernel(vars, depth - 1, with_color, max_guard, rng,
                                    quantifier_budget));
    default:
      return And(RandomGuardedKernel(vars, depth - 1, with_color, max_guard,
                                     rng, quantifier_budget),
                 Not(RandomGuardedKernel(vars, depth - 1, with_color, max_guard,
                                         rng, quantifier_budget)));
  }
}

}  // namespace focq::fuzz
