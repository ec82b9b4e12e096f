// Seeded random FOC1(P) formula/term generation for the differential
// fuzzing harness. Every expression produced is well formed and inside
// FOC1(P) by construction: numerical-predicate applications are generated
// around a single "pivot" variable, so the combined free variables of their
// argument terms never exceed one (Definition 5.1, rule (4')).
//
// Shared with the unit-test suites through tests/test_util.h, which also
// re-exports the quantifier-free and ball-guarded kernel builders below.
#ifndef FOCQ_TESTING_FORMULA_GEN_H_
#define FOCQ_TESTING_FORMULA_GEN_H_

#include <cstdint>
#include <vector>

#include "focq/logic/build.h"
#include "focq/logic/expr.h"
#include "focq/structure/signature.h"
#include "focq/util/rng.h"

namespace focq::fuzz {

struct FormulaGenOptions {
  // Boolean / quantifier nesting depth of the generated tree.
  int max_depth = 4;
  // Maximal counting-term nesting (#-depth, Section 6.3).
  int max_count_depth = 2;
  // Shared budget for quantifiers plus counting binders. The naive oracle is
  // O(n^budget), so keep this small relative to the universe bound.
  int max_binders = 3;
  // Free-variable arity of generated formulas: 0, 1 or 2.
  int max_free_vars = 2;
  // dist(x,y) <= d atoms with d <= max_dist_bound (0 disables them); one in
  // 16 draws d from a fixed set of bounds near 2^30, 2^31 and 2^32 instead.
  std::uint32_t max_dist_bound = 3;
  // Integer constants are drawn from [-max_const, max_const].
  std::int64_t max_const = 4;
};

/// Generates random well-formed FOC1(P) expressions over the relation
/// symbols of `sig` and the standard numerical predicates. Deterministic in
/// the Rng stream. Binder variables are drawn from a private pool, distinct
/// within each generated expression (the evaluators' Env requires binders
/// never to shadow).
class FormulaGenerator {
 public:
  FormulaGenerator(const Signature& sig, const FormulaGenOptions& options,
                   Rng* rng);

  /// A formula whose free variables are exactly a subset of `free_vars`
  /// (possibly fewer: subformula pruning may drop some).
  Formula GenerateFormula(const std::vector<Var>& free_vars);

  /// A formula with 0..max_free_vars free variables drawn from the pool
  /// fz0, fz1; the actually used variables are FreeVars() of the result.
  Formula GenerateFormula();

  /// A ground counting term.
  Term GenerateGroundTerm();

  /// A counting term with free variables within `free_vars`.
  Term GenerateTerm(const std::vector<Var>& free_vars);

 private:
  Formula GenFormula(const std::vector<Var>& scope, int depth, int* binders,
                     int count_depth);
  Formula GenLeaf(const std::vector<Var>& scope);
  Term GenTerm(const std::vector<Var>& scope, int depth, int* binders,
               int count_depth);
  Var NextBinder();

  const Signature& sig_;
  FormulaGenOptions options_;
  Rng* rng_;
  int binder_counter_ = 0;
};

// ---------------------------------------------------------------------------
// The shared random-kernel builders previously duplicated in
// tests/test_util.h (structured distributions used by the locality suites).
// ---------------------------------------------------------------------------

/// A random quantifier-free formula over the given variables, using E, R
/// (if `with_color`), equality and dist atoms with bound <= max_dist.
Formula RandomQuantifierFree(const std::vector<Var>& vars, int depth,
                             bool with_color, std::uint32_t max_dist, Rng* rng);

/// A random *guarded* kernel over `vars`: quantifier-free pieces plus
/// ball-guarded quantifiers anchored at the given variables.
Formula RandomGuardedKernel(const std::vector<Var>& vars, int depth,
                            bool with_color, std::uint32_t max_guard, Rng* rng,
                            int quantifier_budget = 2);

}  // namespace focq::fuzz

#endif  // FOCQ_TESTING_FORMULA_GEN_H_
