// The sampling evaluator behind Engine::kApprox: Monte-Carlo estimation of
// counting terms in the style of Dreier & Rossmanith's approximate FO
// counting [arXiv:2010.14814], engineered to the repo's determinism contract.
//
// Estimator. A counting binder #(y1..yk).phi ranges over the frame A^k of
// n^k assignments. The estimator draws m = ApproxSampleBudget(eps, delta)
// assignments uniformly (counter-based RNG, see counter_rng.h), checks phi
// exactly on each with the naive reference semantics, and returns
// round(frame * hits / m). Hoeffding: |estimate - exact| <= eps * frame with
// probability >= 1 - delta. Frames that fit inside the budget are enumerated
// exactly instead (estimate == exact there), so approximation only kicks in
// where enumeration would actually be expensive. Term arithmetic (+, *) over
// estimates uses the same checked int64 arithmetic as the exact engines.
//
// Stratification (opt-in, ApproxParams::stratify): the first sampled
// coordinate is partitioned by radius-r Hanf sphere type — elements with
// isomorphic r-neighbourhoods satisfy r-local formulas identically, so types
// are natural variance-reduction strata — and the budget is split across
// strata proportionally (largest-remainder rounding, >= 1 sample per
// non-empty stratum). The caller supplies the SphereTypeAssignment (the
// Engine::kApprox entry points pull it from the EvalContext cache when one
// is installed).
//
// Determinism: every draw is a pure function of (seed, binder ordinal, bound
// free-variable values, sample index), chunk bodies write per-chunk partial
// hit counts reduced in chunk order, so results are bit-identical for every
// num_threads and for warm vs cold contexts (DESIGN.md §3f).
//
// Only counting binders reachable from the term root through +/*/constants
// are approximated. Everything boolean — formulas, per-sample checks, counts
// nested inside numerical predicates — is evaluated exactly, which keeps
// status codes and row sets comparable bit-for-bit against the exact engines
// while count columns carry the error band.
#ifndef FOCQ_APPROX_ESTIMATOR_H_
#define FOCQ_APPROX_ESTIMATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "focq/approx/params.h"
#include "focq/eval/naive_eval.h"
#include "focq/hanf/sphere.h"
#include "focq/logic/expr.h"
#include "focq/obs/instruments.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {

/// The instrumentation handle of one evaluation plus its stratification
/// (borrowed, optional): `strata` non-null switches stratified sampling on;
/// it must be the radius-`stratify_radius` typing of the evaluated
/// structure.
struct ApproxEvalHooks : Instruments {
  const SphereTypeAssignment* strata = nullptr;
};

/// Splits a sample budget `m` across strata proportionally to their sizes:
/// floor shares, then largest-remainder rounding (ties to the lower index),
/// then every non-empty stratum is bumped to >= 1 sample. Deterministic and
/// shared with the error-band harness, which must reproduce the allocation
/// to compute per-stratum deviation bounds.
std::vector<CountInt> ApproxAllocateSamples(
    CountInt m, const std::vector<std::size_t>& stratum_sizes);

/// The Hoeffding deviation bound t = frame * sqrt(ln(2/tail_delta) / (2m))
/// for one sampled frame, rounded up; nullopt when it does not fit in
/// CountInt (the harness then skips the band for that column). Exact frames
/// (handled by enumeration) have bound 0 — callers gate on the budget.
std::optional<CountInt> ApproxDeviationBound(CountInt frame, CountInt m,
                                             double tail_delta);

/// A priori error bound for evaluating `term` with Engine::kApprox on a
/// structure of `universe_size` elements: the checked-int64 propagation of
/// per-binder deviation bounds (at confidence 1 - tail_delta each) through
/// the +/* arithmetic, plus per-stratum rounding slack. Pass the same
/// `strata` the estimator would use (nullptr: unstratified). This is what
/// the differential harness admits as |approx - exact| slack; nullopt means
/// the bound overflows int64 and the band cannot be checked.
std::optional<CountInt> ApproxErrorBound(
    const Expr& term, std::size_t universe_size, const ApproxParams& params,
    double tail_delta, const SphereTypeAssignment* strata = nullptr);

/// Evaluates counting terms on one fixed structure by sampling. Thread-
/// compatible like NaiveEvaluator: const structure, driven from one thread
/// (the sampling loops fan out internally via ParallelFor).
class ApproxEvaluator {
 public:
  /// `params` must already be validated; `a` and everything in `hooks` must
  /// outlive the evaluator.
  ApproxEvaluator(const Structure& a, const ApproxParams& params,
                  const ApproxEvalHooks& hooks = {});

  const Structure& structure() const { return *a_; }

  /// [[t]]^A up to the (eps, delta) contract; OutOfRange on int64 overflow,
  /// kDeadlineExceeded when an armed hard deadline fires mid-sampling.
  Result<CountInt> EvaluateGround(const Term& t);

  /// [[t]]^(A, beta) for a term with free variables bound in `env` (the
  /// query head-term path). Draws depend on the bound values, not on the
  /// order rows are evaluated in.
  Result<CountInt> Evaluate(const Term& t, Env* env);

 private:
  Result<CountInt> EvalNode(const ExprRef& node, Env* env);
  Result<CountInt> EstimateCount(const ExprRef& node, Env* env);

  const Structure* a_;
  ApproxParams params_;
  ApproxEvalHooks hooks_;
  NaiveEvaluator exact_;     // serial: exact-enumeration fallback
  std::uint64_t ordinal_ = 0;  // counting binders seen by the current walk
};

}  // namespace focq

#endif  // FOCQ_APPROX_ESTIMATOR_H_
