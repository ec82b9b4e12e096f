// Knobs of the approximate counting engine (Engine::kApprox), kept in a
// leaf header so the public EvalOptions can embed them without pulling the
// estimator (and its hanf/eval dependencies) into every core include.
#ifndef FOCQ_APPROX_PARAMS_H_
#define FOCQ_APPROX_PARAMS_H_

#include <cstdint>

#include "focq/util/checked_arith.h"
#include "focq/util/status.h"

namespace focq {

/// The radius of the Hanf sphere types that stratified sampling
/// (ApproxParams::stratify) draws its strata from.
inline constexpr std::uint32_t kApproxStratifyRadius = 1;

/// Accuracy contract and seeding of Engine::kApprox. A counting binder
/// #(y1..yk).phi ranges over a frame of n^k assignments; the estimator draws
/// m = ApproxSampleBudget(eps, delta) uniform assignments and scales the hit
/// fraction back up, which by Hoeffding's inequality lands within
/// eps * n^k of the exact count with probability >= 1 - delta — the additive
/// flavour of the Dreier–Rossmanith (1±ε) guarantee, degrading gracefully on
/// dense counts and checked statistically by the differential harness
/// (DESIGN.md §3f). Frames no larger than the budget are enumerated exactly,
/// so small counts are not approximated at all.
struct ApproxParams {
  double eps = 0.1;     // relative/frame error target, in (0, 1)
  double delta = 0.01;  // per-binder failure probability, in (0, 1)
  std::uint64_t seed = 1;
  // Stratify the first sampled coordinate by radius-kApproxStratifyRadius
  // Hanf sphere type (reusing the typing cached in EvalContext when
  // available): per-type subframes are sampled proportionally, which removes
  // the between-type variance component. Changes which assignments are
  // drawn, so it is a distinct (still deterministic) estimator, not a
  // transparent speedup — hence opt-in.
  bool stratify = false;
};

/// kInvalidArgument unless eps and delta both lie strictly inside (0, 1).
Status ValidateApproxParams(const ApproxParams& p);

/// The Hoeffding sample budget ceil(ln(2/delta) / (2 eps^2)) for one
/// counting binder, clamped to [1, 2^26] so degenerate knobs cannot ask for
/// an unbounded amount of work. Monotone: smaller eps or delta => more
/// samples. Parameters must already be validated.
CountInt ApproxSampleBudget(double eps, double delta);

}  // namespace focq

#endif  // FOCQ_APPROX_PARAMS_H_
