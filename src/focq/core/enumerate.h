// Streaming enumeration of query results — the direction of the paper's
// open problem (3) (constant-delay enumeration on nowhere dense classes,
// known for locally bounded expansion from [23]).
//
// What this provides, honestly stated: after a one-time preprocessing pass
// (the Theorem 6.10 compilation and marker materialisation, near-linear on
// sparse inputs for FOC1 conditions), the satisfying elements of a unary
// condition stream on demand, each candidate checked against the residual
// counting-free formula only when the consumer asks for it. For guarded
// residuals the per-candidate work is ball-local; true constant delay in the
// paper's sense would additionally require precomputed skip links, which is
// exactly the open problem.
#ifndef FOCQ_CORE_ENUMERATE_H_
#define FOCQ_CORE_ENUMERATE_H_

#include <memory>
#include <optional>

#include "focq/core/api.h"
#include "focq/core/evaluator.h"
#include "focq/core/plan.h"
#include "focq/logic/expr.h"
#include "focq/util/status.h"

namespace focq {

/// Lazily enumerates the elements satisfying a formula with (at most) one
/// free variable, in increasing element order.
class SolutionStream {
 public:
  /// Compiles and materialises; the structure is copied internally, so the
  /// stream stays valid independently of the caller's data. The executor
  /// runs with the options' term engine, thread count and sinks; installed
  /// sinks must outlive the stream.
  static Result<std::unique_ptr<SolutionStream>> Open(
      const Formula& condition, const Structure& a,
      const EvalOptions& options = {});

  /// The next satisfying element, or nullopt when exhausted. For sentences
  /// the stream yields element 0 once iff the sentence holds.
  std::optional<ElemId> Next();

  /// Restarts the stream from the beginning (preprocessing is reused).
  void Reset() { next_candidate_ = 0; }

  /// Elements remaining to inspect (an upper bound on remaining results).
  std::size_t CandidatesLeft() const;

 private:
  SolutionStream(EvalPlan plan, const Structure& a, const ExecOptions& exec);

  EvalPlan plan_;  // must outlive executor_
  std::unique_ptr<PlanExecutor> executor_;
  bool is_sentence_ = false;
  ElemId next_candidate_ = 0;
};

}  // namespace focq

#endif  // FOCQ_CORE_ENUMERATE_H_
