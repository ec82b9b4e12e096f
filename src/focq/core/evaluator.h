// Plan execution: materialising the marker layers of Theorem 6.10 on a
// working copy of the structure and evaluating the residual formula or term.
// This is steps (1)-(4) of the Section 6.3 evaluation procedure, with the
// basic cl-terms evaluated either by direct ball exploration (Remark 6.3) or
// cluster-by-cluster over a sparse neighbourhood cover (Section 8.2).
#ifndef FOCQ_CORE_EVALUATOR_H_
#define FOCQ_CORE_EVALUATOR_H_

#include <memory>
#include <span>

#include "focq/core/context.h"
#include "focq/core/plan.h"
#include "focq/cover/neighborhood_cover.h"
#include "focq/locality/cl_term.h"
#include "focq/locality/local_eval.h"
#include "focq/obs/instruments.h"

namespace focq {

/// How basic cl-terms are evaluated.
enum class TermEngine {
  kBall,         // Remark 6.3: per-anchor ball exploration on the full graph
  kSparseCover,  // Section 8.2: per-cluster evaluation over a sparse cover
  kExactCover,   // same, over the exact-ball cover (ablation baseline)
};

/// The instrumentation handle (focq/obs/instruments.h) plus the cl-term
/// engine: everything one plan execution needs besides the plan.
struct ExecOptions : Instruments {
  TermEngine term_engine = TermEngine::kBall;
};

/// Executes one plan against one structure.
class PlanExecutor {
 public:
  /// Copies `input`; the expansion never mutates the caller's structure.
  /// With `context` null the executor owns a private EvalContext over its
  /// copy (the standalone one-shot path). A non-null `context` — which must
  /// cache artifacts of `input` — is shared: the Gaifman graph and every
  /// cover are pulled from it instead of being rebuilt, which is how a
  /// Session amortises them across queries. Marker relations materialised by
  /// the plan are unary/nullary, so the cached graph and covers stay valid
  /// for the expansion as well.
  PlanExecutor(const EvalPlan& plan, const Structure& input,
               const ExecOptions& options, EvalContext* context = nullptr);

  /// Materialises all marker layers. Must be called (once) before the
  /// queries below.
  Status MaterializeLayers();

  /// The expanded structure (valid after MaterializeLayers()).
  const Structure& expanded() const { return structure_; }

  /// Residual-formula plans: evaluation as a sentence, at one element, or at
  /// every element of the universe.
  Result<bool> CheckSentence();
  Result<bool> CheckAt(ElemId a);
  Result<std::vector<bool>> CheckAll();

  /// Residual-term plans.
  Result<CountInt> TermValue();                  // ground
  Result<std::vector<CountInt>> TermValues();    // unary: value per element

 private:
  /// Values of `term` at every element (one slot if ground), on the
  /// configured engine: the ball engine reads the balls of exact covers as
  /// tables, the cover engines count each basic in the clusters of a cover
  /// of the radius it needs.
  Result<std::vector<CountInt>> EvalClTermAll(const ClTerm& term,
                                              int explain_node);
  /// fn(eval, env) at every element a, with `vars` (at most one) bound to a
  /// in env and one LocalEvaluator per chunk; a's value (a Result of a type
  /// convertible to T) lands in slot a.
  /// Advances `phase` per element and polls the deadline: a hard expiry
  /// returns kDeadlineExceeded, else a failing fn its first chunk's error.
  template <typename T, typename Fn>
  Result<std::vector<T>> AtEveryElement(ProgressPhase phase,
                                        std::span<const Var> vars, Fn fn);
  /// The cover for `radius` under the configured backend, from the cache.
  /// Fails with kDeadlineExceeded when the hard deadline fires during the
  /// build (the partial artifact is discarded, never cached).
  Result<const NeighborhoodCover*> CoverFor(std::uint32_t radius);
  void RecordStructureBytes();

  const EvalPlan& plan_;
  ExecOptions options_;
  PlanNodeIds node_ids_;
  Structure structure_;
  // Artifact source. owned_context_ is set only on the standalone path and
  // borrows structure_ (covers derive from the cached Gaifman graph, which
  // is built before any marker mutation and unaffected by it).
  std::unique_ptr<EvalContext> owned_context_;
  EvalContext* context_;
  const Graph& gaifman_;
  bool materialized_ = false;
  std::unique_ptr<LocalEvaluator> final_eval_;
};

}  // namespace focq

#endif  // FOCQ_CORE_EVALUATOR_H_
