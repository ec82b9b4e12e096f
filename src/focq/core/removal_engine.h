// The Section 8.2 recursion, end to end: evaluating a unary basic cl-term at
// every element by
//   1. covering the structure with a sparse neighbourhood cover,
//   2. materialising each cluster B_X,
//   3. letting Splitter answer the cluster centre's move and removing that
//      element via the Removal Lemma surgery (A *r d, Section 7.3),
//   4. rewriting the counting term through Lemma 7.9 and recursing on the
//      smaller structure,
// with a direct local evaluation at the recursion base. On nowhere dense
// inputs the splitter game guarantees shallow recursion; the engine is exact
// on every input (differentially tested against the ball evaluator) and
// exists to demonstrate the paper's actual algorithm -- the production fast
// path remains the ball/cover evaluators.
#ifndef FOCQ_CORE_REMOVAL_ENGINE_H_
#define FOCQ_CORE_REMOVAL_ENGINE_H_

#include <cstdint>
#include <vector>

#include "focq/core/context.h"
#include "focq/locality/cl_term.h"
#include "focq/util/status.h"

namespace focq {

/// The instrumentation handle plus the recursion knobs. The thread count
/// drives the per-level SparseCover builds (a pure speed knob: results and
/// removal.* counters are bit-identical for every value); metrics receives
/// the removal.* counters (surgeries, cover builds, recursion depth
/// high-water mark) and the per-level cover.* build counters; progress
/// advances the kRemoval phase per visited cluster and polls the deadline
/// there, a hard expiry surfacing as kDeadlineExceeded.
struct RemovalEngineOptions : Instruments {
  /// Clusters and recursion arenas at most this large are evaluated
  /// directly.
  std::size_t base_size = 24;
  /// Hard recursion cap (the empirical lambda(2kr) stand-in); deeper arenas
  /// fall back to direct evaluation. Exactness is unaffected.
  std::uint32_t max_depth = 6;
  /// Optional shared artifact cache (not owned; may be null). Used only for
  /// the top-level arena — recursion levels run on derived substructures the
  /// context does not cache — and only when it caches artifacts of the
  /// evaluated structure.
  EvalContext* context = nullptr;
};

/// Values of the unary basic cl-term at every element of `a` via the
/// removal recursion. `gaifman` must be BuildGaifmanGraph(a).
Result<std::vector<CountInt>> EvaluateBasicWithRemoval(
    const Structure& a, const Graph& gaifman, const BasicClTerm& basic,
    const RemovalEngineOptions& options = {});

}  // namespace focq

#endif  // FOCQ_CORE_REMOVAL_ENGINE_H_
