// The public facade of focq: model checking, counting, term evaluation and
// FOC1(P)-query evaluation (Theorem 5.5 / Corollary 5.6), with a switch
// between the naive reference engine and the locality-based engine.
#ifndef FOCQ_CORE_API_H_
#define FOCQ_CORE_API_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "focq/approx/params.h"
#include "focq/core/context.h"
#include "focq/core/evaluator.h"
#include "focq/core/plan.h"
#include "focq/eval/query.h"
#include "focq/logic/expr.h"
#include "focq/obs/openmetrics.h"
#include "focq/obs/progress.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {

enum class StatementKind : std::uint8_t;  // focq/core/statement.h

/// Which evaluation pipeline to use.
enum class Engine {
  kNaive,   // direct Definition 3.1 semantics (the ground-truth baseline)
  kLocal,   // Theorem 6.10 decomposition + local cl-term evaluation
  kApprox,  // sampling estimation of counting terms (DESIGN.md §3f): counts
            // carry the (eps, delta) Hoeffding contract of EvalOptions::
            // approx; everything boolean (sentences, query conditions) is
            // still exact, via the kLocal pipeline
};

struct EvalOptions {
  Engine engine = Engine::kLocal;
  TermEngine term_engine = TermEngine::kBall;  // used by Engine::kLocal
  // Accuracy contract, seed and stratification of Engine::kApprox (ignored
  // by the exact engines). Like everything else here, results are
  // bit-identical for every num_threads and for warm vs cold contexts —
  // the sampling RNG is counter-based per sample, not per chunk.
  ApproxParams approx;
  // Worker threads for the parallel engine: 0 = all hardware threads,
  // 1 (default) = serial. Every result is bit-identical for every value —
  // parallel loops write disjoint slots and reduce partial counts in a
  // fixed chunk order (see DESIGN.md, "Concurrency model").
  int num_threads = 1;
  // Optional observability sinks (not owned; may be null). Counters for
  // input-determined quantities (plan layers, clusters, anchors, tuples) are
  // identical for every num_threads; spans record wall time only. Installing
  // sinks never changes results (see DESIGN.md, "Observability").
  MetricsSink* metrics = nullptr;
  TraceSink* trace = nullptr;
  // EXPLAIN / EXPLAIN ANALYZE (not owned; may be null): materialises every
  // compiled plan as a PlanNode tree under `explain_parent` (-1: forest
  // roots) and attributes per-node wall time, memory high-water marks and —
  // when `metrics` is also installed — the deterministic pipeline counters.
  // Warm batches through a Session attribute per query: every EvaluateQuery
  // call adds its own "query" root to the sink. Installing a sink never
  // changes results (see DESIGN.md, "Observability").
  ExplainSink* explain = nullptr;
  int explain_parent = -1;
  // Live progress + cooperative cancellation (not owned; may be null). The
  // sink's monotone per-phase counters are advanced from the engines at
  // ParallelFor chunk granularity; a polling thread may read them at any
  // time. Installing a sink never changes results. When `deadline` is armed
  // (soft_ms/hard_ms > 0) it is (re)armed against the sink at every entry
  // point: soft expiry fires the sink's one-shot callback (the CLI dumps the
  // flight recorder there); hard expiry cancels the call cooperatively at
  // the next chunk boundary and the call returns kDeadlineExceeded carrying
  // the progress snapshot. A deadline with a null `progress` gets a private
  // call-local sink, so cancellation works without external wiring. No
  // partially built artifacts are ever cached by a cancelled call, and a
  // re-run after cancellation is bit-identical to a cold run (see DESIGN.md
  // §3b, "Live observability").
  ProgressSink* progress = nullptr;
  Deadline deadline;
  // Optional shared artifact cache (not owned; may be null). When set and
  // caching artifacts of the evaluated structure, Gaifman graphs and covers
  // are pulled from it instead of being rebuilt per call — results stay
  // bit-identical to the uncached path for every engine, backend and thread
  // count (artifacts are pure functions of the structure). A context caching
  // a *different* structure is ignored, so options objects can be reused
  // across structures safely. Session wires this up automatically.
  EvalContext* context = nullptr;
};

/// Decides A |= phi for a sentence phi of FOC(P). With Engine::kLocal, phi
/// should be in FOC1(P) for the fast path; anything outside falls back to
/// direct evaluation internally (still correct).
Result<bool> ModelCheck(const Formula& sentence, const Structure& a,
                        const EvalOptions& options = {});

/// Evaluates a ground counting term t^A.
Result<CountInt> EvaluateGroundTerm(const Term& t, const Structure& a,
                                    const EvalOptions& options = {});

/// The counting problem |phi(A)| (Corollary 5.6): the number of assignments
/// of phi's free variables that satisfy phi.
Result<CountInt> CountSolutions(const Formula& phi, const Structure& a,
                                const EvalOptions& options = {});

/// Full query evaluation (Definition 5.2).
Result<QueryResult> EvaluateQuery(const Foc1Query& q, const Structure& a,
                                  const EvalOptions& options = {});

/// Batch query evaluation over one structure: every query is evaluated with
/// EvaluateQuery semantics, but all of them share one EvalContext (the one in
/// `options`, or a fresh batch-local one), so the Gaifman graph and each
/// (radius, backend) cover are built at most once for the whole batch.
/// Queries are independent: one query failing does not stop the rest.
std::vector<Result<QueryResult>> EvaluateQueries(
    std::span<const Foc1Query> queries, const Structure& a,
    const EvalOptions& options = {});

/// Applies one tuple update to `a` and repairs the artifacts cached in
/// `options.context` (which must be caching `a`) in place, with the options'
/// thread count and metrics / trace / explain sinks — see
/// EvalContext::ApplyUpdate for the full update/invalidate contract. A null
/// `a` (a read-only target) or context fails with kUnsupported.
Result<UpdateStats> ApplyUpdate(const TupleUpdate& u, Structure* a,
                                const EvalOptions& options);

/// A long-lived evaluation session over one structure: the facade for
/// serving workloads. Owns an EvalContext and threads it through every call,
/// so N queries pay for each artifact once. The structure must outlive the
/// session and stay unmodified *except through ApplyUpdate* (available when
/// the session was constructed over a mutable structure), which repairs the
/// cached artifacts in place instead of rebuilding them (DESIGN.md §3e).
/// Thread-compatible; concurrent sessions may share a structure (each owns
/// its own context — but then none of them may update it) and a single
/// Session should be driven from one thread at a time.
class Session {
 public:
  /// `defaults` seeds the per-call options (engine, term engine, threads,
  /// sinks); its `context` field is ignored — the session installs its own.
  /// A session over a const structure is read-only: ApplyUpdate fails with
  /// kUnsupported.
  explicit Session(const Structure& a, const EvalOptions& defaults = {})
      : a_(&a), options_(defaults), context_(a) {
    options_.context = &context_;
  }

  /// A read-write session: same as above, plus ApplyUpdate.
  explicit Session(Structure* a, const EvalOptions& defaults = {})
      : a_(a), mutable_a_(a), options_(defaults), context_(*a) {
    options_.context = &context_;
  }

  const Structure& structure() const { return *a_; }
  EvalContext& context() { return context_; }
  const EvalOptions& options() const { return options_; }

  /// Applies one tuple-level update to the live structure and incrementally
  /// repairs the session's cached artifacts (see EvalContext::ApplyUpdate
  /// for the full update/invalidate contract). Subsequent evaluations
  /// observe the updated structure and reuse every artifact that survived.
  /// Fails with kUnsupported on a read-only session; validation errors
  /// (unknown symbol, arity, bounds) leave everything untouched.
  Result<UpdateStats> ApplyUpdate(const TupleUpdate& u);

  /// Parses, checks and executes one statement through ExecuteStatement
  /// (focq/core/statement.h) with this session's options, context and — on a
  /// read-write session — structure; returns the canonical response text.
  Result<std::string> Execute(StatementKind kind, std::string_view text);

  Result<bool> ModelCheck(const Formula& sentence) {
    Result<bool> r = focq::ModelCheck(sentence, *a_, options_);
    MaybeSampleOpenMetrics();
    return r;
  }
  Result<CountInt> EvaluateGroundTerm(const Term& t) {
    Result<CountInt> r = focq::EvaluateGroundTerm(t, *a_, options_);
    MaybeSampleOpenMetrics();
    return r;
  }
  Result<CountInt> CountSolutions(const Formula& phi) {
    Result<CountInt> r = focq::CountSolutions(phi, *a_, options_);
    MaybeSampleOpenMetrics();
    return r;
  }
  Result<QueryResult> EvaluateQuery(const Foc1Query& q) {
    Result<QueryResult> r = focq::EvaluateQuery(q, *a_, options_);
    MaybeSampleOpenMetrics();
    return r;
  }

  /// Enables OpenMetrics snapshot sampling: after every call routed through
  /// this session (evaluations and updates alike) the cumulative state of
  /// the session's metrics sink and progress sink — whichever of the two are
  /// installed — is appended to `series` as one timestamped sample. The
  /// series is borrowed, not owned; pass nullptr to stop sampling. No
  /// background thread is involved: sampling happens at call boundaries
  /// only, so a session stays single-threaded.
  void EnableOpenMetricsSampling(OpenMetricsSeries* series) {
    om_series_ = series;
  }

 private:
  void MaybeSampleOpenMetrics();

  const Structure* a_;
  Structure* mutable_a_ = nullptr;  // non-null iff constructed read-write
  EvalOptions options_;
  EvalContext context_;
  OpenMetricsSeries* om_series_ = nullptr;  // not owned; may be null
};

}  // namespace focq

#endif  // FOCQ_CORE_API_H_
