#include "focq/core/api.h"

#include <optional>

#include "focq/approx/estimator.h"
#include "focq/eval/naive_eval.h"
#include "focq/logic/build.h"
#include "focq/logic/printer.h"
#include "focq/structure/gaifman.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

// Cancellation setup for one top-level API call: when the caller armed a
// deadline, (re)start the sink's clock — conjuring a private call-local sink
// when none was installed, so `deadline` alone suffices — and clear the
// deadline from the forwarded options. Nested entry points (a query's
// condition/head-term sub-calls) then see an unarmed deadline and leave the
// running clock alone: the budget covers the whole top-level call.
struct ProgressScope {
  std::optional<ProgressSink> local;
  EvalOptions options;

  explicit ProgressScope(const EvalOptions& in) : options(in) {
    if (!options.deadline.armed()) return;
    if (options.progress == nullptr) options.progress = &local.emplace();
    options.progress->ArmDeadline(options.deadline);
    options.deadline = Deadline{};
  }
};

// The caller's shared context, if it actually caches artifacts of `a`;
// nullptr otherwise (each executor then owns a private context). The pointer
// comparison makes stale options objects degrade to the uncached path
// instead of serving artifacts of the wrong structure.
EvalContext* UsableContext(const EvalOptions& options, const Structure& a) {
  if (options.context != nullptr && &options.context->structure() == &a) {
    return options.context;
  }
  return nullptr;
}

// Plan-shape counters (sums and high-water marks over every compilation this
// sink observes); all derived from the query alone, hence thread-count
// independent by construction.
void RecordPlanMetrics(const EvalPlan& plan, const Instruments& in) {
  EvalPlan::Stats stats = plan.ComputeStats();
  in.Count("plan.compilations", 1);
  in.Count("plan.layers", static_cast<std::int64_t>(stats.num_layers));
  in.Count("plan.relations", static_cast<std::int64_t>(stats.num_relations));
  in.Count("plan.fallback_relations",
           static_cast<std::int64_t>(stats.num_fallback_relations));
  in.Count("plan.basic_cl_terms",
           static_cast<std::int64_t>(stats.num_basic_cl_terms));
  in.Max("plan.max_width", static_cast<std::int64_t>(stats.max_width));
  in.Max("plan.max_radius", static_cast<std::int64_t>(stats.max_radius));
}

// With the naive engine the work tally lives on the evaluator; flush it so
// both engines report through the same sink interface.
void FlushNaiveMetrics(const NaiveEvaluator& eval, const Instruments& in) {
  in.Count("naive.tuples_enumerated", eval.tuples_enumerated());
}

// Everything one Engine::kApprox call hands the estimator, plus owned
// storage for a stratification typing built without a shared context.
struct ApproxSetup {
  ApproxEvalHooks hooks;
  std::optional<SphereTypeAssignment> local_strata;
};

// Validates the (eps, delta) contract and resolves the stratification
// typing: from the caller's EvalContext when one caches this structure
// (cancellable build, approx.strata_reused counter), else computed locally —
// the typing is a pure function of (structure, radius), so warm and cold
// runs stratify identically and stay bit-identical (DESIGN.md §3f). The
// estimator reports under the explain node of `call`.
Status PrepareApprox(const EvalOptions& options, const Instruments& call,
                     const Structure& a, ApproxSetup* setup) {
  FOCQ_RETURN_IF_ERROR(ValidateApproxParams(options.approx));
  setup->hooks = {call, nullptr};
  if (!options.approx.stratify) return Status::Ok();
  const std::uint32_t r = kApproxStratifyRadius;
  if (EvalContext* context = UsableContext(options, a); context != nullptr) {
    const bool reused = context->CachedSphereTypes(r) != nullptr;
    Result<const SphereTypeAssignment*> typing =
        context->TrySphereTypes(r, options);
    if (!typing.ok()) return typing.status();
    setup->hooks.strata = *typing;
    options.Count("approx.strata_reused", reused ? 1 : 0);
  } else {
    Graph gaifman = BuildGaifmanGraph(a);
    setup->local_strata.emplace(ComputeSphereTypes(a, gaifman, r, options));
    if (options.Cancelled()) return options.DeadlineStatus();
    setup->hooks.strata = &*setup->local_strata;
  }
  return Status::Ok();
}

}  // namespace

Result<bool> ModelCheck(const Formula& sentence, const Structure& a,
                        const EvalOptions& caller_options) {
  if (!FreeVars(sentence).empty()) {
    return Status::InvalidArgument("ModelCheck expects a sentence");
  }
  ProgressScope scope(caller_options);
  if (scope.options.engine == Engine::kApprox) {
    // Sentences are boolean: there is no count to approximate. Validate the
    // contract anyway (bad knobs fail uniformly across entry points) and
    // answer exactly through the locality pipeline.
    FOCQ_RETURN_IF_ERROR(ValidateApproxParams(scope.options.approx));
    scope.options.engine = Engine::kLocal;
    scope.options.Count("approx.boolean_exact", 1);
  }
  const EvalOptions& options = scope.options;
  // One explain node per public-API call: what the call compiles and
  // executes registers beneath it.
  ExecOptions call = options;
  call.explain_parent = options.NewNode(
      options.engine == Engine::kNaive ? "naive-check" : "check",
      ToString(sentence));
  Phase call_phase(call, "", call.explain_parent);
  if (options.engine == Engine::kNaive) {
    Phase phase(options, "naive_eval");
    NaiveEvaluator eval(a);
    eval.set_progress(options);
    Env env;
    Result<bool> holds = eval.Check(sentence, &env);
    FlushNaiveMetrics(eval, options);
    if (eval.stopped()) return options.DeadlineStatus();
    return holds;
  }
  Result<EvalPlan> plan = [&] {
    Phase phase(call, "compile", call.NewNode("compile", "formula"));
    return CompileFormula(sentence, a.signature());
  }();
  if (!plan.ok()) return plan.status();
  RecordPlanMetrics(*plan, options);
  PlanExecutor exec(*plan, a, call, UsableContext(options, a));
  FOCQ_RETURN_IF_ERROR(exec.MaterializeLayers());
  return exec.CheckSentence();
}

Result<CountInt> EvaluateGroundTerm(const Term& t, const Structure& a,
                                    const EvalOptions& caller_options) {
  if (!FreeVars(t).empty()) {
    return Status::InvalidArgument("EvaluateGroundTerm expects a ground term");
  }
  ProgressScope scope(caller_options);
  const EvalOptions& options = scope.options;
  ExecOptions call = options;
  call.explain_parent =
      options.NewNode(options.engine == Engine::kNaive    ? "naive-term"
                      : options.engine == Engine::kApprox ? "approx-term"
                                                          : "term",
                      ToString(t));
  Phase call_phase(call, "", call.explain_parent);
  if (options.engine == Engine::kNaive) {
    Phase phase(options, "naive_eval");
    NaiveEvaluator eval(a);
    eval.set_progress(options);
    Result<CountInt> v = eval.Evaluate(t);
    FlushNaiveMetrics(eval, options);
    return v;
  }
  if (options.engine == Engine::kApprox) {
    Phase phase(options, "approx_eval");
    ApproxSetup setup;
    FOCQ_RETURN_IF_ERROR(PrepareApprox(options, call, a, &setup));
    ApproxEvaluator eval(a, options.approx, setup.hooks);
    return eval.EvaluateGround(t);
  }
  Result<EvalPlan> plan = [&] {
    Phase phase(call, "compile", call.NewNode("compile", "term"));
    return CompileTerm(t, a.signature());
  }();
  if (!plan.ok()) return plan.status();
  RecordPlanMetrics(*plan, options);
  PlanExecutor exec(*plan, a, call, UsableContext(options, a));
  FOCQ_RETURN_IF_ERROR(exec.MaterializeLayers());
  return exec.TermValue();
}

Result<CountInt> CountSolutions(const Formula& phi, const Structure& a,
                                const EvalOptions& caller_options) {
  ProgressScope scope(caller_options);
  const EvalOptions& options = scope.options;
  std::vector<Var> free = FreeVars(phi);
  if (free.empty()) {
    Result<bool> holds = ModelCheck(phi, a, options);
    if (!holds.ok()) return holds.status();
    return *holds ? CountInt{1} : CountInt{0};
  }
  if (options.engine == Engine::kNaive) {
    Phase phase(options, "naive_eval",
                options.NewNode("naive-count", ToString(phi)));
    NaiveEvaluator eval(a);
    eval.set_progress(options);
    Result<CountInt> v = eval.CountSolutions(phi, options.num_threads);
    FlushNaiveMetrics(eval, options);
    return v;
  }
  return EvaluateGroundTerm(Count(free, phi), a, options);
}

namespace {

Result<QueryResult> EvaluateUnaryQueryLocal(const Foc1Query& q,
                                            const Structure& a,
                                            const EvalOptions& options) {
  // One free variable: evaluate the condition and every head term for all
  // elements in bulk. Condition and head-term executors share one context,
  // so the Gaifman graph and covers are built once for the whole query.
  EvalContext* context = UsableContext(options, a);

  ExecOptions cond_call = options;
  cond_call.explain_parent =
      options.NewNode("condition", ToString(q.condition));
  Result<std::vector<bool>> sat = [&]() -> Result<std::vector<bool>> {
    Phase call_phase(cond_call, "", cond_call.explain_parent);
    Result<EvalPlan> cond_plan = [&] {
      Phase phase(cond_call, "compile",
                  cond_call.NewNode("compile", "formula"));
      return CompileFormula(q.condition, a.signature());
    }();
    if (!cond_plan.ok()) return cond_plan.status();
    RecordPlanMetrics(*cond_plan, options);
    PlanExecutor cond_exec(*cond_plan, a, cond_call, context);
    FOCQ_RETURN_IF_ERROR(cond_exec.MaterializeLayers());
    return cond_exec.CheckAll();
  }();
  if (!sat.ok()) return sat.status();

  std::vector<std::vector<CountInt>> term_values;
  std::vector<EvalPlan> term_plans;  // must outlive their executors
  term_plans.reserve(q.head_terms.size());
  for (const Term& t : q.head_terms) {
    ExecOptions term_call = options;
    term_call.explain_parent = options.NewNode("head-term", ToString(t));
    Phase call_phase(term_call, "", term_call.explain_parent);
    Result<EvalPlan> plan = [&] {
      Phase phase(term_call, "compile", term_call.NewNode("compile", "term"));
      return CompileTerm(t, a.signature());
    }();
    if (!plan.ok()) return plan.status();
    RecordPlanMetrics(*plan, options);
    term_plans.push_back(std::move(*plan));
    PlanExecutor exec(term_plans.back(), a, term_call, context);
    FOCQ_RETURN_IF_ERROR(exec.MaterializeLayers());
    Result<std::vector<CountInt>> values = exec.TermValues();
    if (!values.ok()) return values.status();
    term_values.push_back(std::move(*values));
  }

  QueryResult result;
  for (ElemId e = 0; e < a.universe_size(); ++e) {
    if (!(*sat)[e]) continue;
    QueryRow row;
    row.elements = {e};
    for (const auto& values : term_values) row.counts.push_back(values[e]);
    result.rows.push_back(std::move(row));
  }
  return result;
}

// Multi-variable heads: LocalEvaluator::CandidateTuples lists the candidate
// head tuples, binding the head variables in turn as counting binders of the
// condition (ball guard, then the most selective atom or equality, then the
// universe), so a condition with a relational join visits index lookups
// rather than A^k. Every candidate is then verified against the full
// condition with the guard-and-index-aware LocalEvaluator.
Result<QueryResult> EvaluateMultiQueryLocal(const Foc1Query& q,
                                            const Structure& a,
                                            const EvalOptions& options) {
  // The verification evaluators only need the (query-independent) Gaifman
  // graph; pull it from the shared context so a batch builds it once.
  std::optional<EvalContext> local_context;
  EvalContext* context = UsableContext(options, a);
  if (context == nullptr) context = &local_context.emplace(a);
  const Graph& gaifman = context->Gaifman(options);
  const std::size_t k = q.head_vars.size();
  Phase verify_phase(
      options, "",
      options.NewNode("candidate-verify", std::to_string(k) + " head vars"));

  const std::vector<Tuple> candidates =
      LocalEvaluator(a, gaifman)
          .CandidateTuples(q.condition, q.head_vars, options);
  if (options.Cancelled()) return options.DeadlineStatus();

  // Verify candidates in parallel: each chunk checks its share of the
  // (sorted) candidate list with a private evaluator and collects rows into
  // a private vector; concatenating those in chunk order reproduces the
  // serial row order exactly.
  options.Count("query.candidates_verified",
                static_cast<std::int64_t>(candidates.size()));
  const int workers = EffectiveThreads(options.num_threads);
  const std::size_t num_chunks =
      MakeChunkGrid(candidates.size(), workers).num_chunks;
  std::vector<std::vector<QueryRow>> chunk_rows(num_chunks);
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  options.AddTotal(ProgressPhase::kResidual,
                   static_cast<std::int64_t>(candidates.size()));
  ParallelFor(
      workers, candidates.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        LocalEvaluator eval(a, gaifman);
        for (std::size_t c = begin; c < end; ++c) {
          if (options.ShouldStop()) return;  // drain on hard deadline
          options.Advance(ProgressPhase::kResidual, 1);
          const Tuple& head = candidates[c];
          Env env;
          for (std::size_t i = 0; i < k; ++i) {
            env.Bind(q.head_vars[i], head[i]);
          }
          Result<bool> holds = eval.Check(q.condition, &env);
          if (!holds.ok()) {
            chunk_status[chunk] = holds.status();
            return;
          }
          if (!*holds) continue;
          QueryRow row;
          row.elements = head;
          for (const Term& t : q.head_terms) {
            Result<CountInt> v = eval.Evaluate(t, &env);
            if (!v.ok()) {
              chunk_status[chunk] = v.status();
              return;
            }
            row.counts.push_back(*v);
          }
          chunk_rows[chunk].push_back(std::move(row));
        }
      });
  if (options.Cancelled()) return options.DeadlineStatus();
  QueryResult result;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    if (!chunk_status[c].ok()) return chunk_status[c];
    for (QueryRow& row : chunk_rows[c]) {
      result.rows.push_back(std::move(row));
    }
  }
  return result;
}

// Engine::kApprox queries: the boolean part (which rows qualify) is answered
// exactly by the kLocal pipeline on a head-term-less shell of the query, so
// row sets are bit-identical to the exact engines; only the head-term count
// columns are estimated. Rows are walked in their deterministic order and
// each term's draws depend on the row's bound values, so the columns are
// identical for every thread count.
Result<QueryResult> EvaluateQueryApprox(const Foc1Query& q, const Structure& a,
                                        const EvalOptions& options) {
  FOCQ_RETURN_IF_ERROR(ValidateApproxParams(options.approx));
  Foc1Query shell = q;
  shell.head_terms.clear();
  EvalOptions exact = options;
  exact.engine = Engine::kLocal;
  Result<QueryResult> rows = q.head_vars.size() >= 2
                                 ? EvaluateMultiQueryLocal(shell, a, exact)
                                 : EvaluateUnaryQueryLocal(shell, a, exact);
  if (!rows.ok()) return rows;
  if (q.head_terms.empty()) return rows;
  Instruments call = options;
  call.explain_parent = options.NewNode(
      "approx-head-terms", std::to_string(q.head_terms.size()) +
                               " terms over " +
                               std::to_string(rows.value().rows.size()) +
                               " rows");
  Phase call_phase(call, "", call.explain_parent);
  ApproxSetup setup;
  FOCQ_RETURN_IF_ERROR(PrepareApprox(options, call, a, &setup));
  ApproxEvaluator eval(a, options.approx, setup.hooks);
  QueryResult result = std::move(rows.value());
  for (QueryRow& row : result.rows) {
    Env env;
    for (std::size_t i = 0; i < q.head_vars.size(); ++i) {
      env.Bind(q.head_vars[i], row.elements[i]);
    }
    for (const Term& t : q.head_terms) {
      Result<CountInt> v = eval.Evaluate(t, &env);
      if (!v.ok()) return v.status();
      row.counts.push_back(*v);
    }
  }
  return result;
}

}  // namespace

Result<QueryResult> EvaluateQuery(const Foc1Query& q, const Structure& a,
                                  const EvalOptions& caller_options) {
  FOCQ_RETURN_IF_ERROR(q.Validate());
  // One budget for the whole query: condition and head-term sub-calls see an
  // already-armed sink and an unarmed deadline, so they poll without
  // restarting the clock.
  ProgressScope scope(caller_options);
  const EvalOptions& options = scope.options;
  // A query fans out into several plan executions (condition plus one per
  // head term); they share the caller's context — or a query-local one — so
  // one query triggers exactly one Gaifman build and one cover build per
  // (radius, backend).
  std::optional<EvalContext> local_context;
  EvalOptions query_options = options;
  if (UsableContext(options, a) == nullptr) {
    query_options.context = &local_context.emplace(a);
  }
  // One "query" root per call: warm Session batches attribute per query
  // because every call adds its own subtree to the shared sink.
  query_options.explain_parent = options.NewNode(
      "query", std::to_string(q.head_vars.size()) + " head vars, " +
                   std::to_string(q.head_terms.size()) +
                   " head terms, condition " + ToString(q.condition));
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    Phase phase(options, "query_eval", query_options.explain_parent);
    if (options.engine == Engine::kNaive) {
      return EvaluateQueryNaive(q, a);
    }
    if (q.head_vars.empty()) {
      // ModelCheck answers the condition exactly under every engine and the
      // ground head terms route through the engine's term path (estimated
      // under Engine::kApprox), so this branch covers all of them.
      Result<bool> holds = ModelCheck(q.condition, a, query_options);
      if (!holds.ok()) return holds.status();
      QueryResult result;
      if (*holds) {
        QueryRow row;
        for (const Term& t : q.head_terms) {
          Result<CountInt> v = EvaluateGroundTerm(t, a, query_options);
          if (!v.ok()) return v.status();
          row.counts.push_back(*v);
        }
        result.rows.push_back(std::move(row));
      }
      return result;
    }
    if (options.engine == Engine::kApprox) {
      return EvaluateQueryApprox(q, a, query_options);
    }
    if (q.head_vars.size() >= 2) {
      return EvaluateMultiQueryLocal(q, a, query_options);
    }
    return EvaluateUnaryQueryLocal(q, a, query_options);
  }();
  // Hand the caller a snapshot of everything the pipeline recorded; rows are
  // computed before the snapshot, so installing a sink cannot change them.
  if (result.ok() && options.metrics != nullptr) {
    result.value().metrics = options.metrics->Snapshot();
  }
  return result;
}

std::vector<Result<QueryResult>> EvaluateQueries(
    std::span<const Foc1Query> queries, const Structure& a,
    const EvalOptions& options) {
  // One context for the whole batch (unless the caller already shares one).
  std::optional<EvalContext> local_context;
  EvalOptions batch_options = options;
  if (UsableContext(options, a) == nullptr) {
    batch_options.context = &local_context.emplace(a);
  }
  std::vector<Result<QueryResult>> results;
  results.reserve(queries.size());
  for (const Foc1Query& q : queries) {
    results.push_back(EvaluateQuery(q, a, batch_options));
  }
  return results;
}

Result<UpdateStats> ApplyUpdate(const TupleUpdate& u, Structure* a,
                                const EvalOptions& options) {
  if (a == nullptr || options.context == nullptr) {
    return Status::Unsupported(
        "session is read-only: construct Session(Structure*) to apply "
        "updates");
  }
  return options.context->ApplyUpdate(a, u, options);
}

Result<UpdateStats> Session::ApplyUpdate(const TupleUpdate& u) {
  Result<UpdateStats> stats = focq::ApplyUpdate(u, mutable_a_, options_);
  MaybeSampleOpenMetrics();
  return stats;
}

void Session::MaybeSampleOpenMetrics() {
  if (om_series_ == nullptr) return;
  EvalMetrics snapshot;
  if (options_.metrics != nullptr) snapshot = options_.metrics->Snapshot();
  om_series_->Sample(UnixMillisNow(), snapshot, options_.progress);
}

}  // namespace focq
