#include "focq/core/evaluator.h"

#include <algorithm>
#include <cstdint>

#include "focq/structure/gaifman.h"
#include "focq/util/thread_pool.h"

namespace focq {

PlanExecutor::PlanExecutor(const EvalPlan& plan, const Structure& input,
                           const ExecOptions& options, EvalContext* context)
    : plan_(plan),
      options_(options),
      node_ids_(RegisterPlanNodes(options.explain, plan,
                                  options.explain_parent)),
      structure_(input),
      owned_context_(context == nullptr
                         ? std::make_unique<EvalContext>(structure_)
                         : nullptr),
      context_(context != nullptr ? context : owned_context_.get()),
      gaifman_(context_->Gaifman(MakeArtifactOptions())) {
  RecordStructureBytes();
}

ArtifactOptions PlanExecutor::MakeArtifactOptions() const {
  return {options_.num_threads, options_.metrics, options_.trace,
          options_.explain, options_.progress};
}

void PlanExecutor::RecordStructureBytes() {
  // High-water footprint of the working copy: grows as marker layers expand
  // it, so it is recorded again after materialisation. Deterministic.
  std::int64_t bytes = structure_.ApproxBytes();
  if (options_.metrics != nullptr) {
    options_.metrics->MaxCounter("mem.structure.bytes", bytes);
  }
  if (options_.explain != nullptr) {
    options_.explain->RecordBytes(node_ids_.root, bytes);
  }
}

Result<const NeighborhoodCover*> PlanExecutor::CoverFor(std::uint32_t radius) {
  CoverBackend backend = options_.term_engine == TermEngine::kExactCover
                             ? CoverBackend::kExact
                             : CoverBackend::kSparse;
  return context_->TryCover(radius, backend, MakeArtifactOptions());
}

Result<std::vector<CountInt>> PlanExecutor::EvalClTermAll(const ClTerm& term,
                                                          int explain_node) {
  ScopedNodeTimer timer(options_.explain, explain_node, options_.metrics);
  if (options_.term_engine == TermEngine::kBall) {
    // Warm tables: an exact r-cover's clusters are the sorted r-balls, so
    // every radius the term reads balls at comes from the context, built
    // once and repaired by updates, instead of being explored again here.
    BallTables tables;
    for (std::uint32_t r : BallRadii(term)) {
      Result<const NeighborhoodCover*> cover =
          context_->TryCover(r, CoverBackend::kExact, MakeArtifactOptions());
      if (!cover.ok()) return cover.status();
      tables.emplace(r, &(*cover)->clusters);
    }
    ScopedSpan span(options_.trace, "cl_term_eval");
    ClTermBallEvaluator eval(structure_, gaifman_, options_.num_threads,
                             options_.metrics, options_.progress, &tables);
    return eval.EvaluateAll(term);
  }
  // Cover engines: one cover per required radius; evaluate factor-wise and
  // combine, so basics of different widths use appropriately-sized covers.
  bool ground = term.IsGround();
  std::size_t slots = ground ? 1 : structure_.universe_size();
  std::vector<std::vector<CountInt>> factor_values;
  factor_values.reserve(term.basics().size());
  for (const BasicClTerm& b : term.basics()) {
    std::uint32_t radius = RequiredCoverRadius(b);
    if (options_.explain != nullptr) {
      options_.explain->MaxCounter(explain_node, "cover.radius", radius);
    }
    Result<const NeighborhoodCover*> cover = CoverFor(radius);
    if (!cover.ok()) return cover.status();
    ScopedSpan span(options_.trace, "cl_term_eval");
    ClTermCoverEvaluator eval(structure_, gaifman_, **cover,
                              options_.num_threads, options_.metrics,
                              options_.progress);
    if (b.unary) {
      Result<std::vector<CountInt>> v = eval.EvaluateBasicAll(b);
      if (!v.ok()) return v.status();
      factor_values.push_back(std::move(*v));
    } else {
      Result<CountInt> v = eval.EvaluateBasicGround(b);
      if (!v.ok()) return v.status();
      factor_values.push_back({*v});
    }
  }
  return CombineMonomials(term, factor_values, slots);
}

Status PlanExecutor::MaterializeLayers() {
  FOCQ_CHECK(!materialized_);
  ScopedNodeTimer plan_timer(options_.explain, node_ids_.root,
                             options_.metrics);
  ScopedSpan materialize_span(options_.trace, "materialize_layers");
  std::size_t layer_index = 0;
  for (const auto& layer : plan_.layers) {
    std::size_t l = layer_index++;
    ScopedNodeTimer layer_timer(options_.explain, node_ids_.layers[l],
                                options_.metrics);
    ScopedSpan layer_span(options_.trace, "layer_" + std::to_string(l));
    std::size_t relation_index = 0;
    for (const LayerRelationDef& def : layer) {
      std::size_t r = relation_index++;
      ScopedNodeTimer relation_timer(options_.explain,
                                     node_ids_.relations[l][r],
                                     options_.metrics);
      if (options_.metrics != nullptr) {
        options_.metrics->AddCounter("materialize.marker_relations", 1);
        if (def.fallback) {
          options_.metrics->AddCounter("materialize.fallback_relations", 1);
          // Every element is checked exactly once (arity 0: one sentence
          // check), so the tally is thread-count independent.
          options_.metrics->AddCounter(
              "materialize.fallback_checks",
              def.arity == 0
                  ? 1
                  : static_cast<std::int64_t>(structure_.universe_size()));
        }
      }
      if (def.fallback) {
        // Direct evaluation of the original P(t-bar) subformula over the
        // current expansion (whose earlier markers it may mention).
        if (def.arity == 0) {
          LocalEvaluator eval(structure_, gaifman_);
          bool holds = eval.Satisfies(def.fallback_formula);
          structure_.AddNullarySymbol(def.name, holds);
        } else {
          // Per-element checks are independent; chunks collect into private
          // vectors that concatenate in chunk order, which — chunks being
          // contiguous ranges — reproduces the serial (sorted) element list.
          const std::size_t n = structure_.universe_size();
          const int workers = EffectiveThreads(options_.num_threads);
          const std::size_t num_chunks = MakeChunkGrid(n, workers).num_chunks;
          std::vector<std::vector<ElemId>> chunk_elements(num_chunks);
          ProgressSink* progress = options_.progress;
          if (progress != nullptr) {
            progress->AddTotal(ProgressPhase::kMaterialize,
                               static_cast<std::int64_t>(n));
          }
          ParallelFor(workers, n,
                      [&](std::size_t chunk, std::size_t begin,
                          std::size_t end) {
                        LocalEvaluator chunk_eval(structure_, gaifman_);
                        Env env;
                        for (std::size_t a = begin; a < end; ++a) {
                          if (progress != nullptr && progress->ShouldStop()) {
                            return;  // hard deadline: drain remaining chunks
                          }
                          env.Bind(def.free_var, static_cast<ElemId>(a));
                          if (chunk_eval.Satisfies(def.fallback_formula,
                                                   &env)) {
                            chunk_elements[chunk].push_back(
                                static_cast<ElemId>(a));
                          }
                          if (progress != nullptr) {
                            progress->Advance(ProgressPhase::kMaterialize, 1);
                          }
                        }
                      });
          if (progress != nullptr && progress->cancelled()) {
            return progress->DeadlineStatus();
          }
          std::vector<ElemId> elements;
          for (const auto& part : chunk_elements) {
            elements.insert(elements.end(), part.begin(), part.end());
          }
          structure_.AddUnarySymbol(def.name, elements);
        }
        continue;
      }
      // Fast path: evaluate the cl-term arguments, apply the P-oracle.
      std::vector<std::vector<CountInt>> arg_values;
      arg_values.reserve(def.args.size());
      for (std::size_t a = 0; a < def.args.size(); ++a) {
        Result<std::vector<CountInt>> v =
            EvalClTermAll(def.args[a], node_ids_.args[l][r][a]);
        if (!v.ok()) return v.status();
        arg_values.push_back(std::move(*v));
      }
      std::vector<CountInt> oracle_args(def.args.size());
      if (def.arity == 0) {
        for (std::size_t i = 0; i < arg_values.size(); ++i) {
          FOCQ_CHECK_EQ(arg_values[i].size(), 1u);
          oracle_args[i] = arg_values[i][0];
        }
        structure_.AddNullarySymbol(def.name, def.pred->Holds(oracle_args));
      } else {
        std::vector<ElemId> elements;
        for (ElemId a = 0; a < structure_.universe_size(); ++a) {
          for (std::size_t i = 0; i < arg_values.size(); ++i) {
            oracle_args[i] =
                arg_values[i].size() == 1 ? arg_values[i][0] : arg_values[i][a];
          }
          if (def.pred->Holds(oracle_args)) elements.push_back(a);
        }
        structure_.AddUnarySymbol(def.name, elements);
      }
    }
    // Marker relations are unary/nullary, so the Gaifman graph is unchanged;
    // gaifman_ stays valid across layers.
  }
  materialized_ = true;
  RecordStructureBytes();  // the expansion grew the working copy
  final_eval_ = std::make_unique<LocalEvaluator>(structure_, gaifman_);
  return Status::Ok();
}

Result<bool> PlanExecutor::CheckSentence() {
  FOCQ_CHECK(materialized_ && !plan_.is_term);
  FOCQ_CHECK(FreeVars(plan_.final_formula).empty());
  ScopedNodeTimer plan_timer(options_.explain, node_ids_.root,
                             options_.metrics);
  ScopedNodeTimer timer(options_.explain, node_ids_.residual,
                        options_.metrics);
  ScopedSpan span(options_.trace, "residual_eval");
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("residual.elements_checked", 1);
  }
  return final_eval_->Satisfies(plan_.final_formula);
}

Result<bool> PlanExecutor::CheckAt(ElemId a) {
  FOCQ_CHECK(materialized_ && !plan_.is_term);
  std::vector<Var> free = FreeVars(plan_.final_formula);
  FOCQ_CHECK_LE(free.size(), 1u);
  ScopedNodeTimer plan_timer(options_.explain, node_ids_.root,
                             options_.metrics);
  ScopedNodeTimer timer(options_.explain, node_ids_.residual,
                        options_.metrics);
  ScopedSpan span(options_.trace, "residual_eval");
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("residual.elements_checked", 1);
  }
  Env env;
  if (!free.empty()) env.Bind(free[0], a);
  return final_eval_->Satisfies(plan_.final_formula, &env);
}

Result<std::vector<bool>> PlanExecutor::CheckAll() {
  FOCQ_CHECK(materialized_ && !plan_.is_term);
  ScopedNodeTimer plan_timer(options_.explain, node_ids_.root,
                             options_.metrics);
  ScopedNodeTimer timer(options_.explain, node_ids_.residual,
                        options_.metrics);
  ScopedSpan span(options_.trace, "residual_eval");
  const std::size_t n = structure_.universe_size();
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("residual.elements_checked",
                                 static_cast<std::int64_t>(n));
  }
  std::vector<Var> free = FreeVars(plan_.final_formula);
  FOCQ_CHECK_LE(free.size(), 1u);
  // std::vector<bool> packs bits, so concurrent writes to distinct indices
  // race; collect into bytes and convert after the join.
  std::vector<std::uint8_t> buffer(n, 0);
  ProgressSink* progress = options_.progress;
  if (progress != nullptr) {
    progress->AddTotal(ProgressPhase::kResidual, static_cast<std::int64_t>(n));
  }
  ParallelFor(options_.num_threads, n,
              [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                LocalEvaluator chunk_eval(structure_, gaifman_);
                for (std::size_t a = begin; a < end; ++a) {
                  if (progress != nullptr && progress->ShouldStop()) return;
                  Env env;
                  if (!free.empty()) {
                    env.Bind(free[0], static_cast<ElemId>(a));
                  }
                  buffer[a] = chunk_eval.Satisfies(plan_.final_formula, &env)
                                  ? 1
                                  : 0;
                  if (progress != nullptr) {
                    progress->Advance(ProgressPhase::kResidual, 1);
                  }
                }
              });
  if (progress != nullptr && progress->cancelled()) {
    return progress->DeadlineStatus();
  }
  std::vector<bool> out(n, false);
  for (std::size_t a = 0; a < n; ++a) out[a] = buffer[a] != 0;
  return out;
}

Result<CountInt> PlanExecutor::TermValue() {
  FOCQ_CHECK(materialized_ && plan_.is_term);
  ScopedNodeTimer plan_timer(options_.explain, node_ids_.root,
                             options_.metrics);
  if (plan_.final_term_decomposed) {
    FOCQ_CHECK(!plan_.final_cl_term_unary);
    Result<std::vector<CountInt>> v =
        EvalClTermAll(plan_.final_cl_term, node_ids_.residual);
    if (!v.ok()) return v.status();
    return (*v)[0];
  }
  ScopedNodeTimer timer(options_.explain, node_ids_.residual,
                        options_.metrics);
  ScopedSpan span(options_.trace, "residual_eval");
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("residual.elements_checked", 1);
  }
  return final_eval_->Evaluate(plan_.final_term_residual);
}

Result<std::vector<CountInt>> PlanExecutor::TermValues() {
  FOCQ_CHECK(materialized_ && plan_.is_term);
  ScopedNodeTimer plan_timer(options_.explain, node_ids_.root,
                             options_.metrics);
  if (plan_.final_term_decomposed) {
    Result<std::vector<CountInt>> v =
        EvalClTermAll(plan_.final_cl_term, node_ids_.residual);
    if (!v.ok()) return v;
    if (!plan_.final_cl_term_unary) {
      // Ground value broadcast to every element.
      return std::vector<CountInt>(structure_.universe_size(), (*v)[0]);
    }
    return v;
  }
  ScopedNodeTimer timer(options_.explain, node_ids_.residual,
                        options_.metrics);
  ScopedSpan span(options_.trace, "residual_eval");
  const std::size_t n = structure_.universe_size();
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("residual.elements_checked",
                                 static_cast<std::int64_t>(n));
  }
  std::vector<CountInt> out(n, 0);
  const int workers = EffectiveThreads(options_.num_threads);
  const std::size_t num_chunks = MakeChunkGrid(n, workers).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  ProgressSink* progress = options_.progress;
  if (progress != nullptr) {
    progress->AddTotal(ProgressPhase::kResidual, static_cast<std::int64_t>(n));
  }
  ParallelFor(workers, n,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                LocalEvaluator chunk_eval(structure_, gaifman_);
                for (std::size_t a = begin; a < end; ++a) {
                  if (progress != nullptr && progress->ShouldStop()) return;
                  Env env;
                  env.Bind(plan_.final_free_var, static_cast<ElemId>(a));
                  Result<CountInt> v =
                      chunk_eval.Evaluate(plan_.final_term_residual, &env);
                  if (!v.ok()) {
                    chunk_status[chunk] = v.status();
                    return;
                  }
                  out[a] = *v;
                  if (progress != nullptr) {
                    progress->Advance(ProgressPhase::kResidual, 1);
                  }
                }
              });
  if (progress != nullptr && progress->cancelled()) {
    return progress->DeadlineStatus();
  }
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  return out;
}

}  // namespace focq
