#include "focq/core/evaluator.h"

#include <cstdint>
#include <map>

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
      gaifman_(context_->Gaifman(options_)) {
  RecordStructureBytes();
}

void PlanExecutor::RecordStructureBytes() {
  // High-water footprint of the working copy: grows as marker layers expand
  // it, so it is recorded again after materialisation. Deterministic.
  std::int64_t bytes = structure_.ApproxBytes();
  options_.Max("mem.structure.bytes", bytes);
  options_.NodeBytes(node_ids_.root, bytes);
}

Result<const NeighborhoodCover*> PlanExecutor::CoverFor(std::uint32_t radius) {
  CoverBackend backend = options_.term_engine == TermEngine::kExactCover
                             ? CoverBackend::kExact
                             : CoverBackend::kSparse;
  return context_->TryCover(radius, backend, options_);
}

Result<std::vector<CountInt>> PlanExecutor::EvalClTermAll(const ClTerm& term,
                                                          int explain_node) {
  Phase phase(options_, "", explain_node);
  const bool ball = options_.term_engine == TermEngine::kBall;
  BallTables tables;
  std::map<std::uint32_t, ClusterView> cluster_views;
  ClusterViews views;
  if (ball) {
    // Warm tables: an exact r-cover's clusters are the sorted r-balls, so
    // every radius the term reads balls at comes from the context, built
    // once and repaired by updates, instead of being explored again here.
    for (std::uint32_t r : BallRadii(term)) {
      Result<const NeighborhoodCover*> cover =
          context_->TryCover(r, CoverBackend::kExact, options_);
      if (!cover.ok()) return cover.status();
      tables.emplace(r, &(*cover)->clusters);
    }
  } else {
    // Cover engines: each basic is counted in the clusters of a cover of
    // the radius it needs, so basics of different widths use covers of
    // different radii. One view per distinct cover.
    for (const BasicClTerm& b : term.basics()) {
      const std::uint32_t radius = RequiredCoverRadius(b);
      options_.NodeMax(explain_node, "cover.radius", radius);
      Result<const NeighborhoodCover*> cover = CoverFor(radius);
      if (!cover.ok()) return cover.status();
      auto [it, fresh] = cluster_views.try_emplace(radius);
      if (fresh) {
        it->second = MakeClusterView((*cover)->clusters,
                                     (*cover)->assignment, (*cover)->r);
      }
      views.emplace(radius, &it->second);
    }
  }
  Phase eval_phase(options_, "cl_term_eval");
  ClTermBallEvaluator eval(structure_, gaifman_, options_,
                           ball ? &tables : nullptr, ball ? nullptr : &views);
  return eval.EvaluateAll(term);
}

template <typename T, typename Fn>
Result<std::vector<T>> PlanExecutor::AtEveryElement(ProgressPhase phase,
                                                    std::span<const Var> vars,
                                                    Fn fn) {
  FOCQ_CHECK_LE(vars.size(), 1u);
  const std::size_t n = structure_.universe_size();
  // Chunks write disjoint slots and surface errors in chunk order.
  std::vector<T> out(n);
  std::vector<Status> chunk_status(
      MakeChunkGrid(n, options_.num_threads).num_chunks, Status::Ok());
  options_.AddTotal(phase, static_cast<std::int64_t>(n));
  ParallelFor(options_.num_threads, n,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                LocalEvaluator eval(structure_, gaifman_);
                Env env;
                for (std::size_t a = begin; a < end; ++a) {
                  if (options_.ShouldStop()) return;  // drain the rest
                  for (Var v : vars) env.Bind(v, static_cast<ElemId>(a));
                  auto value = fn(eval, env);
                  if (!value.ok()) {
                    chunk_status[chunk] = value.status();
                    return;
                  }
                  out[a] = *value;
                  options_.Advance(phase, 1);
                }
              });
  if (options_.Cancelled()) return options_.DeadlineStatus();
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  return out;
}

Status PlanExecutor::MaterializeLayers() {
  FOCQ_CHECK(!materialized_);
  Phase plan_phase(options_, "materialize_layers", node_ids_.root);
  std::size_t layer_index = 0;
  for (const auto& layer : plan_.layers) {
    std::size_t l = layer_index++;
    Phase layer_phase(options_, "layer_" + std::to_string(l),
                      node_ids_.layers[l]);
    std::size_t relation_index = 0;
    for (const LayerRelationDef& def : layer) {
      std::size_t r = relation_index++;
      Phase relation_phase(options_, "", node_ids_.relations[l][r]);
      options_.Count("materialize.marker_relations", 1);
      if (def.fallback) {
        options_.Count("materialize.fallback_relations", 1);
        // Every element is checked exactly once (arity 0: one sentence
        // check), so the tally is thread-count independent.
        options_.Count("materialize.fallback_checks",
                       def.arity == 0 ? 1
                                      : static_cast<std::int64_t>(
                                            structure_.universe_size()));
        // Direct evaluation of the original P(t-bar) subformula over the
        // current expansion (whose earlier markers it may mention).
        if (def.arity == 0) {
          LocalEvaluator eval(structure_, gaifman_);
          Env env;
          Result<bool> holds = eval.Check(def.fallback_formula, &env);
          if (!holds.ok()) return holds.status();
          structure_.AddNullarySymbol(def.name, *holds);
        } else {
          Result<std::vector<std::uint8_t>> holds =
              AtEveryElement<std::uint8_t>(
                  ProgressPhase::kMaterialize, {&def.free_var, 1},
                  [&def](LocalEvaluator& eval, Env& env) {
                    return eval.Check(def.fallback_formula, &env);
                  });
          if (!holds.ok()) return holds.status();
          std::vector<ElemId> elements;
          for (ElemId a = 0; a < holds->size(); ++a) {
            if ((*holds)[a] != 0) elements.push_back(a);
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
  Phase plan_phase(options_, "", node_ids_.root);
  Phase phase(options_, "residual_eval", node_ids_.residual);
  options_.Count("residual.elements_checked", 1);
  Env env;
  return final_eval_->Check(plan_.final_formula, &env);
}

Result<bool> PlanExecutor::CheckAt(ElemId a) {
  FOCQ_CHECK(materialized_ && !plan_.is_term);
  std::vector<Var> free = FreeVars(plan_.final_formula);
  FOCQ_CHECK_LE(free.size(), 1u);
  Phase plan_phase(options_, "", node_ids_.root);
  Phase phase(options_, "residual_eval", node_ids_.residual);
  options_.Count("residual.elements_checked", 1);
  Env env;
  if (!free.empty()) env.Bind(free[0], a);
  return final_eval_->Check(plan_.final_formula, &env);
}

Result<std::vector<bool>> PlanExecutor::CheckAll() {
  FOCQ_CHECK(materialized_ && !plan_.is_term);
  Phase plan_phase(options_, "", node_ids_.root);
  Phase phase(options_, "residual_eval", node_ids_.residual);
  options_.Count("residual.elements_checked",
                 static_cast<std::int64_t>(structure_.universe_size()));
  // Bytes, not std::vector<bool>: chunks write distinct slots concurrently.
  Result<std::vector<std::uint8_t>> holds = AtEveryElement<std::uint8_t>(
      ProgressPhase::kResidual, FreeVars(plan_.final_formula),
      [this](LocalEvaluator& eval, Env& env) {
        return eval.Check(plan_.final_formula, &env);
      });
  if (!holds.ok()) return holds.status();
  return std::vector<bool>(holds->begin(), holds->end());
}

Result<CountInt> PlanExecutor::TermValue() {
  FOCQ_CHECK(materialized_ && plan_.is_term);
  Phase plan_phase(options_, "", node_ids_.root);
  if (plan_.final_term_decomposed) {
    FOCQ_CHECK(!plan_.final_cl_term_unary);
    Result<std::vector<CountInt>> v =
        EvalClTermAll(plan_.final_cl_term, node_ids_.residual);
    if (!v.ok()) return v.status();
    return (*v)[0];
  }
  Phase phase(options_, "residual_eval", node_ids_.residual);
  options_.Count("residual.elements_checked", 1);
  return final_eval_->Evaluate(plan_.final_term_residual);
}

Result<std::vector<CountInt>> PlanExecutor::TermValues() {
  FOCQ_CHECK(materialized_ && plan_.is_term);
  Phase plan_phase(options_, "", node_ids_.root);
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
  Phase phase(options_, "residual_eval", node_ids_.residual);
  options_.Count("residual.elements_checked",
                 static_cast<std::int64_t>(structure_.universe_size()));
  return AtEveryElement<CountInt>(
      ProgressPhase::kResidual, {&plan_.final_free_var, 1},
      [this](LocalEvaluator& eval, Env& env) {
        return eval.Evaluate(plan_.final_term_residual, &env);
      });
}

}  // namespace focq
