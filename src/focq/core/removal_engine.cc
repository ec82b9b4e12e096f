#include "focq/core/removal_engine.h"

#include <algorithm>
#include <optional>

#include "focq/cover/neighborhood_cover.h"
#include "focq/graph/splitter.h"
#include "focq/locality/decompose.h"
#include "focq/locality/delta.h"
#include "focq/locality/removal_rewrite.h"
#include "focq/logic/build.h"
#include "focq/logic/fragment.h"
#include "focq/structure/gaifman.h"
#include "focq/structure/neighborhood.h"
#include "focq/structure/removal.h"

namespace focq {
namespace {

// The recursion is *position-targeted*: at every level only the values the
// parent actually needs are computed (the paper evaluates whole clusters,
// which is asymptotically the same but constant-factor hopeless for a
// demonstrator). Ground sub-terms arising from the per-level decomposition
// are evaluated directly on the current (post-removal) structure -- the
// recursion demonstrates the unary anchor path, which is where the splitter
// and the Removal Lemma act.
struct Engine {
  RemovalEngineOptions options;

  /// Values of the (treated-as-unary) basic cl-term at `positions`.
  Result<std::vector<CountInt>> BasicAt(const Structure& s,
                                        const Graph& gaifman,
                                        const BasicClTerm& basic,
                                        const std::vector<ElemId>& positions,
                                        std::uint32_t depth);

  /// Values of a full cl-term at `positions`.
  Result<std::vector<CountInt>> ClTermAt(const Structure& s,
                                         const Graph& gaifman,
                                         const ClTerm& term,
                                         const std::vector<ElemId>& positions,
                                         std::uint32_t depth);
};

Result<std::vector<CountInt>> Engine::ClTermAt(
    const Structure& s, const Graph& gaifman, const ClTerm& term,
    const std::vector<ElemId>& positions, std::uint32_t depth) {
  std::vector<std::vector<CountInt>> factor_values;
  factor_values.reserve(term.basics().size());
  ClTermBallEvaluator direct(s, gaifman);
  for (const BasicClTerm& b : term.basics()) {
    if (b.unary) {
      Result<std::vector<CountInt>> values =
          BasicAt(s, gaifman, b, positions, depth);
      if (!values.ok()) return values;
      factor_values.push_back(std::move(*values));
    } else {
      Result<CountInt> v = direct.EvaluateBasicGround(b);
      if (!v.ok()) return v.status();
      factor_values.push_back({*v});
    }
  }
  return CombineMonomials(term, factor_values, positions.size());
}

Result<std::vector<CountInt>> Engine::BasicAt(
    const Structure& s, const Graph& gaifman, const BasicClTerm& basic,
    const std::vector<ElemId>& positions, std::uint32_t depth) {
  if (positions.empty()) return std::vector<CountInt>{};
  if (s.universe_size() <= options.base_size || depth >= options.max_depth) {
    return ClTermBallEvaluator(s, gaifman).EvaluateBasicAt(basic, positions);
  }
  const std::uint32_t cover_radius = RequiredCoverRadius(basic);
  // The top-level arena is the caller's structure, so its cover can come
  // from a shared EvalContext; recursion levels run on induced/removed
  // substructures and always build locally (with the same thread knob).
  std::optional<NeighborhoodCover> local_cover;
  const NeighborhoodCover* cover = nullptr;
  if (options.context != nullptr && &s == &options.context->structure()) {
    Result<const NeighborhoodCover*> cached =
        options.context->TryCover(cover_radius, CoverBackend::kSparse, options);
    if (!cached.ok()) return cached.status();
    cover = *cached;
  } else {
    cover = &local_cover.emplace(SparseCover(gaifman, cover_radius, options));
    if (options.Cancelled()) {
      return options.DeadlineStatus();  // partial cover: discard
    }
  }
  options.Count("removal.cover_builds", 1);
  options.Max("removal.max_depth", static_cast<std::int64_t>(depth) + 1);
  std::vector<std::vector<std::size_t>> wanted(cover->NumClusters());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    wanted[cover->assignment[positions[i]]].push_back(i);
  }
  if (depth == 0) {
    options.AddTotal(ProgressPhase::kRemoval,
                     static_cast<std::int64_t>(cover->NumClusters()));
  }

  Formula phi_full =
      And(basic.kernel,
          DeltaFormula(basic.pattern, basic.Separation(), basic.vars));
  const std::uint32_t removal_radius =
      std::max(basic.Separation(), MaxDistBound(phi_full.node()));

  std::vector<CountInt> out(positions.size(), 0);
  auto splitter = MakeTreeSplitter();
  for (std::size_t c = 0; c < cover->NumClusters(); ++c) {
    if (options.ShouldStop()) return options.DeadlineStatus();
    // Only the top level owns the phase total; recursion levels just poll.
    if (depth == 0) options.Advance(ProgressPhase::kRemoval, 1);
    if (wanted[c].empty()) continue;
    SubstructureView view = InducedView(s, cover->clusters[c]);
    Graph sub_gaifman = BuildGaifmanGraph(view.structure);
    std::vector<ElemId> local_positions;
    for (std::size_t i : wanted[c]) {
      local_positions.push_back(view.ToLocal(positions[i]));
    }

    if (view.structure.universe_size() <= options.base_size ||
        view.structure.universe_size() < 2 ||
        view.structure.universe_size() == s.universe_size()) {
      // Small cluster -- or no shrinkage (the cluster is the whole arena, so
      // the cover brings nothing and we let the removal below do the work
      // only if it can; otherwise evaluate directly to guarantee progress).
      if (view.structure.universe_size() == s.universe_size() &&
          view.structure.universe_size() > options.base_size &&
          depth + 1 < options.max_depth) {
        // Fall through to removal: it still strictly shrinks the arena.
      } else {
        Result<std::vector<CountInt>> values =
            ClTermBallEvaluator(view.structure, sub_gaifman)
                .EvaluateBasicAt(basic, local_positions);
        if (!values.ok()) return values;
        for (std::size_t j = 0; j < wanted[c].size(); ++j) {
          out[wanted[c][j]] = (*values)[j];
        }
        continue;
      }
    }

    // Splitter answers the cluster centre's move; remove that element.
    SplitterPosition pos = InitialPosition(sub_gaifman);
    VertexId center_local = view.ToLocal(cover->centers[c]);
    VertexId d = splitter->ChooseRemoval(pos, center_local, cover_radius);
    RemovalSignature rs =
        BuildRemovalSignature(view.structure.signature(), removal_radius);
    RemovalResult removed =
        RemoveElement(view.structure, sub_gaifman, d, removal_radius, rs);
    // One A *r d surgery (Section 7.3) per visited cluster.
    options.Count("removal.surgeries", 1);
    Graph removed_gaifman = BuildGaifmanGraph(removed.structure);

    Result<RemovalUnaryParts> parts = RemoveUnaryTerm(
        basic.vars, phi_full, view.structure.signature(), removal_radius);
    if (!parts.ok()) return parts.status();

    // Positions away from d, mapped into the removed structure.
    std::vector<ElemId> removed_positions;
    std::vector<std::size_t> removed_wanted;  // indices into wanted[c]
    bool need_at_removed = false;
    for (std::size_t j = 0; j < local_positions.size(); ++j) {
      if (local_positions[j] == d) {
        need_at_removed = true;
      } else {
        removed_positions.push_back(removed.ToLocal(local_positions[j]));
        removed_wanted.push_back(j);
      }
    }

    // Lemma 7.9(b), elsewhere parts: re-decompose and recurse.
    if (!removed_positions.empty()) {
      std::vector<CountInt> sums(removed_positions.size(), 0);
      for (const RemovalTermPart& part : parts->elsewhere) {
        Result<std::vector<CountInt>> values =
            [&]() -> Result<std::vector<CountInt>> {
          if (part.vars.size() == 1) {
            BasicClTerm unit;
            unit.vars = part.vars;
            unit.unary = true;
            unit.kernel = part.body;
            unit.radius = 0;
            unit.pattern = PatternGraph(1, 0);
            return ClTermBallEvaluator(removed.structure, removed_gaifman)
                .EvaluateBasicAt(unit, removed_positions);
          }
          Result<Decomposition> dec =
              DecomposeCount(part.vars, true, part.body);
          if (!dec.ok()) {
            if (dec.status().code() != StatusCode::kUnsupported) {
              return dec.status();
            }
            // Rewritten bodies can exceed the decomposition's piece budget;
            // evaluate this part directly (still exact).
            LocalEvaluator eval(removed.structure, removed_gaifman);
            std::vector<Var> binders(part.vars.begin() + 1, part.vars.end());
            Term count = Count(binders, part.body);
            std::vector<CountInt> direct(removed_positions.size(), 0);
            for (std::size_t i = 0; i < removed_positions.size(); ++i) {
              Result<CountInt> v =
                  eval.Evaluate(count, {{part.vars[0], removed_positions[i]}});
              if (!v.ok()) return v.status();
              direct[i] = *v;
            }
            return direct;
          }
          return ClTermAt(removed.structure, removed_gaifman, dec->term,
                          removed_positions, depth + 1);
        }();
        if (!values.ok()) return values;
        for (std::size_t i = 0; i < sums.size(); ++i) {
          auto sum = CheckedAdd(sums[i], (*values)[i]);
          if (!sum) return Status::OutOfRange("removal-engine count overflow");
          sums[i] = *sum;
        }
      }
      for (std::size_t i = 0; i < removed_wanted.size(); ++i) {
        out[wanted[c][removed_wanted[i]]] = sums[i];
      }
    }

    // Value at d itself: the ground parts (Lemma 7.9(b), first case).
    if (need_at_removed) {
      CountInt at_removed = 0;
      LocalEvaluator eval(removed.structure, removed_gaifman);
      for (const RemovalTermPart& part : parts->at_removed) {
        Result<CountInt> v = part.vars.empty()
                                 ? Result<CountInt>(static_cast<CountInt>(
                                       eval.Satisfies(part.body) ? 1 : 0))
                                 : eval.Evaluate(Count(part.vars, part.body));
        if (!v.ok()) return v.status();
        auto sum = CheckedAdd(at_removed, *v);
        if (!sum) return Status::OutOfRange("removal-engine count overflow");
        at_removed = *sum;
      }
      for (std::size_t j = 0; j < local_positions.size(); ++j) {
        if (local_positions[j] == d) out[wanted[c][j]] = at_removed;
      }
    }
  }
  return out;
}

}  // namespace

Result<std::vector<CountInt>> EvaluateBasicWithRemoval(
    const Structure& a, const Graph& gaifman, const BasicClTerm& basic,
    const RemovalEngineOptions& options) {
  if (!IsQuantifierFreeFOPlus(basic.kernel.node())) {
    return Status::Unsupported(
        "the removal-recursion demonstrator handles quantifier-free kernels");
  }
  FOCQ_CHECK(basic.pattern.IsConnected());
  Engine engine{options};
  std::vector<ElemId> all(a.universe_size());
  for (ElemId e = 0; e < a.universe_size(); ++e) all[e] = e;
  return engine.BasicAt(a, gaifman, basic, all, 0);
}

}  // namespace focq
