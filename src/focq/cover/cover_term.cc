#include "focq/cover/cover_term.h"

#include "focq/structure/gaifman.h"
#include "focq/structure/incidence.h"
#include "focq/structure/neighborhood.h"
#include "focq/util/checked_arith.h"
#include "focq/util/thread_pool.h"

namespace focq {

ClTermCoverEvaluator::ClTermCoverEvaluator(const Structure& structure,
                                           const Graph& gaifman,
                                           const NeighborhoodCover& cover,
                                           int num_threads,
                                           MetricsSink* metrics,
                                           ProgressSink* progress)
    : structure_(structure),
      gaifman_(gaifman),
      cover_(cover),
      num_threads_(EffectiveThreads(num_threads)),
      metrics_(metrics),
      progress_(progress),
      incidence_(structure) {
  FOCQ_CHECK_EQ(gaifman.num_vertices(), structure.universe_size());
  FOCQ_CHECK_EQ(cover.assignment.size(), structure.universe_size());
  anchors_of_cluster_.resize(cover.NumClusters());
  for (ElemId a = 0; a < cover.assignment.size(); ++a) {
    anchors_of_cluster_[cover.assignment[a]].push_back(a);
  }
}

Result<std::vector<CountInt>> ClTermCoverEvaluator::EvaluateBasicAll(
    const BasicClTerm& basic) {
  FOCQ_CHECK(basic.unary);
  FOCQ_CHECK_GE(cover_.r, RequiredCoverRadius(basic));
  std::vector<CountInt> out(structure_.universe_size(), 0);
  const std::size_t num_clusters = cover_.NumClusters();
  const std::size_t num_chunks =
      MakeChunkGrid(num_clusters, num_threads_).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  // Exploration work tallied per chunk and flushed after the join (the
  // ShardedCounter protocol); all four quantities are input-determined.
  ShardedCounter clusters_materialized(num_chunks);
  ShardedCounter cluster_elements(num_chunks);
  ShardedCounter anchors(num_chunks);
  ShardedCounter balls(num_chunks);
  ShardedCounter placements(num_chunks);
  // Per-cluster local evaluation (Theorem 5.5's embarrassingly parallel
  // core): every anchor belongs to exactly one cluster, so chunks write
  // disjoint slots of `out`; shared state (structure, gaifman, incidence,
  // cover) is only read.
  if (progress_ != nullptr) {
    progress_->AddTotal(ProgressPhase::kClTerm,
                        static_cast<std::int64_t>(num_clusters));
  }
  ParallelFor(
      num_threads_, num_clusters,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::vector<ElemId> local_anchors;
        for (std::size_t c = begin; c < end; ++c) {
          if (progress_ != nullptr) {
            if (progress_->ShouldStop()) return;  // drain on hard deadline
            progress_->Advance(ProgressPhase::kClTerm, 1);
          }
          if (anchors_of_cluster_[c].empty()) continue;
          // Materialise B_X = A[X] once per cluster (only local tuples).
          SubstructureView view =
              InducedViewFast(incidence_, cover_.clusters[c]);
          Graph sub_gaifman = BuildGaifmanGraph(view.structure);
          ClTermBallEvaluator sub_eval(view.structure, sub_gaifman);
          clusters_materialized.Add(chunk, 1);
          cluster_elements.Add(
              chunk, static_cast<std::int64_t>(cover_.clusters[c].size()));
          const std::vector<ElemId>& cluster_anchors = anchors_of_cluster_[c];
          local_anchors.clear();
          for (ElemId a : cluster_anchors) {
            local_anchors.push_back(view.ToLocal(a));
          }
          Result<std::vector<CountInt>> v =
              sub_eval.EvaluateBasicAt(basic, local_anchors);
          if (!v.ok()) {
            chunk_status[chunk] = v.status();
            return;
          }
          for (std::size_t i = 0; i < cluster_anchors.size(); ++i) {
            out[cluster_anchors[i]] = (*v)[i];
          }
          const ClTermBallEvaluator::ExploreStats& es =
              sub_eval.explore_stats();
          anchors.Add(chunk, es.anchors);
          balls.Add(chunk, es.balls);
          placements.Add(chunk, es.placements);
        }
      });
  if (progress_ != nullptr && progress_->cancelled()) {
    return progress_->DeadlineStatus();
  }
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  if (metrics_ != nullptr) {
    metrics_->AddCounter("cover_eval.basics_evaluated", 1);
    clusters_materialized.FlushTo(metrics_, "cover_eval.clusters_materialized");
    cluster_elements.FlushTo(metrics_, "cover_eval.cluster_elements");
    anchors.FlushTo(metrics_, "clterm.anchors_evaluated");
    balls.FlushTo(metrics_, "clterm.balls_fetched");
    placements.FlushTo(metrics_, "clterm.placements_checked");
  }
  return out;
}

Result<CountInt> ClTermCoverEvaluator::EvaluateBasicGround(
    const BasicClTerm& basic) {
  // Ground terms sum the unary values over all anchors (Remark 6.3): make
  // the first variable free and aggregate.
  BasicClTerm unary = basic;
  unary.unary = true;
  Result<std::vector<CountInt>> values = EvaluateBasicAll(unary);
  if (!values.ok()) return values.status();
  CountInt total = 0;
  for (CountInt v : *values) {
    auto s = CheckedAdd(total, v);
    if (!s) return Status::OutOfRange("cl-term count overflows int64");
    total = *s;
  }
  return total;
}

Result<std::vector<CountInt>> ClTermCoverEvaluator::EvaluateAll(
    const ClTerm& term) {
  bool ground = term.IsGround();
  std::size_t slots = ground ? 1 : structure_.universe_size();
  std::vector<std::vector<CountInt>> factor_values;
  factor_values.reserve(term.basics().size());
  for (const BasicClTerm& b : term.basics()) {
    if (b.unary) {
      Result<std::vector<CountInt>> v = EvaluateBasicAll(b);
      if (!v.ok()) return v.status();
      factor_values.push_back(std::move(*v));
    } else {
      Result<CountInt> v = EvaluateBasicGround(b);
      if (!v.ok()) return v.status();
      factor_values.push_back({*v});
    }
  }
  return CombineMonomials(term, factor_values, slots);
}

Result<CountInt> ClTermCoverEvaluator::EvaluateGround(const ClTerm& term) {
  FOCQ_CHECK(term.IsGround());
  Result<std::vector<CountInt>> values = EvaluateAll(term);
  if (!values.ok()) return values.status();
  return (*values)[0];
}

}  // namespace focq
