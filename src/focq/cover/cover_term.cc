#include "focq/cover/cover_term.h"

#include "focq/util/checked_arith.h"

namespace focq {
namespace {

Instruments WithoutMetrics(Instruments in) {
  in.metrics = nullptr;
  return in;
}

}  // namespace

ClTermCoverEvaluator::ClTermCoverEvaluator(const Structure& structure,
                                           const Graph& gaifman,
                                           const NeighborhoodCover& cover,
                                           const Instruments& in)
    : structure_(structure),
      cover_(cover),
      in_(in),
      ball_(structure, gaifman, WithoutMetrics(in)) {
  FOCQ_CHECK_EQ(gaifman.num_vertices(), structure.universe_size());
  FOCQ_CHECK_EQ(cover.assignment.size(), structure.universe_size());
  anchors_of_cluster_.resize(cover.NumClusters());
  for (ElemId a = 0; a < cover.assignment.size(); ++a) {
    anchors_of_cluster_[cover.assignment[a]].push_back(a);
  }
  for (std::size_t c = 0; c < cover.NumClusters(); ++c) {
    if (anchors_of_cluster_[c].empty()) continue;
    ++clusters_evaluated_;
    cluster_elements_ += static_cast<std::int64_t>(cover.clusters[c].size());
  }
}

Result<std::vector<CountInt>> ClTermCoverEvaluator::EvaluateBasicAll(
    const BasicClTerm& basic) {
  FOCQ_CHECK(basic.unary);
  FOCQ_CHECK_GE(cover_.r, RequiredCoverRadius(basic));
  const ClTermBallEvaluator::ExploreStats before = ball_.explore_stats();
  Result<std::vector<CountInt>> out = ball_.EvaluateBasicInClusters(
      basic, cover_.clusters, anchors_of_cluster_);
  if (!out.ok()) return out.status();
  const ClTermBallEvaluator::ExploreStats& after = ball_.explore_stats();
  in_.Count("cover_eval.basics_evaluated", 1);
  in_.Count("cover_eval.clusters_materialized", clusters_evaluated_);
  in_.Count("cover_eval.cluster_elements", cluster_elements_);
  in_.Count("clterm.anchors_evaluated", after.anchors - before.anchors);
  in_.Count("clterm.balls_fetched", after.balls - before.balls);
  in_.Count("clterm.placements_checked",
            after.placements - before.placements);
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
