// Cover-based evaluation of cl-terms (Definitions 7.4/7.5 in spirit, step 5
// of the Section 8.2 main algorithm): every basic cl-term is evaluated
// cluster by cluster, each anchor a counting its pattern placements in the
// structure B_X = A[X] of its cluster X = X(a).
//
// B_X is a view, not a copy. The basic is planned once per call on A, with
// global ids: kernel atoms probe A, and every ball the count reads (the
// separation balls that place the pattern, dist atoms, ball guards) is
// explored by a BFS confined to the subgraph of A's Gaifman graph induced
// on X. This is exact:
//  * The cover radius R = cover.r is at least RequiredCoverRadius(basic) =
//    k(2r+1), so X contains N_R(a), and every element a placement, a dist
//    atom or a guard reaches lies within R-1 of a. An atom over elements of
//    X holds in A[X] iff it holds in A.
//  * For relations of arity <= 2 the induced subgraph is Gaifman(A[X]). A
//    wider tuple with members both inside and outside X gives the induced
//    subgraph edges between its inside members that Gaifman(A[X]) lacks;
//    but an inside member adjacent to an outside one lies at distance >= R
//    from a, and no ball the count reads expands a vertex that far out.
// With a valid cover, confinement never changes an answer. It keeps the
// engine a check on the covers: a cluster that misses part of N_R(a) can
// change the counts (tests/cover_test.cc pins that each cluster is
// evaluated inside B_X).
//
// This realises the paper's "evaluate t(x1) in the structures B_X for all
// X in X" without the rank-preserving type expansions (substitution #3 in
// DESIGN.md).
#ifndef FOCQ_COVER_COVER_TERM_H_
#define FOCQ_COVER_COVER_TERM_H_

#include <vector>

#include "focq/cover/neighborhood_cover.h"
#include "focq/locality/cl_term.h"

namespace focq {

/// Per-cluster cl-term evaluator.
///
/// Clusters are mutually independent (each anchor is counted in exactly one
/// cluster), so with num_threads > 1 the clusters fan out across workers
/// (ClTermBallEvaluator::EvaluateBasicInClusters); anchors write disjoint
/// output slots and errors surface in cluster-chunk order, keeping results
/// bit-identical to the serial evaluation.
class ClTermCoverEvaluator {
 public:
  /// `gaifman` must be the Gaifman graph of `structure`; `cover` a
  /// neighbourhood cover of it. All three must outlive the evaluator. The
  /// handle's thread count is the per-cluster fan-out. Per-basic
  /// evaluations flush cover_eval.* and clterm.* counters to its metrics
  /// sink (clusters evaluated, still named cover_eval.clusters_materialized,
  /// their elements, anchors, balls, placements). EvaluateBasicAll advances
  /// the kClTerm phase per cluster and polls the deadline; a hard expiry
  /// makes it return kDeadlineExceeded.
  ClTermCoverEvaluator(const Structure& structure, const Graph& gaifman,
                       const NeighborhoodCover& cover,
                       const Instruments& in = {});

  /// Values of a unary basic cl-term at every element. The cover's radius
  /// must be at least RequiredCoverRadius(basic).
  Result<std::vector<CountInt>> EvaluateBasicAll(const BasicClTerm& basic);

  /// Ground basic cl-term (sum of the unary values over all anchors).
  Result<CountInt> EvaluateBasicGround(const BasicClTerm& basic);

  /// Full cl-term, pointwise (one slot if ground).
  Result<std::vector<CountInt>> EvaluateAll(const ClTerm& term);
  Result<CountInt> EvaluateGround(const ClTerm& term);

 private:
  const Structure& structure_;
  const NeighborhoodCover& cover_;
  Instruments in_;
  // Counts every cluster's anchors in place; it flushes no metrics of its
  // own (this evaluator flushes the cover_eval.* and clterm.* counters).
  ClTermBallEvaluator ball_;
  // anchors_of_cluster_[c]: elements assigned to cluster c.
  std::vector<std::vector<ElemId>> anchors_of_cluster_;
  // The clusters with at least one anchor, and their total size.
  std::int64_t clusters_evaluated_ = 0;
  std::int64_t cluster_elements_ = 0;
};

}  // namespace focq

#endif  // FOCQ_COVER_COVER_TERM_H_
