// Connected local terms (Definition 6.2) and their evaluation by local
// exploration (Remark 6.3).
//
// A *basic* cl-term of radius r and width k is
//     #(y1,...,yk). ( psi(y-bar) and delta_{G,2r+1}(y-bar) )
// with G a *connected* pattern graph and psi r-local around y-bar; it is
// "unary" when y1 stays free and "ground" when all variables are counted.
//
// A cl-term is an integer polynomial over basic cl-terms. We keep the
// polynomial in sum-of-monomials normal form, which makes the
// inclusion-exclusion algebra of Lemma 6.4 plain vector arithmetic.
//
// Evaluation (Remark 6.3): because G is connected, every counted tuple lies
// inside the ball of radius R = r + (k-1)(2r+1) around its first element, so
// a unary basic cl-term is evaluated anchor-by-anchor by enumerating pattern
// placements inside (2r+1)-balls, and a ground one by summing the unary
// values over all anchors. A top-level conjunct dist(y_parent, y_i) <= d of
// psi with d < 2r+1 narrows that enumeration: y_i is drawn from its BFS
// parent's d-ball instead of its (2r+1)-ball.
#ifndef FOCQ_LOCALITY_CL_TERM_H_
#define FOCQ_LOCALITY_CL_TERM_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "focq/graph/bfs.h"
#include "focq/graph/pattern_graph.h"
#include "focq/locality/local_eval.h"
#include "focq/logic/expr.h"
#include "focq/obs/instruments.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {

/// A basic cl-term. When `unary` is true, vars[0] is the free variable and
/// vars[1..] are counted; otherwise all vars are counted.
struct BasicClTerm {
  std::vector<Var> vars;   // y1, ..., yk (pairwise distinct)
  bool unary = false;
  Formula kernel;          // psi(y-bar), r-local around y-bar
  std::uint32_t radius = 0;  // r
  PatternGraph pattern;    // connected G on [k]

  int width() const { return static_cast<int>(vars.size()); }

  /// The separation threshold of the delta-pattern: 2r+1 (saturated).
  std::uint32_t Separation() const {
    return SaturatedRadius(2 * std::uint64_t{radius} + 1);
  }
};

/// An integer polynomial over basic cl-terms:
///   value = sum_m  coeff_m * prod_{i in factors_m} basics[i].
/// Unary basics inside one ClTerm must all share the same free variable.
class ClTerm {
 public:
  struct Monomial {
    CountInt coeff = 0;
    std::vector<int> factors;  // indices into basics(), may repeat
  };

  ClTerm() = default;

  static ClTerm Constant(CountInt c);
  static ClTerm FromBasic(BasicClTerm basic);

  const std::vector<BasicClTerm>& basics() const { return basics_; }
  const std::vector<Monomial>& monomials() const { return monomials_; }

  bool IsZero() const { return monomials_.empty(); }

  /// True iff no basic factor is unary (the term is ground).
  bool IsGround() const;

  /// Polynomial algebra (basics are merged structurally).
  static ClTerm Add(const ClTerm& a, const ClTerm& b);
  static ClTerm Sub(const ClTerm& a, const ClTerm& b);
  static ClTerm Mul(const ClTerm& a, const ClTerm& b);
  static ClTerm Negate(const ClTerm& a);

  /// Total number of basic cl-terms (a size measure for the E4 benchmark).
  std::size_t NumBasics() const { return basics_.size(); }
  std::size_t NumMonomials() const { return monomials_.size(); }

 private:
  /// Returns the index of `basic` in basics_, inserting if new.
  int InternBasic(const BasicClTerm& basic);

  std::vector<BasicClTerm> basics_;
  std::vector<Monomial> monomials_;
};

/// Combines per-factor values into cl-term values: for each of `slots`
/// positions, value = sum_m coeff_m * prod factors. A factor value vector of
/// size 1 is broadcast (ground factor); otherwise it must have `slots`
/// entries. Shared by ClTermBallEvaluator and the removal engine.
Result<std::vector<CountInt>> CombineMonomials(
    const ClTerm& term, const std::vector<std::vector<CountInt>>& factor_values,
    std::size_t slots);

/// Cover radius needed so that every tuple counted by `basic` (pattern
/// connected, separation 2r+1, kernel r-local) lies -- with its kernel
/// neighbourhood and all pattern-distance witness paths -- inside the
/// anchor's cluster: k * (2r+1).
std::uint32_t RequiredCoverRadius(const BasicClTerm& basic);

/// The clusters of one neighbourhood cover with their anchors, lent to
/// ClTermBallEvaluator so that it counts each anchor a in the structure
/// B_X = A[X] of its cluster X = X(a): step 5 of the Section 8.2 main
/// algorithm, "evaluate t(x1) in the structures B_X for all X in X",
/// without the rank-preserving type expansions (substitution #3 in
/// DESIGN.md).
///
/// B_X is a view, not a copy. The basic is planned once per call on A, with
/// global ids: kernel atoms probe A, and every ball the count reads (the
/// balls that place the pattern, dist atoms, ball guards) is explored by a
/// BFS confined to the subgraph of A's Gaifman graph induced on X (see
/// LocalEvaluator::Confine). This is exact:
///  * The covering radius R is at least RequiredCoverRadius(basic) =
///    k(2r+1), so X contains N_R(a), and every element a placement, a dist
///    atom or a guard reaches lies within R-1 of a. An atom over elements of
///    X holds in A[X] iff it holds in A.
///  * For relations of arity <= 2 the induced subgraph is Gaifman(A[X]). A
///    wider tuple with members both inside and outside X gives the induced
///    subgraph edges between its inside members that Gaifman(A[X]) lacks;
///    but an inside member adjacent to an outside one lies at distance >= R
///    from a, and no ball the count reads expands a vertex that far out.
/// With a valid cover, confinement never changes an answer. It keeps the
/// cover engine a check on the covers: a cluster that misses part of
/// N_R(a) can change the counts (tests/cover_test.cc pins that each cluster
/// is evaluated inside B_X).
struct ClusterView {
  std::uint32_t radius = 0;  // the cover's covering radius R
  const std::vector<std::vector<ElemId>>* clusters = nullptr;  // borrowed
  // The anchors of cluster c, increasing: anchors[offsets[c] ..
  // offsets[c + 1]). Every element is the anchor of exactly one cluster.
  std::vector<std::uint32_t> offsets;
  std::vector<ElemId> anchors;
  // The clusters with at least one anchor, and their total size.
  std::int64_t clusters_evaluated = 0;
  std::int64_t cluster_elements = 0;
};

/// The view of a cover with these sorted clusters, this assignment (the
/// cluster of each element) and covering radius. `clusters` must outlive
/// the view.
ClusterView MakeClusterView(const std::vector<std::vector<ElemId>>& clusters,
                            std::span<const std::uint32_t> assignment,
                            std::uint32_t radius);

/// Cluster views lent to evaluators, keyed by the RequiredCoverRadius of
/// the basics each one counts. Borrowed and read-only, like BallTables.
using ClusterViews = std::map<std::uint32_t, const ClusterView*>;

/// Radii at which ClTermBallEvaluator reads balls for `term`: the
/// separation 2r+1 of every basic of width at least 2, and every dist bound
/// in the kernels, ball guards included. Locality keeps each kernel bound
/// below its basic's separation. A kernel bound is read by the dist checks
/// and, when it narrows a pattern position, as that position's candidate
/// balls.
std::set<std::uint32_t> BallRadii(const ClTerm& term);

/// Evaluates cl-terms on one structure by local exploration.
///
/// Each basic is planned once per evaluation call (Theorem 5.5's
/// query-dependent part): its pattern positions get a BFS placement order,
/// and its kernel is compiled into a flat program over those positions,
/// with every atom, distance oracle and variable resolved at compile time.
/// The data-bound loop over anchors and placements then runs that program
/// on each full placement instead of interpreting the kernel. Subformulas
/// the program does not cover (guarded quantifiers, counting) are handed
/// to a LocalEvaluator. A plan points into the structure's relations, so it
/// lives for one call and is never cached.
///
/// The plan splits the kernel into its top-level conjuncts (nested
/// conjunctions flattened; a negation or disjunction stays whole). Each
/// later position draws its candidates from a ball of its BFS parent: the
/// separation ball, or, when a top-level conjunct dist(parent, pos) <= d
/// has d < 2r+1, the parent's d-ball for the smallest such d. Every
/// top-level dist(parent, pos) then holds by construction and is compiled
/// to the constant true; the separation test against the parent holds too,
/// since d < 2r+1, and the tests against the other placed positions are
/// unchanged.
///
/// Narrowing is exact because a candidate c is in the d-oracle's
/// BallOf(parent) exactly when that oracle's Close(parent, c) holds, and
/// closeness is symmetric, so the conjunct written either way round,
/// dist(pos, parent) included, reads the same relation. That holds for
/// lent tables and lazy oracles alike, and for lazy oracles confined to a
/// cluster too: the confined search walks the undirected subgraph induced
/// on the cluster, and every oracle of one evaluator is confined to the
/// same cluster.
///
/// Thread-compatible, not thread-safe (mutable oracle/index caches). With
/// num_threads > 1 the per-anchor (or, through a view, per-cluster) loop of
/// EvaluateBasicAll / EvaluateBasicGround fans out over chunk workers that
/// share the plan, the lent ball tables and the lent cluster views
/// read-only and keep their own oracles and scratch; partial counts are
/// reduced in chunk order with checked arithmetic, so the result is
/// bit-identical to the serial evaluation.
class ClTermBallEvaluator {
 public:
  /// Exploration-work tally (see DESIGN.md, "Observability"): anchors is the
  /// number of anchored counts, balls the ball fetches feeding the placement
  /// search (one per partial placement, for the next position's
  /// candidates), placements the full pattern placements whose kernel was
  /// checked: those drawn from the possibly narrowed balls that passed the
  /// separation tests. All three are input-determined, hence identical for
  /// every thread count.
  struct ExploreStats {
    std::int64_t anchors = 0;
    std::int64_t balls = 0;
    std::int64_t placements = 0;
  };

  /// `gaifman` must be the Gaifman graph of `structure`. The handle's
  /// thread count controls the fan-out. EvaluateBasicAll /
  /// EvaluateBasicGround flush the counters accumulated during the call to
  /// its metrics sink, advance the kClTerm phase per anchor and poll the
  /// deadline per anchor; a hard expiry makes them return
  /// kDeadlineExceeded. With `tables` lent, separation balls and kernel
  /// distances of a radius that has a table are read from it instead of
  /// explored; results are the same either way. The tables must be balls of
  /// `gaifman` and outlive the evaluator.
  ///
  /// With `views` lent, a basic whose RequiredCoverRadius has a view, whose
  /// radius must be at least that, is counted cluster by cluster through it
  /// (see ClusterView): the kClTerm progress unit is then a cluster, and the
  /// call flushes cover_eval.* counters where the anchor-by-anchor count
  /// flushes clterm.basics_evaluated. Confinement reads no tables, so
  /// tables and views cannot be lent together. The views must be views of
  /// covers of `gaifman` and outlive the evaluator.
  ClTermBallEvaluator(const Structure& structure, const Graph& gaifman,
                      const Instruments& in = {},
                      const BallTables* tables = nullptr,
                      const ClusterViews* views = nullptr);

  /// Cumulative exploration work since construction (includes per-call
  /// EvaluateBasicAt work, which has no flush boundary of its own).
  const ExploreStats& explore_stats() const { return explore_stats_; }

  /// Values of a unary basic cl-term at every element of the universe.
  Result<std::vector<CountInt>> EvaluateBasicAll(const BasicClTerm& basic);

  /// Values of `basic` at each of `anchors` (pattern placements anchored at
  /// y1 = anchor; the unary flag is ignored), serially, with one plan for
  /// the whole list.
  Result<std::vector<CountInt>> EvaluateBasicAt(
      const BasicClTerm& basic, std::span<const ElemId> anchors);

  /// Value of a ground basic cl-term (sum over anchors of the unary values).
  Result<CountInt> EvaluateBasicGround(const BasicClTerm& basic);

  /// Value of a ground cl-term.
  Result<CountInt> EvaluateGround(const ClTerm& term);

  /// Values of a (possibly unary) cl-term at every element: unary factors
  /// are evaluated pointwise, ground factors once.
  Result<std::vector<CountInt>> EvaluateAll(const ClTerm& term);

 private:
  /// The lent view `basic` is counted through, or null.
  const ClusterView* ViewFor(const BasicClTerm& basic) const;

  /// The planned placement loop behind EvaluateBasicAll and
  /// EvaluateBasicGround: plans `basic` once, counts the placements anchored
  /// at every element on the chunk grid and hands each count to
  /// record(chunk, anchor, count), which returns false on int64 overflow.
  /// The grid's unit is an anchor, or with `view` a cluster, whose worker
  /// confines its evaluator to the cluster for the cluster's anchors.
  template <typename Record>
  Status CountEveryAnchor(const BasicClTerm& basic, const ClusterView* view,
                          Record record);

  const Structure& structure_;
  const Graph& gaifman_;
  Instruments in_;  // num_threads resolved to the effective worker count
  const BallTables* tables_;
  const ClusterViews* views_;
  LocalEvaluator eval_;
  ExploreStats explore_stats_;
};

}  // namespace focq

#endif  // FOCQ_LOCALITY_CL_TERM_H_
