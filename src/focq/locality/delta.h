// The distance-pattern formulas delta_{G,r}(y-bar) of Section 6.1 and their
// semantic counterpart: classifying a tuple a-bar by its closeness graph
// G_{a-bar,r} (edge {i,j} iff dist_A(a_i, a_j) <= r). Every k-tuple satisfies
// delta_{G,r} for exactly one pattern graph G.
#ifndef FOCQ_LOCALITY_DELTA_H_
#define FOCQ_LOCALITY_DELTA_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "focq/graph/bfs.h"
#include "focq/graph/pattern_graph.h"
#include "focq/logic/expr.h"
#include "focq/structure/structure.h"
#include "focq/util/check.h"

namespace focq {

/// The symbolic formula delta_{G,r}(vars): the conjunction of
/// dist(y_i, y_j) <= r for edges of G and their negations for non-edges.
Formula DeltaFormula(const PatternGraph& g, std::uint32_t r,
                     const std::vector<Var>& vars);

/// Computes the closeness graph G_{a-bar,r} semantically. `explorer` must
/// wrap the Gaifman graph of the structure the tuple lives in.
PatternGraph ClosenessGraph(BallExplorer* explorer, const Tuple& a,
                            std::uint32_t r);

/// The sorted r-ball N_r(v) of every vertex v of one graph, indexed by
/// vertex. The clusters of an exact r-cover are exactly such a table.
using BallTable = std::vector<std::vector<ElemId>>;

/// Ball tables lent to evaluators, by radius. Borrowed and read-only: the
/// lender keeps every table alive and unchanged while a borrower runs, so
/// concurrent borrowers (parallel chunk workers, concurrent statements) may
/// share one. A radius without a table stays lazy.
using BallTables = std::map<std::uint32_t, const BallTable*>;

/// Pairwise-distance helper used by tuple enumeration. Lazy by default: the
/// r-ball of each queried element is explored on first use and cached, so
/// repeated closeness tests against the same anchors are cheap. Backed by a
/// borrowed BallTable it explores nothing: BallOf is an index and Close one
/// binary search.
class ClosenessOracle {
 public:
  ClosenessOracle(const Graph& gaifman, std::uint32_t r);

  /// `table` must hold the sorted r-ball of every vertex and outlive the
  /// oracle.
  ClosenessOracle(const BallTable& table, std::uint32_t r);

  ClosenessOracle(const ClosenessOracle&) = delete;
  ClosenessOracle& operator=(const ClosenessOracle&) = delete;

  /// True iff dist(a, b) <= r.
  bool Close(ElemId a, ElemId b) {
    if (a == b) return true;
    const std::vector<ElemId>& ball = BallOf(a);
    return std::binary_search(ball.begin(), ball.end(), b);
  }

  /// The sorted r-ball of `a`. The reference stays valid for the oracle's
  /// lifetime, and its contents until the next Confine: later calls never
  /// move an already returned ball.
  const std::vector<ElemId>& BallOf(ElemId a) {
    FOCQ_CHECK_LT(a, balls_->size());
    const std::vector<ElemId>& ball = (*balls_)[a];
    // Every ball holds its own centre, so an empty slot is one not yet
    // explored (never the case in a borrowed table).
    return ball.empty() ? Explore(a) : ball;
  }

  std::uint32_t radius() const { return r_; }

  /// Lazy oracles only. Forgets the balls explored so far (O(explored)) and
  /// explores later ones inside the subgraph induced on `scope` (see
  /// BallExplorer::Confine), which must outlive the confinement. An empty
  /// scope lifts it.
  void Confine(std::span<const ElemId> scope);

 private:
  const std::vector<ElemId>& Explore(ElemId a);

  const Graph* gaifman_;  // null when table-backed
  std::uint32_t r_;
  std::optional<BallExplorer> explorer_;  // built on the first lazy miss
  BallTable cache_;                       // the lazy mode's own table
  const BallTable* balls_;                // &cache_ or the borrowed table
  std::vector<ElemId> filled_;            // the slots of cache_ in use
  std::span<const ElemId> scope_;         // empty: unconfined
};

/// A table-backed oracle when `tables` lends radius r, else a lazy one over
/// `gaifman`.
std::unique_ptr<ClosenessOracle> MakeOracle(const Graph& gaifman,
                                            const BallTables* tables,
                                            std::uint32_t r);

}  // namespace focq

#endif  // FOCQ_LOCALITY_DELTA_H_
