// Breadth-first search utilities: single- and multi-source distances, r-balls,
// connected components. These are the workhorses behind neighbourhoods,
// delta_{G,r} checks, covers and the splitter game.
#ifndef FOCQ_GRAPH_BFS_H_
#define FOCQ_GRAPH_BFS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "focq/graph/graph.h"

namespace focq {

/// Distance value for "unreachable".
inline constexpr std::uint32_t kInfiniteDistance =
    std::numeric_limits<std::uint32_t>::max();

/// Radius arithmetic: `r`, computed in 64 bits from uint32 radii and
/// distance bounds, saturated at kInfiniteDistance. Saturation is exact:
/// ids are uint32, so every finite distance is below kInfiniteDistance, and
/// a ball of radius kInfiniteDistance is the whole component.
constexpr std::uint32_t SaturatedRadius(std::uint64_t r) {
  return r < kInfiniteDistance ? static_cast<std::uint32_t>(r)
                               : kInfiniteDistance;
}

/// Distances from `source` to every vertex (kInfiniteDistance if unreachable).
std::vector<std::uint32_t> BfsDistances(const Graph& g, VertexId source);

/// Distances from the nearest of `sources` (the paper's dist(a-bar, b)).
std::vector<std::uint32_t> MultiSourceBfsDistances(
    const Graph& g, const std::vector<VertexId>& sources);

/// The r-ball N_r(sources): all vertices within distance r of some source,
/// in increasing vertex order.
std::vector<VertexId> Ball(const Graph& g, const std::vector<VertexId>& sources,
                           std::uint32_t r);

/// Distance between two single vertices, stopping early at `limit`:
/// returns the exact distance if it is <= limit, otherwise kInfiniteDistance.
std::uint32_t BoundedDistance(const Graph& g, VertexId u, VertexId v,
                              std::uint32_t limit);

/// Component id (0-based, in order of discovery from vertex 0 upward) for
/// every vertex.
std::vector<std::uint32_t> ConnectedComponents(const Graph& g);

/// True iff the graph is connected (the empty graph counts as connected).
bool IsConnected(const Graph& g);

/// A BFS-reusable scratch buffer for repeated bounded ball explorations.
/// Avoids O(n) clearing per query: visited marks are timestamped.
class BallExplorer {
 public:
  explicit BallExplorer(const Graph& g);

  /// Vertices within distance r of `source`, in BFS order.
  /// The returned reference is invalidated by the next call.
  const std::vector<VertexId>& Explore(VertexId source, std::uint32_t r);

  /// Same for multiple sources.
  const std::vector<VertexId>& ExploreMulti(std::span<const VertexId> sources,
                                            std::uint32_t r);

  /// Confines later explorations to the subgraph induced on `scope`: they
  /// neither visit nor cross a vertex outside it, and every source must lie
  /// in it. O(|scope|); an empty scope lifts the confinement.
  void Confine(std::span<const VertexId> scope);

  /// Distance (from the last Explore* call's sources) of a vertex that was
  /// reached; must only be called for vertices in the returned ball.
  std::uint32_t DistanceOf(VertexId v) const { return dist_[v]; }

 private:
  template <bool kConfined>
  void Search(std::span<const VertexId> sources, std::uint32_t r);

  const Graph& g_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> dist_;
  std::vector<VertexId> order_;
  std::uint32_t current_stamp_ = 0;
  // The scope is the vertices v with scope_stamp_[v] == current_scope_;
  // sized on the first Confine.
  std::vector<std::uint32_t> scope_stamp_;
  std::uint32_t current_scope_ = 0;
  bool confined_ = false;
};

}  // namespace focq

#endif  // FOCQ_GRAPH_BFS_H_
