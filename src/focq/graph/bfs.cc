#include "focq/graph/bfs.h"

#include <algorithm>
#include <deque>

#include "focq/util/check.h"

namespace focq {

std::vector<std::uint32_t> BfsDistances(const Graph& g, VertexId source) {
  return MultiSourceBfsDistances(g, {source});
}

std::vector<std::uint32_t> MultiSourceBfsDistances(
    const Graph& g, const std::vector<VertexId>& sources) {
  FOCQ_CHECK(g.finalized());
  std::vector<std::uint32_t> dist(g.num_vertices(), kInfiniteDistance);
  std::deque<VertexId> queue;
  for (VertexId s : sources) {
    FOCQ_CHECK_LT(s, g.num_vertices());
    if (dist[s] != 0) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    VertexId u = queue.front();
    queue.pop_front();
    for (VertexId v : g.Neighbors(u)) {
      if (dist[v] == kInfiniteDistance) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<VertexId> Ball(const Graph& g, const std::vector<VertexId>& sources,
                           std::uint32_t r) {
  BallExplorer explorer(g);
  std::vector<VertexId> ball = explorer.ExploreMulti(sources, r);
  std::sort(ball.begin(), ball.end());
  return ball;
}

std::uint32_t BoundedDistance(const Graph& g, VertexId u, VertexId v,
                              std::uint32_t limit) {
  FOCQ_CHECK(g.finalized());
  if (u == v) return 0;
  BallExplorer explorer(g);
  const std::vector<VertexId>& ball = explorer.Explore(u, limit);
  for (VertexId w : ball) {
    if (w == v) return explorer.DistanceOf(w);
  }
  return kInfiniteDistance;
}

std::vector<std::uint32_t> ConnectedComponents(const Graph& g) {
  FOCQ_CHECK(g.finalized());
  std::vector<std::uint32_t> comp(g.num_vertices(), kInfiniteDistance);
  std::uint32_t next_id = 0;
  std::deque<VertexId> queue;
  for (VertexId start = 0; start < g.num_vertices(); ++start) {
    if (comp[start] != kInfiniteDistance) continue;
    comp[start] = next_id;
    queue.push_back(start);
    while (!queue.empty()) {
      VertexId u = queue.front();
      queue.pop_front();
      for (VertexId v : g.Neighbors(u)) {
        if (comp[v] == kInfiniteDistance) {
          comp[v] = next_id;
          queue.push_back(v);
        }
      }
    }
    ++next_id;
  }
  return comp;
}

bool IsConnected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  std::vector<std::uint32_t> comp = ConnectedComponents(g);
  for (std::uint32_t c : comp) {
    if (c != 0) return false;
  }
  return true;
}

BallExplorer::BallExplorer(const Graph& g)
    : g_(g), stamp_(g.num_vertices(), 0), dist_(g.num_vertices(), 0) {
  FOCQ_CHECK(g.finalized());
}

const std::vector<VertexId>& BallExplorer::Explore(VertexId source,
                                                   std::uint32_t r) {
  return ExploreMulti({&source, 1}, r);
}

const std::vector<VertexId>& BallExplorer::ExploreMulti(
    std::span<const VertexId> sources, std::uint32_t r) {
  ++current_stamp_;
  order_.clear();
  // The scope test is a template argument, so the unconfined search (cover
  // builds and repair, the ball engine) runs the loop without it.
  if (confined_) {
    Search<true>(sources, r);
  } else {
    Search<false>(sources, r);
  }
  return order_;
}

template <bool kConfined>
void BallExplorer::Search(std::span<const VertexId> sources, std::uint32_t r) {
  for (VertexId s : sources) {
    FOCQ_CHECK_LT(s, g_.num_vertices());
    if constexpr (kConfined) {
      FOCQ_CHECK_EQ(scope_stamp_[s], current_scope_);
    }
    if (stamp_[s] != current_stamp_) {
      stamp_[s] = current_stamp_;
      dist_[s] = 0;
      order_.push_back(s);
    }
  }
  // `order_` doubles as the BFS queue: vertices are appended in distance
  // order, so a scan index suffices.
  for (std::size_t head = 0; head < order_.size(); ++head) {
    VertexId u = order_[head];
    if (dist_[u] == r) continue;
    for (VertexId v : g_.Neighbors(u)) {
      if constexpr (kConfined) {
        if (scope_stamp_[v] != current_scope_) continue;
      }
      if (stamp_[v] != current_stamp_) {
        stamp_[v] = current_stamp_;
        dist_[v] = dist_[u] + 1;
        order_.push_back(v);
      }
    }
  }
}

void BallExplorer::Confine(std::span<const VertexId> scope) {
  confined_ = !scope.empty();
  if (!confined_) return;
  if (scope_stamp_.empty()) scope_stamp_.assign(g_.num_vertices(), 0);
  ++current_scope_;
  for (VertexId v : scope) {
    FOCQ_CHECK_LT(v, g_.num_vertices());
    scope_stamp_[v] = current_scope_;
  }
}

}  // namespace focq
