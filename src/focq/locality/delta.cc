#include "focq/locality/delta.h"

#include <algorithm>

#include "focq/logic/build.h"

namespace focq {

Formula DeltaFormula(const PatternGraph& g, std::uint32_t r,
                     const std::vector<Var>& vars) {
  FOCQ_CHECK_EQ(g.num_vertices(), static_cast<int>(vars.size()));
  std::vector<Formula> parts;
  for (int i = 0; i < g.num_vertices(); ++i) {
    for (int j = i + 1; j < g.num_vertices(); ++j) {
      Formula close = DistAtMost(vars[i], vars[j], r);
      parts.push_back(g.HasEdge(i, j) ? close : Not(close));
    }
  }
  return And(std::move(parts));
}

PatternGraph ClosenessGraph(BallExplorer* explorer, const Tuple& a,
                            std::uint32_t r) {
  int k = static_cast<int>(a.size());
  PatternGraph g(k, 0);
  for (int i = 0; i < k; ++i) {
    // One ball exploration per anchor; mark which other anchors are inside.
    const std::vector<VertexId>& ball = explorer->Explore(a[i], r);
    for (int j = i + 1; j < k; ++j) {
      if (a[i] == a[j]) {
        g.SetEdge(i, j);
        continue;
      }
      if (std::find(ball.begin(), ball.end(), a[j]) != ball.end()) {
        g.SetEdge(i, j);
      }
    }
  }
  return g;
}

ClosenessOracle::ClosenessOracle(const Graph& gaifman, std::uint32_t r)
    : gaifman_(&gaifman),
      r_(r),
      cache_(gaifman.num_vertices()),
      balls_(&cache_) {}

ClosenessOracle::ClosenessOracle(const BallTable& table, std::uint32_t r)
    : gaifman_(nullptr), r_(r), balls_(&table) {}

const std::vector<ElemId>& ClosenessOracle::Explore(ElemId a) {
  FOCQ_CHECK(gaifman_ != nullptr);
  if (!explorer_.has_value()) explorer_.emplace(*gaifman_);
  std::vector<ElemId> ball = explorer_->Explore(a, r_);
  std::sort(ball.begin(), ball.end());
  cache_[a] = std::move(ball);
  return cache_[a];
}

std::unique_ptr<ClosenessOracle> MakeOracle(const Graph& gaifman,
                                            const BallTables* tables,
                                            std::uint32_t r) {
  if (tables != nullptr) {
    auto it = tables->find(r);
    if (it != tables->end()) {
      return std::make_unique<ClosenessOracle>(*it->second, r);
    }
  }
  return std::make_unique<ClosenessOracle>(gaifman, r);
}

}  // namespace focq
