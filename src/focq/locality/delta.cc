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
  if (!explorer_.has_value()) {
    explorer_.emplace(*gaifman_);
    explorer_->Confine(scope_);
  }
  const std::vector<VertexId>& order = explorer_->Explore(a, r_);
  // A forgotten slot keeps its capacity, so re-exploring it allocates
  // nothing once it has held a ball this large.
  std::vector<ElemId>& ball = cache_[a];
  ball.assign(order.begin(), order.end());
  std::sort(ball.begin(), ball.end());
  filled_.push_back(a);
  return ball;
}

void ClosenessOracle::Confine(std::span<const ElemId> scope) {
  FOCQ_CHECK(gaifman_ != nullptr);
  for (ElemId a : filled_) cache_[a].clear();
  filled_.clear();
  scope_ = scope;
  if (explorer_.has_value()) explorer_->Confine(scope);
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
