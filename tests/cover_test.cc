#include <gtest/gtest.h>

#include "focq/cover/neighborhood_cover.h"
#include "focq/graph/generators.h"
#include "focq/locality/cl_term.h"
#include "focq/locality/decompose.h"
#include "focq/structure/encode.h"
#include "focq/structure/gaifman.h"
#include "focq/structure/neighborhood.h"
#include "test_util.h"

namespace focq {
namespace {

class CoverInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(CoverInvariantTest, BothConstructionsAreValidCovers) {
  auto [family, r] = GetParam();
  Rng rng(42 + family);
  Graph g;
  switch (family) {
    case 0: g = MakeRandomTree(200, &rng); break;
    case 1: g = MakeGrid(12, 15); break;
    case 2: g = MakeRandomBoundedDegree(150, 4, &rng); break;
    case 3: g = MakeClique(40); break;
    default: g = MakePath(100); break;
  }
  NeighborhoodCover exact = ExactBallCover(g, r);
  CheckCoverInvariants(g, exact);
  EXPECT_EQ(exact.cluster_radius, r);
  NeighborhoodCover sparse = SparseCover(g, r);
  CheckCoverInvariants(g, sparse);
  EXPECT_EQ(sparse.cluster_radius, 2 * r);
  EXPECT_LE(sparse.NumClusters(), exact.NumClusters());
}

INSTANTIATE_TEST_SUITE_P(
    Families, CoverInvariantTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(1u, 2u, 4u)));

TEST(SparseCover, SparseOnTreesDenseOnCliques) {
  Rng rng(77);
  Graph tree = MakeRandomTree(500, &rng);
  NeighborhoodCover tree_cover = SparseCover(tree, 2);
  // Greedy centres are pairwise > r apart; on sparse graphs the degree stays
  // far below n. (A loose sanity bound, not the theorem's n^delta; random
  // recursive trees have high-degree hubs that join many clusters.)
  EXPECT_LE(tree_cover.MaxDegree(), 60u);

  Graph clique = MakeClique(60);
  NeighborhoodCover clique_cover = SparseCover(clique, 1);
  // One centre covers everything on a clique.
  EXPECT_EQ(clique_cover.NumClusters(), 1u);
}

TEST(SparseCover, CentersFarApart) {
  Rng rng(78);
  Graph g = MakeGrid(20, 20);
  std::uint32_t r = 3;
  NeighborhoodCover cover = SparseCover(g, r);
  for (std::size_t i = 0; i < cover.centers.size(); ++i) {
    for (std::size_t j = i + 1; j < cover.centers.size(); ++j) {
      EXPECT_GT(BoundedDistance(g, cover.centers[i], cover.centers[j], r),
                r);
    }
  }
}

// One cover's view, lent for every basic of `term`: its radius must be at
// least each basic's RequiredCoverRadius.
ClusterViews ViewForEveryBasic(const ClTerm& term, const ClusterView& view) {
  ClusterViews views;
  for (const BasicClTerm& b : term.basics()) {
    views.emplace(RequiredCoverRadius(b), &view);
  }
  return views;
}

// A view lists each cluster's anchors in increasing element order, and
// counts only the clusters that some element is assigned to.
TEST(CoverEvaluator, ViewListsEachClustersAnchorsInOrder) {
  const std::vector<std::vector<ElemId>> clusters = {
      {0, 1, 2, 3}, {2, 3, 4}, {3, 4, 5, 6}, {5, 6}};
  const std::vector<std::uint32_t> assignment = {0, 0, 1, 2, 1, 2, 2};
  const ClusterView view = MakeClusterView(clusters, assignment, 3);
  EXPECT_EQ(view.radius, 3u);
  EXPECT_EQ(view.clusters, &clusters);
  EXPECT_EQ(view.offsets, (std::vector<std::uint32_t>{0, 2, 4, 7, 7}));
  EXPECT_EQ(view.anchors, (std::vector<ElemId>{0, 1, 2, 4, 3, 5, 6}));
  EXPECT_EQ(view.clusters_evaluated, 3);
  EXPECT_EQ(view.cluster_elements, 4 + 3 + 4);
}

// Counting through cluster views must agree with counting anchor by anchor
// (and hence with the naive semantics) whenever the cover is wide enough.
TEST(CoverEvaluator, AgreesWithBallEvaluator) {
  Rng rng(1600);
  Var y1 = VarNamed("cvy1"), y2 = VarNamed("cvy2");
  for (int round = 0; round < 12; ++round) {
    Structure a = test::RandomColoredStructure(30, 1.2, 0.4, &rng);
    Graph gaifman = BuildGaifmanGraph(a);
    std::vector<Formula> parts = {
        test::RandomGuardedKernel({y1}, 2, true, 1, &rng, 1),
        test::RandomQuantifierFree({y1, y2}, 1, true, 1, &rng)};
    Formula kernel = And(parts);
    Result<Decomposition> d = DecomposeCount({y1, y2}, true, kernel);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ClTermBallEvaluator ball(a, gaifman);
    Result<std::vector<CountInt>> expected = ball.EvaluateAll(d->term);
    ASSERT_TRUE(expected.ok());

    std::uint32_t needed = 0;
    for (const BasicClTerm& b : d->term.basics()) {
      needed = std::max(needed, RequiredCoverRadius(b));
    }
    for (bool sparse : {false, true}) {
      NeighborhoodCover cover = sparse ? SparseCover(gaifman, needed)
                                       : ExactBallCover(gaifman, needed);
      const ClusterView view =
          MakeClusterView(cover.clusters, cover.assignment, cover.r);
      const ClusterViews views = ViewForEveryBasic(d->term, view);
      ClTermBallEvaluator cov(a, gaifman, {}, nullptr, &views);
      Result<std::vector<CountInt>> actual = cov.EvaluateAll(d->term);
      ASSERT_TRUE(actual.ok());
      EXPECT_EQ(*actual, *expected) << "sparse=" << sparse;
    }
  }
}

// Each anchor is counted in B_X = A[X] of its cluster X, never in A: with a
// cover that lies about its radius (1-balls claiming RequiredCoverRadius),
// every value must equal the ball evaluator's on the induced substructure,
// so no ball the count reads may leave the cluster. The relations have
// arity <= 2, so the subgraph of A's Gaifman graph induced on X is
// Gaifman(A[X]).
TEST(CoverEvaluator, EvaluatesInsideEachCluster) {
  Rng rng(1800);
  Var y1 = VarNamed("ciy1"), y2 = VarNamed("ciy2");
  PatternGraph edge(2, 0);
  edge.SetEdge(0, 1);
  for (int round = 0; round < 8; ++round) {
    Structure a = test::RandomColoredStructure(30, 1.2, 0.4, &rng);
    Graph gaifman = BuildGaifmanGraph(a);
    std::vector<Formula> parts = {
        test::RandomGuardedKernel({y1}, 2, true, 1, &rng, 1),
        test::RandomQuantifierFree({y1, y2}, 1, true, 1, &rng)};
    Result<Decomposition> d = DecomposeCount({y1, y2}, true, And(parts));
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    NeighborhoodCover cover = ExactBallCover(gaifman, 1);
    // A kernel dist below the separation: y2's candidates come from y1's
    // 2-ball, explored inside the cluster like every other ball.
    std::vector<BasicClTerm> basics = d->term.basics();
    basics.push_back({{y1, y2}, /*unary=*/true,
                      And(DistAtMost(y1, y2, 2), Atom("R", {y2})),
                      /*radius=*/1, edge});
    for (BasicClTerm b : basics) {
      b.unary = true;
      std::vector<CountInt> expected(a.universe_size());
      for (ElemId x = 0; x < a.universe_size(); ++x) {
        SubstructureView view =
            InducedView(a, cover.clusters[cover.assignment[x]]);
        Graph view_gaifman = BuildGaifmanGraph(view.structure);
        const ElemId local = view.ToLocal(x);
        Result<std::vector<CountInt>> v =
            ClTermBallEvaluator(view.structure, view_gaifman)
                .EvaluateBasicAt(b, {&local, 1});
        ASSERT_TRUE(v.ok());
        expected[x] = (*v)[0];
      }
      const std::uint32_t radius = RequiredCoverRadius(b);
      const ClusterView cluster_view =
          MakeClusterView(cover.clusters, cover.assignment, radius);
      const ClusterViews views = {{radius, &cluster_view}};
      for (int threads : {1, 4}) {
        ClTermBallEvaluator cov(a, gaifman, {.num_threads = threads}, nullptr,
                                &views);
        Result<std::vector<CountInt>> actual = cov.EvaluateBasicAll(b);
        ASSERT_TRUE(actual.ok());
        EXPECT_EQ(*actual, expected)
            << "round " << round << ", threads " << threads;
      }
    }
  }
}

TEST(CoverEvaluator, GroundTermsAgree) {
  Rng rng(1700);
  Var y1 = VarNamed("cgy1"), y2 = VarNamed("cgy2");
  Structure a = test::RandomColoredStructure(40, 1.3, 0.3, &rng);
  Graph gaifman = BuildGaifmanGraph(a);
  Formula kernel = And(Atom("E", {y1, y2}), Atom("R", {y2}));
  Result<Decomposition> d = DecomposeCount({y1, y2}, false, kernel);
  ASSERT_TRUE(d.ok());
  ClTermBallEvaluator ball(a, gaifman);
  std::uint32_t needed = 0;
  for (const BasicClTerm& b : d->term.basics()) {
    needed = std::max(needed, RequiredCoverRadius(b));
  }
  NeighborhoodCover cover = SparseCover(gaifman, needed);
  const ClusterView view =
      MakeClusterView(cover.clusters, cover.assignment, cover.r);
  const ClusterViews views = ViewForEveryBasic(d->term, view);
  // Through a view the ground count reduces per-chunk partials over
  // clusters.
  for (int threads : {1, 4}) {
    ClTermBallEvaluator cov(a, gaifman, {.num_threads = threads}, nullptr,
                            &views);
    EXPECT_EQ(*cov.EvaluateGround(d->term), *ball.EvaluateGround(d->term))
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace focq
