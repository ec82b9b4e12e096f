// Incremental evaluation under structure updates (DESIGN.md §3e): the
// tuple-level update API, localized Gaifman/cover/sphere repair inside
// EvalContext::ApplyUpdate, the cover.clusters.rebuilt locality guarantee,
// and the incremental≡rebuild answer equivalence at several thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "focq/core/api.h"
#include "focq/cover/neighborhood_cover.h"
#include "focq/graph/generators.h"
#include "focq/hanf/sphere.h"
#include "focq/logic/parser.h"
#include "focq/structure/encode.h"
#include "focq/structure/gaifman.h"
#include "focq/structure/structure.h"
#include "focq/structure/update.h"
#include "focq/util/rng.h"

namespace focq {
namespace {

// A long path with a sprinkling of red vertices: sparse, so repair regions
// stay tiny relative to the structure.
Structure PathWithReds(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Structure a = EncodeGraph(MakePath(n));
  std::vector<ElemId> reds;
  for (ElemId e = 0; e < a.universe_size(); ++e) {
    if (rng.NextBool(0.4)) reds.push_back(e);
  }
  a.AddUnarySymbol("R", reds);
  return a;
}

TupleUpdate Insert(SymbolId symbol, Tuple t) {
  return TupleUpdate{UpdateKind::kInsert, symbol, std::move(t)};
}

TupleUpdate Delete(SymbolId symbol, Tuple t) {
  return TupleUpdate{UpdateKind::kDelete, symbol, std::move(t)};
}

TEST(StructureUpdate, InsertDeleteRoundTripWithNoopDetection) {
  Structure a(Signature({{"E", 2}, {"R", 1}}), 4);
  EXPECT_TRUE(a.InsertTuple(0, {0, 1}));
  EXPECT_FALSE(a.InsertTuple(0, {0, 1}));  // duplicate: no-op
  EXPECT_TRUE(a.Holds(0, {0, 1}));
  EXPECT_TRUE(a.DeleteTuple(0, {0, 1}));
  EXPECT_FALSE(a.DeleteTuple(0, {0, 1}));  // absent: no-op
  EXPECT_FALSE(a.Holds(0, {0, 1}));
  EXPECT_EQ(a.relation(0).NumTuples(), 0u);
}

TEST(StructureUpdate, RelationRemoveKeepsFlatOrderStable) {
  Relation r(1);
  r.Add({3});
  r.Add({1});
  r.Add({2});
  EXPECT_TRUE(r.Remove({1}));
  ASSERT_EQ(r.NumTuples(), 2u);
  EXPECT_EQ(ToTuple(r.tuples()[0]), Tuple{3});
  EXPECT_EQ(ToTuple(r.tuples()[1]), Tuple{2});
  EXPECT_FALSE(r.Remove({1}));
}

TEST(GraphUpdate, InsertAndEraseEdgeMaintainSortedAdjacency) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.Finalize();
  EXPECT_TRUE(g.InsertEdge(0, 3));
  EXPECT_FALSE(g.InsertEdge(3, 0));  // already present (either orientation)
  EXPECT_FALSE(g.InsertEdge(2, 2));  // self-loop: ignored
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_TRUE(std::is_sorted(g.Neighbors(0).begin(), g.Neighbors(0).end()));
  EXPECT_TRUE(g.EraseEdge(1, 0));
  EXPECT_FALSE(g.EraseEdge(1, 0));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(GaifmanMaintainer, MatchesFullRebuildUnderRandomUpdates) {
  Rng rng(11);
  Structure a = EncodeGraph(MakeRandomBoundedDegree(30, 3, &rng));
  Graph g = BuildGaifmanGraph(a);
  GaifmanMaintainer maintainer(a);
  // Random inserts and deletes; after every step the maintained graph must
  // equal a from-scratch rebuild (edge multiset equality).
  for (int step = 0; step < 60; ++step) {
    ElemId u = static_cast<ElemId>(rng.NextBelow(a.universe_size()));
    ElemId v = static_cast<ElemId>(rng.NextBelow(a.universe_size()));
    TupleUpdate update = rng.NextBool(0.5) ? Insert(0, {u, v}) : Delete(0, {u, v});
    Result<bool> changed = ApplyToStructure(&a, update);
    ASSERT_TRUE(changed.ok());
    if (*changed) {
      if (update.kind == UpdateKind::kInsert) {
        maintainer.ApplyInsert(update.tuple, &g);
      } else {
        maintainer.ApplyDelete(update.tuple, &g);
      }
    }
    EXPECT_EQ(g.Edges(), BuildGaifmanGraph(a).Edges()) << "step " << step;
  }
}

TEST(GaifmanMaintainer, SharedPairAcrossTuplesKeepsEdgeUntilLastWitness) {
  // {0,1} is witnessed by both E(0,1) and E(1,0) (the symmetric encoding):
  // deleting one tuple must keep the Gaifman edge, deleting both removes it.
  Structure a = EncodeGraph(MakePath(2));
  Graph g = BuildGaifmanGraph(a);
  GaifmanMaintainer maintainer(a);
  EXPECT_TRUE(a.DeleteTuple(0, {0, 1}));
  GaifmanDelta d1 = maintainer.ApplyDelete({0, 1}, &g);
  EXPECT_TRUE(d1.removed.empty());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(a.DeleteTuple(0, {1, 0}));
  GaifmanDelta d2 = maintainer.ApplyDelete({1, 0}, &g);
  ASSERT_EQ(d2.removed.size(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(UpdateParse, RoundTripsAndRejectsMalformedSpecs) {
  Signature sig({{"E", 2}, {"R", 1}, {"Q", 0}});
  for (const char* spec : {"insert E 0 1", "delete R 3", "insert Q"}) {
    Result<TupleUpdate> u = ParseUpdate(spec, sig);
    ASSERT_TRUE(u.ok()) << spec;
    EXPECT_EQ(UpdateToString(*u, sig), spec);
  }
  EXPECT_EQ(ParseUpdate("frobnicate E 0 1", sig).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseUpdate("insert X 0", sig).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseUpdate("insert E 0", sig).status().code(),
            StatusCode::kInvalidArgument);  // arity mismatch
  EXPECT_EQ(ParseUpdate("insert E 0 banana", sig).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseUpdate("", sig).status().code(),
            StatusCode::kInvalidArgument);
}

// The locality guarantee the ISSUE pins down: one tuple update against a
// cached exact cover repairs only the clusters whose r-neighbourhood
// intersects the updated tuple's ball — asserted via cover.clusters.rebuilt.
TEST(ApplyUpdate, SingleInsertRepairsOnlyTouchedClusters) {
  Structure a = EncodeGraph(MakePath(200));
  EvalContext ctx(a);
  ctx.Cover(1, CoverBackend::kExact);

  MetricsSink sink;
  ArtifactOptions opts;
  opts.metrics = &sink;
  // Append a chord near one end: only vertices within distance 1 of {5, 7}
  // in the old or new graph can see their 1-ball change.
  Result<UpdateStats> stats =
      ctx.ApplyUpdate(&a, Insert(0, {5, 7}), opts);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->changed);
  EXPECT_EQ(stats->edges_added, 1);
  // N_1({5,7}) in old ∪ new graph = {4,5,6,7,8}: exactly 5 clusters rebuilt
  // out of 200.
  EXPECT_EQ(stats->clusters_rebuilt, 5);
  EvalMetrics m = sink.Snapshot();
  EXPECT_EQ(m.counters["cover.clusters.rebuilt"], 5);
  EXPECT_EQ(m.counters["update.gaifman.edges_added"], 1);
  EXPECT_EQ(m.counters["update.inserts"], 1);

  // The repaired cover must be bit-identical to a cold rebuild.
  const NeighborhoodCover& repaired = ctx.Cover(1, CoverBackend::kExact);
  Graph rebuilt_graph = BuildGaifmanGraph(a);
  NeighborhoodCover rebuilt = ExactBallCover(rebuilt_graph, 1);
  EXPECT_EQ(repaired.clusters, rebuilt.clusters);
  EXPECT_EQ(repaired.assignment, rebuilt.assignment);
  EXPECT_EQ(repaired.centers, rebuilt.centers);
}

TEST(ApplyUpdate, SingleDeleteRepairsOnlyTouchedClustersAndMatchesRebuild) {
  Structure a = EncodeGraph(MakeCycle(100));
  EvalContext ctx(a);
  ctx.Cover(2, CoverBackend::kExact);
  // The symmetric encoding stores both orientations; remove both so the
  // Gaifman edge {10, 11} actually disappears.
  ASSERT_TRUE(ctx.ApplyUpdate(&a, Delete(0, {10, 11}))->changed);
  Result<UpdateStats> stats = ctx.ApplyUpdate(&a, Delete(0, {11, 10}));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->edges_removed, 1);
  // Affected vertices: within distance 2 of {10, 11} in the old graph
  // (8..13) — the cycle is long enough that old ∪ new adds nothing.
  EXPECT_EQ(stats->clusters_rebuilt, 6);
  Graph rebuilt_graph = BuildGaifmanGraph(a);
  NeighborhoodCover rebuilt = ExactBallCover(rebuilt_graph, 2);
  const NeighborhoodCover& repaired = ctx.Cover(2, CoverBackend::kExact);
  EXPECT_EQ(repaired.clusters, rebuilt.clusters);
}

TEST(ApplyUpdate, SparseCoverStaysValidUnderUpdates) {
  Rng rng(3);
  Structure a = EncodeGraph(MakeRandomBoundedDegree(80, 3, &rng));
  EvalContext ctx(a);
  ctx.Cover(1, CoverBackend::kSparse);
  for (int step = 0; step < 40; ++step) {
    ElemId u = static_cast<ElemId>(rng.NextBelow(a.universe_size()));
    ElemId v = static_cast<ElemId>(rng.NextBelow(a.universe_size()));
    TupleUpdate update =
        rng.NextBool(0.5) ? Insert(0, {u, v}) : Delete(0, {u, v});
    ASSERT_TRUE(ctx.ApplyUpdate(&a, update).ok());
    // The repaired cover need not match a greedy rebuild bit-for-bit, but it
    // must still be a valid (r, 2r)-cover of the *current* Gaifman graph
    // (CheckCoverInvariants aborts on violation).
    auto it_cover = ctx.Cover(1, CoverBackend::kSparse);
    CheckCoverInvariants(BuildGaifmanGraph(a), it_cover);
  }
}

TEST(ApplyUpdate, SphereRepairYieldsRebuildEquivalentPartition) {
  Structure a = PathWithReds(60, 21);
  EvalContext ctx(a);
  ctx.SphereTypes(1);
  const SymbolId red = *a.signature().Find("R");
  ASSERT_TRUE(ctx.ApplyUpdate(&a, Insert(0, {12, 30}))->changed);
  ASSERT_TRUE(ctx.ApplyUpdate(&a, Insert(red, {45})).ok());
  ASSERT_TRUE(ctx.ApplyUpdate(&a, Delete(0, {12, 30})).ok());

  const SphereTypeAssignment& repaired = ctx.SphereTypes(1);
  Graph g = BuildGaifmanGraph(a);
  SphereTypeAssignment rebuilt = ComputeSphereTypes(a, g, 1);
  ASSERT_EQ(repaired.type_of.size(), rebuilt.type_of.size());
  // Type ids may be numbered differently (the repaired registry only grows),
  // but the induced partition must be identical: two elements share a type
  // after repair iff they share one after a cold rebuild.
  for (ElemId x = 0; x < a.universe_size(); ++x) {
    for (ElemId y = x + 1; y < a.universe_size(); ++y) {
      EXPECT_EQ(repaired.type_of[x] == repaired.type_of[y],
                rebuilt.type_of[x] == rebuilt.type_of[y])
          << "elements " << x << ", " << y;
    }
  }
}

TEST(ApplyUpdate, NoopUpdateLeavesCachesUntouched) {
  Structure a = EncodeGraph(MakePath(20));
  EvalContext ctx(a);
  ctx.Cover(1, CoverBackend::kExact);
  MetricsSink sink;
  ArtifactOptions opts;
  opts.metrics = &sink;
  // E(0,1) already holds: inserting it again must change nothing.
  Result<UpdateStats> stats = ctx.ApplyUpdate(&a, Insert(0, {0, 1}), opts);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->changed);
  EXPECT_EQ(stats->clusters_rebuilt, 0);
  EvalMetrics m = sink.Snapshot();
  EXPECT_EQ(m.counters["update.noops"], 1);
  EXPECT_EQ(m.counters.count("update.repairs"), 0u);
}

TEST(ApplyUpdate, SelfLoopTupleAddsNoGaifmanEdges) {
  Structure a = EncodeGraph(MakePath(10));
  EvalContext ctx(a);
  ctx.Cover(1, CoverBackend::kExact);
  Result<UpdateStats> stats = ctx.ApplyUpdate(&a, Insert(0, {4, 4}));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->changed);  // the tuple is new ...
  EXPECT_EQ(stats->edges_added, 0);  // ... but Gaifman ignores self-loops
  EXPECT_EQ(stats->clusters_rebuilt, 0);
  const NeighborhoodCover& repaired = ctx.Cover(1, CoverBackend::kExact);
  NeighborhoodCover rebuilt = ExactBallCover(BuildGaifmanGraph(a), 1);
  EXPECT_EQ(repaired.clusters, rebuilt.clusters);
}

TEST(ApplyUpdate, EmptyStructureGrowsFromNothing) {
  Structure a(Signature({{"E", 2}}), 3);  // no tuples at all
  EvalContext ctx(a);
  ctx.Cover(1, CoverBackend::kExact);
  ctx.SphereTypes(1);
  Result<UpdateStats> stats = ctx.ApplyUpdate(&a, Insert(0, {0, 2}));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->changed);
  EXPECT_EQ(stats->edges_added, 1);
  NeighborhoodCover rebuilt = ExactBallCover(BuildGaifmanGraph(a), 1);
  EXPECT_EQ(ctx.Cover(1, CoverBackend::kExact).clusters, rebuilt.clusters);
}

TEST(ApplyUpdate, NullaryUpdateDropsSphereEntriesButKeepsCovers) {
  Structure a = EncodeGraph(MakePath(12));
  a.AddNullarySymbol("Q", false);
  const SymbolId q = *a.signature().Find("Q");
  EvalContext ctx(a);
  const NeighborhoodCover& cover = ctx.Cover(1, CoverBackend::kExact);
  ctx.SphereTypes(1);
  MetricsSink sink;
  ArtifactOptions opts;
  opts.metrics = &sink;
  Result<UpdateStats> stats = ctx.ApplyUpdate(&a, Insert(q, {}), opts);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->changed);
  EXPECT_EQ(stats->artifacts_invalidated, 1);
  EXPECT_EQ(sink.Snapshot().counters["cache.invalidated.spheres"], 1);
  // Covers survive (nullary facts never touch the Gaifman graph) — the
  // reference is still the same object.
  EXPECT_EQ(&cover, &ctx.Cover(1, CoverBackend::kExact));
  // The re-built sphere entry reflects the new nullary fact.
  const SphereTypeAssignment& fresh = ctx.SphereTypes(1);
  SphereTypeAssignment rebuilt = ComputeSphereTypes(a, BuildGaifmanGraph(a), 1);
  EXPECT_EQ(fresh.type_of, rebuilt.type_of);
}

TEST(ApplyUpdate, ValidationFailuresLeaveEverythingUntouched) {
  Structure a = EncodeGraph(MakePath(5));
  EvalContext ctx(a);
  ctx.Cover(1, CoverBackend::kExact);
  EXPECT_EQ(ctx.ApplyUpdate(&a, Insert(7, {0, 1})).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ctx.ApplyUpdate(&a, Insert(0, {0})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ctx.ApplyUpdate(&a, Insert(0, {0, 99})).status().code(),
            StatusCode::kOutOfRange);
  Structure other = EncodeGraph(MakePath(5));
  EXPECT_EQ(ctx.ApplyUpdate(&other, Insert(0, {0, 1})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.relation(0).NumTuples(), 8u);  // 4 path edges, both orientations
}

TEST(Session, ReadOnlySessionRejectsUpdates) {
  Structure a = EncodeGraph(MakePath(5));
  Session session(static_cast<const Structure&>(a));
  EXPECT_EQ(session.ApplyUpdate(Insert(0, {0, 2})).status().code(),
            StatusCode::kUnsupported);
}

// The headline correctness bar: after any update sequence, warm incremental
// answers are bit-identical to a cold rebuild for every engine and thread
// count (0 = all hardware threads, 1 = serial, 4 = fixed fan-out).
TEST(Session, IncrementalAnswersMatchColdRebuildAcrossThreadCounts) {
  const Formula condition =
      *ParseFormula("@ge1(#(y). (E(x, y) & R(y)) - 1)");
  std::vector<TupleUpdate> script;
  {
    Structure probe = PathWithReds(40, 5);
    const SymbolId red = *probe.signature().Find("R");
    script = {Insert(0, {3, 17}),  Insert(0, {17, 3}), Delete(0, {8, 9}),
              Insert(red, {12}),   Delete(0, {9, 8}),  Delete(red, {12}),
              Insert(0, {20, 22}), Insert(0, {22, 20})};
  }
  for (int threads : {0, 1, 4}) {
    for (TermEngine term_engine :
         {TermEngine::kBall, TermEngine::kSparseCover,
          TermEngine::kExactCover}) {
      Structure live = PathWithReds(40, 5);
      EvalOptions options;
      options.term_engine = term_engine;
      options.num_threads = threads;
      Session session(&live, options);
      ASSERT_TRUE(session.CountSolutions(condition).ok());  // prime the cache
      Structure cold_copy = PathWithReds(40, 5);
      for (const TupleUpdate& u : script) {
        Result<UpdateStats> applied = session.ApplyUpdate(u);
        ASSERT_TRUE(applied.ok());
        Result<bool> mirrored = ApplyToStructure(&cold_copy, u);
        ASSERT_TRUE(mirrored.ok());
        EXPECT_EQ(applied->changed, *mirrored);
        Result<CountInt> warm = session.CountSolutions(condition);
        EvalOptions cold_options = options;
        cold_options.engine = Engine::kNaive;
        Result<CountInt> cold = CountSolutions(condition, cold_copy,
                                               cold_options);
        ASSERT_TRUE(warm.ok());
        ASSERT_TRUE(cold.ok());
        EXPECT_EQ(*warm, *cold)
            << "threads=" << threads
            << " update=" << UpdateToString(u, live.signature());
      }
    }
  }
}

}  // namespace
}  // namespace focq
