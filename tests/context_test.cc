// The cross-query artifact cache: EvalContext keying/laziness, the
// one-Gaifman-build-per-query guarantee, Session/EvaluateQueries batch
// amortisation, and the cold-vs-warm bit-identity contract.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "focq/core/api.h"
#include "focq/core/removal_engine.h"
#include "focq/eval/naive_eval.h"
#include "focq/graph/generators.h"
#include "focq/hanf/hanf_eval.h"
#include "focq/logic/build.h"
#include "focq/logic/parser.h"
#include "focq/structure/encode.h"
#include "focq/structure/gaifman.h"
#include "focq/util/rng.h"

namespace focq {
namespace {

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

Foc1Query DegreeQuery() {
  // Unary query with two head terms: the shape that used to build one
  // Gaifman graph per plan execution (condition + each head term).
  Foc1Query q;
  q.head_vars = {VarNamed("x")};
  q.condition = *ParseFormula("@ge1(#(y). (E(x, y)) - 1)");
  q.head_terms = {*ParseTerm("#(y). (E(x, y))"),
                  *ParseTerm("#(y). (dist(y, x) <= 2)")};
  return q;
}

TEST(EvalContext, ArtifactsAreCachedByKeyWithStableReferences) {
  Structure a = PathWithReds(40, 7);
  EvalContext ctx(a);
  EXPECT_EQ(&ctx.structure(), &a);

  const Graph& g1 = ctx.Gaifman();
  const Graph& g2 = ctx.Gaifman();
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(g1.num_vertices(), a.universe_size());

  const NeighborhoodCover& sparse1 = ctx.Cover(1, CoverBackend::kSparse);
  const NeighborhoodCover& exact1 = ctx.Cover(1, CoverBackend::kExact);
  const NeighborhoodCover& sparse2 = ctx.Cover(2, CoverBackend::kSparse);
  EXPECT_NE(&sparse1, &exact1);  // backend is part of the key
  EXPECT_NE(&sparse1, &sparse2);  // radius is part of the key
  EXPECT_EQ(&sparse1, &ctx.Cover(1, CoverBackend::kSparse));
  EXPECT_EQ(&exact1, &ctx.Cover(1, CoverBackend::kExact));

  const SphereTypeAssignment& t1 = ctx.SphereTypes(1);
  EXPECT_EQ(&t1, &ctx.SphereTypes(1));
  EXPECT_NE(&t1, &ctx.SphereTypes(2));

  EvalContext::CacheStats stats = ctx.cache_stats();
  // 1 graph + 3 covers + 2 typings built; the four repeat lookups above hit
  // (internal Gaifman reuse by the cover/sphere builders records no hits).
  EXPECT_EQ(stats.misses, 6);
  EXPECT_EQ(stats.hits, 4);
  EXPECT_GT(stats.bytes, 0);
}

TEST(EvalContext, CacheCountersReachTheSink) {
  Structure a = PathWithReds(30, 9);
  EvalContext ctx(a);
  MetricsSink sink;
  ArtifactOptions opts;
  opts.metrics = &sink;
  ctx.Cover(1, CoverBackend::kSparse, opts);
  ctx.Cover(1, CoverBackend::kSparse, opts);
  // First call: graph + cover misses; second: one hit.
  EXPECT_EQ(sink.Counter("ctx.cache.misses"), 2);
  EXPECT_EQ(sink.Counter("ctx.cache.hits"), 1);
  EXPECT_EQ(sink.Counter("gaifman.builds"), 1);
  EXPECT_EQ(sink.Counter("cover.builds"), 1);
  EXPECT_EQ(sink.Counter("ctx.cache.bytes"), ctx.cache_stats().bytes);
}

TEST(EvalContext, OneQueryTriggersExactlyOneGaifmanBuild) {
  Structure a = PathWithReds(30, 11);
  Foc1Query q = DegreeQuery();
  MetricsSink sink;
  EvalOptions options;
  options.metrics = &sink;
  Result<QueryResult> r = EvaluateQuery(q, a, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Condition plus two head-term executions share one query-local context:
  // the graph is built once, not once per plan.
  EXPECT_EQ(sink.Counter("gaifman.builds"), 1);
}

TEST(EvalContext, MultiHeadQueryAlsoBuildsOnce) {
  Structure a = PathWithReds(20, 13);
  Foc1Query q;
  q.head_vars = {VarNamed("x"), VarNamed("y")};
  q.condition = *ParseFormula("E(x, y)");
  q.head_terms = {*ParseTerm("#(z). (E(x, z))")};
  MetricsSink sink;
  EvalOptions options;
  options.metrics = &sink;
  Result<QueryResult> r = EvaluateQuery(q, a, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(sink.Counter("gaifman.builds"), 1);
}

TEST(Session, WarmResultsAreBitIdenticalToColdForEveryVariant) {
  Structure a = PathWithReds(36, 17);
  Foc1Query q = DegreeQuery();
  for (TermEngine term_engine : {TermEngine::kBall, TermEngine::kSparseCover,
                                 TermEngine::kExactCover}) {
    for (int threads : {0, 1, 4}) {
      EvalOptions options;
      options.term_engine = term_engine;
      options.num_threads = threads;
      Result<QueryResult> cold = EvaluateQuery(q, a, options);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();

      Session session(a, options);
      Result<QueryResult> first = session.EvaluateQuery(q);
      Result<QueryResult> warm = session.EvaluateQuery(q);
      ASSERT_TRUE(first.ok() && warm.ok());
      EXPECT_EQ(cold->rows, first->rows);
      EXPECT_EQ(cold->rows, warm->rows);
      EXPECT_GT(session.context().cache_stats().hits, 0);
    }
  }
}

TEST(Session, BatchPaysForEachArtifactOnce) {
  Structure a = PathWithReds(36, 19);
  // The cover engine's covers and the ball engine's ball tables alike.
  for (TermEngine term_engine : {TermEngine::kSparseCover, TermEngine::kBall}) {
    MetricsSink sink;
    EvalOptions options;
    options.term_engine = term_engine;
    options.metrics = &sink;
    Session session(a, options);

    Foc1Query q = DegreeQuery();
    ASSERT_TRUE(session.EvaluateQuery(q).ok());
    std::int64_t gaifman_builds = sink.Counter("gaifman.builds");
    std::int64_t cover_builds = sink.Counter("cover.builds");
    EXPECT_EQ(gaifman_builds, 1);
    EXPECT_GT(cover_builds, 0);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(session.EvaluateQuery(q).ok());
    }
    // Warm queries rebuild nothing: the build counters are flat.
    EXPECT_EQ(sink.Counter("gaifman.builds"), gaifman_builds);
    EXPECT_EQ(sink.Counter("cover.builds"), cover_builds);
    EXPECT_GT(session.context().cache_stats().hits, 0);
  }
}

TEST(EvaluateQueries, BatchSharesOneContextAndMatchesPerQueryResults) {
  Structure a = PathWithReds(28, 23);
  std::vector<Foc1Query> queries;
  queries.push_back(DegreeQuery());
  {
    Foc1Query q;
    q.condition = *ParseFormula("exists x. (R(x))");
    q.head_terms = {*ParseTerm("#(x). (R(x))")};
    queries.push_back(q);
  }
  queries.push_back(DegreeQuery());

  MetricsSink sink;
  EvalOptions options;
  options.term_engine = TermEngine::kSparseCover;
  options.metrics = &sink;
  std::vector<Result<QueryResult>> batch = EvaluateQueries(queries, a, options);
  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_EQ(sink.Counter("gaifman.builds"), 1);

  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    Result<QueryResult> solo = EvaluateQuery(queries[i], a, {});
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(batch[i]->rows, solo->rows) << "query " << i;
  }
}

TEST(HanfEvaluator, SphereTypeProviderMatchesRecompute) {
  Structure a = PathWithReds(50, 29);
  Graph gaifman = BuildGaifmanGraph(a);
  EvalContext ctx(a);
  Var x = VarNamed("x");
  Formula phi = Atom("R", {x});

  HanfEvaluator plain(a, gaifman);
  Result<CountInt> expected = plain.CountSatisfying(phi, x, 2);
  ASSERT_TRUE(expected.ok());

  MetricsSink sink;
  HanfEvaluator cached(a, gaifman, /*num_threads=*/1, &sink);
  cached.set_sphere_type_provider(
      [&ctx](std::uint32_t r) -> const SphereTypeAssignment& {
        return ctx.SphereTypes(r);
      });
  Result<CountInt> first = cached.CountSatisfying(phi, x, 2);
  Result<CountInt> second = cached.CountSatisfying(phi, x, 2);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *expected);
  EXPECT_EQ(*second, *expected);
  // First use builds the graph and the typing; the second is served warm.
  EXPECT_EQ(ctx.cache_stats().misses, 2);
  EXPECT_EQ(ctx.cache_stats().hits, 1);
  // Per-use counters are recorded on every evaluation, cached or not.
  EXPECT_EQ(sink.Counter("hanf.typings"), 2);
}

TEST(RemovalEngine, TopLevelCoverCanComeFromASharedContext) {
  Structure a = EncodeGraph(MakePath(60));
  Graph gaifman = BuildGaifmanGraph(a);
  Var y1 = VarNamed("rcy1"), y2 = VarNamed("rcy2");
  PatternGraph edge(2, 0);
  edge.SetEdge(0, 1);
  BasicClTerm basic{{y1, y2}, true, Atom("E", {y1, y2}), 0, edge};

  Result<std::vector<CountInt>> expected =
      EvaluateBasicWithRemoval(a, gaifman, basic);
  ASSERT_TRUE(expected.ok());

  EvalContext ctx(a);
  RemovalEngineOptions options;
  options.base_size = 8;
  options.context = &ctx;
  Result<std::vector<CountInt>> first =
      EvaluateBasicWithRemoval(a, gaifman, basic, options);
  Result<std::vector<CountInt>> second =
      EvaluateBasicWithRemoval(a, gaifman, basic, options);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *expected);
  EXPECT_EQ(*second, *expected);
  // The second evaluation reuses the top-level cover.
  EXPECT_GT(ctx.cache_stats().hits, 0);
}

}  // namespace
}  // namespace focq
