// E13 -- cross-query artifact caching: the same query evaluated cold (a
// fresh context per evaluation, so the Gaifman graph and every cover are
// rebuilt each time) versus warm (one Session amortising the artifacts over
// the whole batch). The ball engine's artifacts are exact covers too: its
// per-radius ball tables. The time gap is the artifact-build share of query
// latency; the counters prove the warm path really skips the rebuilds
// (gaifman_builds_per_query = 0, cache_hits > 0) — CI's bench_session smoke
// step asserts exactly that on BENCH_session.json. Every counter is per
// iteration (one query, or one batch for BM_BatchVsLoop): each iteration
// does the same work, so the figure does not depend on how many iterations
// the timing loop ran.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/parser.h"
#include "focq/structure/encode.h"
#include "focq/util/rng.h"

namespace focq {
namespace {

// E16 knob: FOCQ_BENCH_WATCHDOG=1 installs a ProgressSink and arms a
// generous hard deadline on every run, so diffing a knobbed run against a
// plain one measures the progress/watchdog overhead (EXPERIMENTS.md E16).
// Off (the default) the benchmark is byte-for-byte the baseline workload.
bool WatchdogEnabled() {
  const char* v = std::getenv("FOCQ_BENCH_WATCHDOG");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

void MaybeArmWatchdog(EvalOptions* options, ProgressSink* progress) {
  if (!WatchdogEnabled()) return;
  options->progress = progress;
  options->deadline = Deadline{0, 3'600'000};
}

Structure MakeInput(std::size_t n) {
  Rng rng(4242);
  Structure a = EncodeGraph(MakeRandomBoundedDegree(n, 4, &rng));
  std::vector<ElemId> reds;
  for (ElemId e = 0; e < a.universe_size(); ++e) {
    if (rng.NextBool(0.3)) reds.push_back(e);
  }
  a.AddUnarySymbol("R", reds);
  return a;
}

// Condition at radius 1, head terms at radii 1 and 2: the cover engines pull
// three distinct artifacts (graph + two covers) from the cache, the ball
// engine four (graph + ball tables at r = 1, 2 and 3: the separations 1 and
// 3 and the kernel bound 2).
Foc1Query MakeQuery() {
  Foc1Query q;
  q.head_vars = {VarNamed("x")};
  q.condition = *ParseFormula("@ge1(#(y). (E(x, y)) - 2)");
  q.head_terms = {*ParseTerm("#(y). (E(x, y))"),
                  *ParseTerm("#(y). (dist(y, x) <= 2)")};
  return q;
}

TermEngine TermEngineFromRange(int v) {
  switch (v) {
    case 0: return TermEngine::kBall;
    case 1: return TermEngine::kSparseCover;
    default: return TermEngine::kExactCover;
  }
}

const char* TermEngineName(int v) {
  switch (v) {
    case 0: return "ball";
    case 1: return "sparse_cover";
    default: return "exact_cover";
  }
}

// One query per iteration with no shared context: every evaluation pays for
// its own Gaifman graph and covers. The baseline the Session amortises.
void BM_QueryCold(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure a = MakeInput(n);
  Foc1Query q = MakeQuery();
  MetricsSink metrics;
  EvalOptions options;
  options.term_engine = TermEngineFromRange(static_cast<int>(state.range(1)));
  options.metrics = &metrics;
  ProgressSink progress;
  MaybeArmWatchdog(&options, &progress);
  for (auto _ : state) {
    Result<QueryResult> r = EvaluateQuery(q, a, options);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(TermEngineName(static_cast<int>(state.range(1))));
  state.counters["n"] = static_cast<double>(n);
  if (state.iterations() > 0) {
    double iters = static_cast<double>(state.iterations());
    state.counters["gaifman_builds_per_query"] =
        static_cast<double>(metrics.Counter("gaifman.builds")) / iters;
    state.counters["cover_builds_per_query"] =
        static_cast<double>(metrics.Counter("cover.builds")) / iters;
    state.counters["cache_hits"] =
        static_cast<double>(metrics.Counter("ctx.cache.hits")) / iters;
  }
}

// The same query through one Session, primed before timing: warm iterations
// must rebuild nothing (per-query build counters exactly zero) and hit the
// cache instead.
void BM_QueryWarm(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure a = MakeInput(n);
  Foc1Query q = MakeQuery();
  MetricsSink metrics;
  EvalOptions options;
  options.term_engine = TermEngineFromRange(static_cast<int>(state.range(1)));
  options.metrics = &metrics;
  ProgressSink progress;
  MaybeArmWatchdog(&options, &progress);
  Session session(a, options);
  {
    Result<QueryResult> prime = session.EvaluateQuery(q);
    if (!prime.ok()) state.SkipWithError(prime.status().ToString().c_str());
  }
  std::int64_t gaifman_before = metrics.Counter("gaifman.builds");
  std::int64_t cover_before = metrics.Counter("cover.builds");
  std::int64_t hits_before = metrics.Counter("ctx.cache.hits");
  for (auto _ : state) {
    Result<QueryResult> r = session.EvaluateQuery(q);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(TermEngineName(static_cast<int>(state.range(1))));
  state.counters["n"] = static_cast<double>(n);
  if (state.iterations() > 0) {
    double iters = static_cast<double>(state.iterations());
    state.counters["gaifman_builds_per_query"] =
        static_cast<double>(metrics.Counter("gaifman.builds") -
                            gaifman_before) / iters;
    state.counters["cover_builds_per_query"] =
        static_cast<double>(metrics.Counter("cover.builds") - cover_before) /
        iters;
    state.counters["cache_hits"] =
        static_cast<double>(metrics.Counter("ctx.cache.hits") - hits_before) /
        iters;
  }
}

// Whole-batch view: EvaluateQueries over a mixed workload against the
// per-query cold loop. The batch builds each artifact once, the loop once
// per query.
void BM_BatchVsLoop(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  bool batched = state.range(1) != 0;
  Structure a = MakeInput(n);
  std::vector<Foc1Query> queries;
  queries.push_back(MakeQuery());
  {
    Foc1Query q;
    q.condition = *ParseFormula("exists x. (R(x))");
    q.head_terms = {*ParseTerm("#(x). (@ge1(#(y). (E(x, y)) - 3))")};
    queries.push_back(q);
  }
  queries.push_back(MakeQuery());
  queries.push_back(queries[1]);
  MetricsSink metrics;
  EvalOptions options;
  options.term_engine = TermEngine::kSparseCover;
  options.metrics = &metrics;
  ProgressSink progress;
  MaybeArmWatchdog(&options, &progress);
  for (auto _ : state) {
    if (batched) {
      std::vector<Result<QueryResult>> rs = EvaluateQueries(queries, a, options);
      for (const Result<QueryResult>& r : rs) {
        if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
      }
      benchmark::DoNotOptimize(rs);
    } else {
      for (const Foc1Query& q : queries) {
        Result<QueryResult> r = EvaluateQuery(q, a, options);
        if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
        benchmark::DoNotOptimize(r);
      }
    }
  }
  state.SetLabel(batched ? "batch" : "loop");
  state.counters["n"] = static_cast<double>(n);
  state.counters["queries"] = static_cast<double>(queries.size());
  if (state.iterations() > 0) {
    double iters = static_cast<double>(state.iterations());
    state.counters["gaifman_builds_per_batch"] =
        static_cast<double>(metrics.Counter("gaifman.builds")) / iters;
    state.counters["cache_hits"] =
        static_cast<double>(metrics.Counter("ctx.cache.hits")) / iters;
  }
}

void ColdWarmArgs(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {1024, 8192}) {
    for (std::int64_t engine : {0, 1, 2}) b->Args({n, engine});
  }
}

BENCHMARK(BM_QueryCold)->Apply(ColdWarmArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QueryWarm)->Apply(ColdWarmArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchVsLoop)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({8192, 0})
    ->Args({8192, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace focq
