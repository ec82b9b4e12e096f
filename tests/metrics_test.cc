// Observability tests: the sharded-counter aggregation protocol, trace span
// nesting, JSON export sanity, and — the key property — that installing a
// metrics/trace sink never changes results, and that all deterministic
// counters are identical for every num_threads (DESIGN.md, "Observability").
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "focq/core/api.h"
#include "focq/eval/query.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/obs/metrics.h"
#include "focq/obs/trace.h"
#include "focq/structure/encode.h"
#include "focq/util/thread_pool.h"
#include "test_util.h"

namespace focq {
namespace {

TEST(ShardedCounter, TotalIsChunkingIndependent) {
  // Sum of i over [0, n), accumulated per-chunk under every grid the
  // evaluation engines might use: the total must match the serial sum.
  const std::size_t n = 1000;
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) expected += static_cast<std::int64_t>(i);
  for (int workers : {0, 1, 2, 4, 8}) {
    ChunkGrid grid = MakeChunkGrid(n, EffectiveThreads(workers));
    ShardedCounter counter(grid.num_chunks);
    ParallelFor(workers, n,
                [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) {
                    counter.Add(chunk, static_cast<std::int64_t>(i));
                  }
                });
    EXPECT_EQ(counter.Total(), expected) << "workers=" << workers;
  }
}

TEST(ShardedCounter, FlushToIsNullSafeAndAdditive) {
  ShardedCounter counter(4);
  counter.Add(0, 2);
  counter.Add(3, 5);
  counter.FlushTo(nullptr, "x");  // must not crash
  MetricsSink sink;
  counter.FlushTo(&sink, "x");
  counter.FlushTo(&sink, "x");  // flushes accumulate like AddCounter
  EXPECT_EQ(sink.Counter("x"), 14);
}

TEST(MetricsSink, CounterMaxAndValueSemantics) {
  MetricsSink sink;
  sink.AddCounter("a", 3);
  sink.AddCounter("a", 4);
  sink.MaxCounter("hi", 5);
  sink.MaxCounter("hi", 2);  // below the high-water mark: no effect
  sink.RecordValue("v", 10);
  sink.RecordValue("v", -2);
  EXPECT_EQ(sink.Counter("a"), 7);
  EXPECT_EQ(sink.Counter("hi"), 5);
  EXPECT_EQ(sink.Counter("missing"), 0);
  EvalMetrics snap = sink.Snapshot();
  ASSERT_EQ(snap.values.count("v"), 1u);
  EXPECT_EQ(snap.values["v"].count, 2);
  EXPECT_EQ(snap.values["v"].sum, 8);
  EXPECT_EQ(snap.values["v"].min, -2);
  EXPECT_EQ(snap.values["v"].max, 10);
  sink.Reset();
  EXPECT_EQ(sink.Counter("a"), 0);
  EXPECT_TRUE(sink.Snapshot().counters.empty());
}

TEST(ValueStats, QuantileOfEmptyStreamIsZero) {
  ValueStats empty;
  for (double q : {-1.0, 0.0, 0.5, 1.0, 2.0}) {
    EXPECT_EQ(empty.Quantile(q), 0.0) << "q=" << q;
  }
}

TEST(ValueStats, QuantileOfSingleSampleIsThatSample) {
  // One sample lands mid-bucket (42 in [32, 63]): naive interpolation would
  // report the bucket edge, but the [min, max] clamp pins every quantile to
  // the exact sample.
  ValueStats one;
  one.Record(42);
  for (double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(one.Quantile(q), 42.0) << "q=" << q;
  }
}

TEST(ValueStats, QuantileIsExactWhenAllSamplesShareABucket) {
  // 100 samples of 5 all land in bucket [4, 7]; interpolation spreads the
  // rank across the bucket range but the min/max envelope collapses it.
  ValueStats same;
  for (int i = 0; i < 100; ++i) same.Record(5);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(same.Quantile(q), 5.0) << "q=" << q;
  }
}

TEST(ValueStats, QuantileClampsOutOfRangeQToMinMax) {
  ValueStats mixed;
  mixed.Record(1);
  mixed.Record(100);
  EXPECT_EQ(mixed.Quantile(-0.5), 1.0);
  EXPECT_EQ(mixed.Quantile(0.0), 1.0);
  EXPECT_EQ(mixed.Quantile(1.0), 100.0);
  EXPECT_EQ(mixed.Quantile(7.0), 100.0);
  // Interior quantiles stay inside the envelope.
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_GE(mixed.Quantile(q), 1.0) << "q=" << q;
    EXPECT_LE(mixed.Quantile(q), 100.0) << "q=" << q;
  }
}

TEST(MetricsSink, ToJsonEscapesNames) {
  MetricsSink sink;
  sink.AddCounter("quote\"back\\slash\nnewline", 1);
  sink.RecordValue("plain", 3);
  std::string json = sink.Snapshot().ToJson();
  EXPECT_NE(json.find("\\\"back\\\\slash\\n"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"values\""), std::string::npos);
  EXPECT_NE(json.find("\"plain\": {\"count\": 1, \"sum\": 3, \"min\": 3, "
                      "\"max\": 3, \"mean\": 3, \"p50\": 3, \"p95\": 3, "
                      "\"p99\": 3}"),
            std::string::npos);
}

TEST(TraceSink, SpansNestAndAggregate) {
  TraceSink sink;
  {
    ScopedSpan outer(&sink, "outer");
    { ScopedSpan inner(&sink, "inner"); }
    { ScopedSpan inner(&sink, "inner"); }
  }
  { ScopedSpan null_safe(nullptr, "never"); }  // must not crash
  std::vector<TraceSpan> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "outer");
  ASSERT_EQ(spans[0].children.size(), 2u);
  EXPECT_EQ(spans[0].children[0].name, "inner");
  // Children live inside the parent interval, in start order.
  EXPECT_GE(spans[0].children[0].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[0].children[1].start_ns + spans[0].children[1].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
  std::map<std::string, std::int64_t> agg = sink.AggregateNanos();
  ASSERT_EQ(agg.count("inner"), 1u);
  EXPECT_GE(agg["outer"],
            spans[0].children[0].duration_ns + spans[0].children[1].duration_ns);
  EXPECT_NE(sink.ToJson().find("\"spans\""), std::string::npos);
  EXPECT_NE(sink.ToChromeTracing().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(sink.ToChromeTracing().find("\"ph\": \"X\""), std::string::npos);
}

// phi(x): width-2, nesting-depth-2 condition exercising compile, cover /
// ball cl-term evaluation, and the residual formula.
Formula ObservedCondition() {
  Var x = VarNamed("obx"), y = VarNamed("oby"), z = VarNamed("obz");
  Formula deg2 = TermEq(Count({z}, Atom("E", {y, z})), Int(2));
  return Ge1(Sub(Count({y}, And(Atom("E", {x, y}), deg2)), Int(1)));
}

TEST(TraceSink, SurplusEndIsTolerated) {
  TraceSink sink;
  sink.End();  // nothing open: must be a no-op, not a crash
  sink.Begin("outer");
  sink.Begin("inner");
  sink.End();
  sink.End();
  sink.End();  // surplus again, after a balanced forest
  sink.Begin("second");
  sink.End();
  std::vector<TraceSpan> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  ASSERT_EQ(spans[0].children.size(), 1u);
  EXPECT_EQ(spans[0].children[0].name, "inner");
  EXPECT_EQ(spans[1].name, "second");
  EXPECT_TRUE(spans[1].children.empty());
}

TEST(TraceSink, WorkerSlicesTagChunks) {
  constexpr std::size_t kItems = 64;
  constexpr int kThreads = 4;
  TraceSink sink;
  std::vector<int> out(kItems, 0);
  {
    ScopedSpan span(&sink, "fanout");
    ParallelFor(kThreads, kItems,
                [&](std::size_t, std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) out[i] = 1;
                });
  }
  for (int v : out) EXPECT_EQ(v, 1);
  // One slice per chunk of the same grid the loop ran over, each named after
  // the innermost open span and assigned a lane in [0, workers].
  ChunkGrid grid = MakeChunkGrid(kItems, kThreads);
  std::vector<WorkerSlice> slices = sink.Slices();
  ASSERT_EQ(slices.size(), grid.num_chunks);
  for (const WorkerSlice& slice : slices) {
    EXPECT_EQ(slice.span_name, "fanout");
    EXPECT_GE(slice.tid, 0);
    EXPECT_LE(slice.tid, EffectiveThreads(kThreads));
    EXPECT_GE(slice.duration_ns, 0);
  }
  // The Chrome export names the worker lanes and keeps spans at tid 0.
  std::string chrome = sink.ToChromeTracing();
  EXPECT_NE(chrome.find("thread_name"), std::string::npos);
  EXPECT_NE(chrome.find("fanout.chunk"), std::string::npos);

  // Outside any ParallelFor the observer must be uninstalled again: a second
  // loop with no open span records no further slices.
  ParallelFor(kThreads, kItems,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) out[i] = 2;
              });
  EXPECT_EQ(sink.Slices().size(), grid.num_chunks);
}

TEST(Observability, SinksDoNotChangeResults) {
  Rng rng(4100);
  Structure a = test::RandomGraphStructure(60, 1.5, &rng);
  Formula phi = ObservedCondition();
  for (TermEngine te : {TermEngine::kBall, TermEngine::kSparseCover}) {
    EvalOptions plain;
    plain.term_engine = te;
    Result<CountInt> bare = CountSolutions(phi, a, plain);
    ASSERT_TRUE(bare.ok()) << bare.status().ToString();
    MetricsSink metrics;
    TraceSink trace;
    EvalOptions observed;
    observed.term_engine = te;
    observed.metrics = &metrics;
    observed.trace = &trace;
    Result<CountInt> traced = CountSolutions(phi, a, observed);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    EXPECT_EQ(*bare, *traced);
    EXPECT_GT(metrics.Counter("plan.compilations"), 0);
    EXPECT_FALSE(trace.Spans().empty());
  }
}

TEST(Observability, CountersIdenticalAcrossThreadCounts) {
  // The determinism contract, extended to counters: every recorded counter
  // and value distribution is a pure function of (structure, query), so the
  // snapshots must be identical for num_threads in {0, 1, 4}. Pool stats are
  // scheduling-dependent and deliberately NOT recorded in the sink.
  Rng rng(4200);
  Structure a = test::RandomColoredStructure(80, 1.6, 0.4, &rng);
  Formula phi = ObservedCondition();
  for (TermEngine te : {TermEngine::kBall, TermEngine::kSparseCover}) {
    EvalMetrics reference;
    CountInt reference_count = 0;
    bool first = true;
    for (int threads : {0, 1, 4}) {
      MetricsSink metrics;
      EvalOptions options;
      options.term_engine = te;
      options.num_threads = threads;
      options.metrics = &metrics;
      Result<CountInt> count = CountSolutions(phi, a, options);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EvalMetrics snap = metrics.Snapshot();
      if (first) {
        reference = snap;
        reference_count = *count;
        first = false;
        EXPECT_FALSE(snap.counters.empty());
        continue;
      }
      EXPECT_EQ(*count, reference_count) << "threads=" << threads;
      EXPECT_EQ(snap.counters, reference.counters) << "threads=" << threads;
      EXPECT_EQ(snap.values, reference.values) << "threads=" << threads;
    }
  }
}

TEST(Observability, NaiveTupleCountMatchesAcrossThreadCounts) {
  Rng rng(4300);
  Structure a = test::RandomGraphStructure(40, 1.4, &rng);
  Formula phi = ObservedCondition();
  std::int64_t reference = -1;
  for (int threads : {0, 1, 4}) {
    MetricsSink metrics;
    EvalOptions options;
    options.engine = Engine::kNaive;
    options.num_threads = threads;
    options.metrics = &metrics;
    Result<CountInt> count = CountSolutions(phi, a, options);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    std::int64_t tuples = metrics.Counter("naive.tuples_enumerated");
    EXPECT_GT(tuples, 0);
    if (reference < 0) {
      reference = tuples;
    } else {
      EXPECT_EQ(tuples, reference) << "threads=" << threads;
    }
  }
}

TEST(Observability, QueryResultCarriesSnapshot) {
  Rng rng(4400);
  Structure a = test::RandomColoredStructure(30, 1.4, 0.4, &rng);
  Var x = VarNamed("oqx"), y = VarNamed("oqy");
  Foc1Query q;
  q.head_vars = {x};
  q.head_terms = {Count({y}, Atom("E", {x, y}))};
  q.condition = Atom("R", {x});
  MetricsSink metrics;
  EvalOptions options;
  options.metrics = &metrics;
  Result<QueryResult> with_sink = EvaluateQuery(q, a, options);
  ASSERT_TRUE(with_sink.ok()) << with_sink.status().ToString();
  EXPECT_EQ(with_sink->metrics.counters, metrics.Snapshot().counters);
  EXPECT_GT(with_sink->metrics.counters.count("plan.compilations"), 0u);
  // No sink installed: the snapshot stays empty, the rows stay the same.
  Result<QueryResult> without = EvaluateQuery(q, a, EvalOptions{});
  ASSERT_TRUE(without.ok());
  EXPECT_TRUE(without->metrics.counters.empty());
  EXPECT_EQ(without->rows, with_sink->rows);
}

TEST(MetricsSink, MergeValueMatchesPerSampleRecording) {
  // The batched path (local ValueStats + one MergeValue) must be
  // bit-identical to recording every sample individually — that is what
  // keeps the aggregated cover/hanf distributions inside the deterministic-
  // counters contract.
  std::vector<std::int64_t> samples = {5, -3, 12, 12, 0, 7, -3, 40};
  MetricsSink per_sample;
  MetricsSink batched;
  ValueStats first_half, second_half;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    per_sample.RecordValue("dist", samples[i]);
    (i < samples.size() / 2 ? first_half : second_half).Record(samples[i]);
  }
  batched.MergeValue("dist", first_half);
  batched.MergeValue("dist", second_half);
  EXPECT_TRUE(per_sample.Snapshot().values == batched.Snapshot().values);
  // Merging an empty batch neither creates an entry nor perturbs one.
  MetricsSink empty;
  empty.MergeValue("dist", ValueStats{});
  EXPECT_TRUE(empty.Snapshot().values.empty());
  batched.MergeValue("dist", ValueStats{});
  EXPECT_TRUE(per_sample.Snapshot().values == batched.Snapshot().values);
}

TEST(Observability, PoolStatsAreMonotonic) {
  // Scheduling-dependent pool totals live outside the sink; they are read
  // directly off the shared pool and only ever grow.
  ThreadPool::Stats before = ThreadPool::Shared().GetStats();
  Rng rng(4500);
  Structure a = test::RandomGraphStructure(60, 1.5, &rng);
  EvalOptions options;
  options.num_threads = 4;
  Result<CountInt> count = CountSolutions(ObservedCondition(), a, options);
  ASSERT_TRUE(count.ok());
  ThreadPool::Stats after = ThreadPool::Shared().GetStats();
  // Four workers over 60 elements fan out, so the pool sees new tasks.
  EXPECT_GT(after.tasks_submitted, before.tasks_submitted);
  EXPECT_GE(after.tasks_executed, before.tasks_executed);
  // ParallelFor joins on chunk completion, not task completion: the caller
  // can drain every chunk before a helper task ever runs, so executed only
  // bounds submitted from below.
  EXPECT_LE(after.tasks_executed, after.tasks_submitted);
}

}  // namespace
}  // namespace focq
