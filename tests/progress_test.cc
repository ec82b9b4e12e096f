// Live-observability suite: progress sink semantics, the deadline watchdog,
// cooperative cancellation end to end, the flight recorder ring, and the
// OpenMetrics text exporter.
//
// The determinism contract under test (DESIGN.md §3b): installing a
// ProgressSink never changes results when no deadline fires — bit-identical
// for every num_threads; a hard deadline yields a clean kDeadlineExceeded
// Status carrying the progress snapshot, never caches a partially built
// artifact, and a warm re-run after cancellation is bit-identical to a cold
// run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "focq/core/api.h"
#include "focq/core/context.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/obs/metrics.h"
#include "focq/obs/openmetrics.h"
#include "focq/obs/progress.h"
#include "focq/obs/recorder.h"
#include "focq/structure/encode.h"
#include "focq/util/rng.h"
#include "test_util.h"

namespace focq {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// The width-2 FOC1 condition of bench_scaling: "x has at least two
// neighbours of degree exactly 2".
Formula ScalingCondition() {
  Var x = VarNamed("px"), y = VarNamed("py"), z = VarNamed("pz");
  Formula deg2 = TermEq(Count({z}, Atom("E", {y, z})), Int(2));
  return Ge1(Sub(Count({y}, And(Atom("E", {x, y}), deg2)), Int(1)));
}

// --- ProgressSink counters -------------------------------------------------

TEST(ProgressSinkTest, CountersAreMonotoneAndPerPhase) {
  ProgressSink sink;
  EXPECT_EQ(sink.Get(ProgressPhase::kCover).done, 0);
  EXPECT_EQ(sink.Get(ProgressPhase::kCover).total, 0);

  sink.AddTotal(ProgressPhase::kCover, 8);
  sink.Advance(ProgressPhase::kCover, 3);
  sink.Advance(ProgressPhase::kCover, 5);
  sink.AddTotal(ProgressPhase::kNaive, 100);
  sink.Advance(ProgressPhase::kNaive, 40);

  EXPECT_EQ(sink.Get(ProgressPhase::kCover).done, 8);
  EXPECT_EQ(sink.Get(ProgressPhase::kCover).total, 8);
  EXPECT_EQ(sink.Get(ProgressPhase::kNaive).done, 40);
  EXPECT_EQ(sink.Get(ProgressPhase::kNaive).total, 100);
  // Untouched phases stay idle.
  EXPECT_EQ(sink.Get(ProgressPhase::kHanf).done, 0);

  std::string text = sink.ToString();
  EXPECT_NE(text.find("cover 8/8"), std::string::npos) << text;
  EXPECT_NE(text.find("naive 40/100"), std::string::npos) << text;

  sink.Reset();
  EXPECT_EQ(sink.Get(ProgressPhase::kCover).done, 0);
  EXPECT_EQ(sink.ToString(), "(idle)");
}

TEST(ProgressSinkTest, ToJsonCarriesElapsedAndCancelledFields) {
  ProgressSink sink;
  sink.AddTotal(ProgressPhase::kHanf, 2);
  sink.Advance(ProgressPhase::kHanf, 1);
  std::string json = sink.ToJson();
  EXPECT_NE(json.find("\"hanf\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"elapsed_ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cancelled\": false"), std::string::npos) << json;
}

// --- Deadline watchdog (unit level) ----------------------------------------

TEST(DeadlineWatchdogTest, UnarmedSinkNeverStops) {
  ProgressSink sink;
  for (int i = 0; i < 256; ++i) EXPECT_FALSE(sink.ShouldStop());
  EXPECT_FALSE(sink.cancelled());
}

TEST(DeadlineWatchdogTest, HardExpiryLatchesUntilRearmed) {
  ProgressSink sink;
  sink.ArmDeadline({0, 1});
  SleepMs(5);
  // The clock read is gated to every 64th poll, so a bounded burst of polls
  // must observe the expiry.
  bool stopped = false;
  for (int i = 0; i < 256; ++i) stopped = sink.ShouldStop() || stopped;
  EXPECT_TRUE(stopped);
  EXPECT_TRUE(sink.cancelled());
  // Sticky until re-armed.
  EXPECT_TRUE(sink.ShouldStop());

  Status status = sink.DeadlineStatus();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("hard deadline"), std::string::npos)
      << status.ToString();

  sink.ArmDeadline({0, 0});
  EXPECT_FALSE(sink.cancelled());
  EXPECT_FALSE(sink.ShouldStop());
}

TEST(DeadlineWatchdogTest, SoftExpiryFiresCallbackOncePerArmAndContinues) {
  ProgressSink sink;
  std::atomic<int> fired{0};
  sink.SetSoftExpiryCallback([&fired] { fired.fetch_add(1); });

  sink.ArmDeadline({1, 0});
  SleepMs(5);
  for (int i = 0; i < 512; ++i) EXPECT_FALSE(sink.ShouldStop());
  EXPECT_EQ(fired.load(), 1);
  EXPECT_FALSE(sink.cancelled());

  // Re-arming resets the one-shot latch.
  sink.ArmDeadline({1, 0});
  SleepMs(5);
  for (int i = 0; i < 512; ++i) sink.ShouldStop();
  EXPECT_EQ(fired.load(), 2);
}

TEST(DeadlineWatchdogTest, ParallelPollsFireSoftCallbackExactlyOnce) {
  ProgressSink sink;
  std::atomic<int> fired{0};
  sink.SetSoftExpiryCallback([&fired] { fired.fetch_add(1); });
  sink.ArmDeadline({1, 0});
  SleepMs(5);

  std::vector<std::thread> pollers;
  for (int t = 0; t < 4; ++t) {
    pollers.emplace_back([&sink] {
      for (int i = 0; i < 4096; ++i) sink.ShouldStop();
    });
  }
  for (std::thread& t : pollers) t.join();
  EXPECT_EQ(fired.load(), 1);
}

// --- End-to-end: sink installed, no deadline => bit-identical --------------

TEST(CancellationTest, SinkWithoutDeadlineNeverChangesResults) {
  Rng rng(71);
  Structure a = EncodeGraph(MakeRandomBoundedDegree(400, 4, &rng));
  Formula phi = ScalingCondition();

  EvalOptions plain;
  plain.term_engine = TermEngine::kSparseCover;
  plain.num_threads = 1;
  Result<CountInt> expected = CountSolutions(phi, a, plain);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  std::array<PhaseProgress, kNumProgressPhases> reference{};
  bool have_reference = false;
  for (int threads : {0, 1, 4}) {
    ProgressSink sink;
    EvalOptions options = plain;
    options.num_threads = threads;
    options.progress = &sink;
    Result<CountInt> got = CountSolutions(phi, a, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "threads=" << threads;

    // Every pre-announced unit of work completed, and the completed-phase
    // counters are input-determined: identical for every thread count.
    std::array<PhaseProgress, kNumProgressPhases> snap = sink.Snapshot();
    for (int p = 0; p < kNumProgressPhases; ++p) {
      EXPECT_EQ(snap[p].done, snap[p].total)
          << "threads=" << threads << " phase="
          << ProgressPhaseName(static_cast<ProgressPhase>(p));
    }
    if (!have_reference) {
      reference = snap;
      have_reference = true;
    } else {
      for (int p = 0; p < kNumProgressPhases; ++p) {
        EXPECT_EQ(snap[p].done, reference[p].done)
            << "threads=" << threads << " phase="
            << ProgressPhaseName(static_cast<ProgressPhase>(p));
      }
    }
  }
}

// --- End-to-end: hard deadline cancels cleanly -----------------------------

TEST(CancellationTest, NaiveEngineHardDeadlineReturnsCleanStatus) {
  // ~8M naive tuples: far past a 1ms budget on any machine, so the odometer
  // is guaranteed to observe the expiry and drain.
  Rng rng(72);
  Structure a = EncodeGraph(MakeRandomBoundedDegree(200, 4, &rng));
  Var x = VarNamed("cx"), y = VarNamed("cy"), z = VarNamed("cz");
  Term paths = Count({x, y, z}, And(Atom("E", {x, y}), Atom("E", {y, z})));

  for (int threads : {0, 1, 4}) {
    ProgressSink sink;
    EvalOptions options;
    options.engine = Engine::kNaive;
    options.num_threads = threads;
    options.progress = &sink;
    options.deadline = Deadline{0, 1};
    Result<CountInt> got = EvaluateGroundTerm(paths, a, options);
    ASSERT_FALSE(got.ok()) << "threads=" << threads;
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
        << got.status().ToString();
    // The Status embeds the progress snapshot.
    EXPECT_NE(got.status().message().find("progress"), std::string::npos)
        << got.status().ToString();
    EXPECT_TRUE(sink.cancelled());
  }
}

TEST(CancellationTest, LocalEngineHardDeadlineReturnsCleanStatus) {
  // A 100x100 grid: cover construction alone is far past a 1ms budget.
  Structure a = EncodeGraph(MakeGrid(100, 100));
  Formula phi = ScalingCondition();

  for (int threads : {0, 1, 4}) {
    EvalOptions options;
    options.term_engine = TermEngine::kSparseCover;
    options.num_threads = threads;
    options.deadline = Deadline{0, 1};  // private call-local sink
    Result<CountInt> got = CountSolutions(phi, a, options);
    ASSERT_FALSE(got.ok()) << "threads=" << threads;
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
        << got.status().ToString();
  }
}

TEST(CancellationTest, CoverEngineStopsInsideOneCluster) {
  // A clique's sparse cover is a single cluster, so a count that polled the
  // deadline only between clusters would run to the end past any budget.
  // The covers are built first, without a deadline, so the budget expires
  // while the triangles are counted.
  Structure a = EncodeGraph(MakeClique(200));
  Var x = VarNamed("kx"), y = VarNamed("ky"), z = VarNamed("kz");
  Term triangles = Count(
      {x, y, z},
      And({Atom("E", {x, y}), Atom("E", {y, z}), Atom("E", {x, z})}));

  for (int threads : {1, 4}) {
    ProgressSink sink;
    EvalOptions options;
    options.term_engine = TermEngine::kSparseCover;
    options.num_threads = threads;
    options.progress = &sink;
    options.deadline = Deadline{0, 1};
    Session session(a, options);
    for (std::uint32_t r : {1u, 2u, 3u}) {
      ASSERT_EQ(session.context().Cover(r, CoverBackend::kSparse).NumClusters(),
                1u);
    }
    Result<CountInt> got = session.EvaluateGroundTerm(triangles);
    ASSERT_FALSE(got.ok()) << "threads=" << threads;
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
        << got.status().ToString();
    const PhaseProgress cl_term =
        sink.Snapshot()[static_cast<int>(ProgressPhase::kClTerm)];
    EXPECT_LT(cl_term.done, cl_term.total) << "threads=" << threads;
  }
}

// --- End-to-end: no partial cache writes; warm-after-cancel == cold --------

TEST(CancellationTest, WarmRunAfterCancellationMatchesColdRun) {
  Structure a = EncodeGraph(MakeGrid(100, 100));
  Formula phi = ScalingCondition();

  // The ball engine's cancelled call may stop inside a ball-table build, the
  // cover engine's inside a cover build.
  for (TermEngine term_engine : {TermEngine::kSparseCover, TermEngine::kBall}) {
    EvalOptions plain;
    plain.term_engine = term_engine;
    plain.num_threads = 1;
    Result<CountInt> cold = CountSolutions(phi, a, plain);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();

    for (int threads : {0, 1, 4}) {
      EvalContext context(a);
      EvalOptions cancel = plain;
      cancel.num_threads = threads;
      cancel.context = &context;
      cancel.deadline = Deadline{0, 1};
      Result<CountInt> cancelled = CountSolutions(phi, a, cancel);
      ASSERT_FALSE(cancelled.ok()) << "threads=" << threads;
      ASSERT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded)
          << cancelled.status().ToString();

      // Same context, no deadline: whatever the cancelled call left behind
      // in the cache must be complete artifacts or nothing — the warm re-run
      // is bit-identical to the cold uncached run.
      EvalOptions warm = plain;
      warm.num_threads = threads;
      warm.context = &context;
      Result<CountInt> rerun = CountSolutions(phi, a, warm);
      ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
      EXPECT_EQ(*rerun, *cold) << "threads=" << threads;
    }
  }
}

TEST(CancellationTest, SessionRearmsDeadlinePerStatement) {
  // A session whose defaults carry a generous deadline: every statement gets
  // the full budget, so none of them trips it and results are unchanged.
  Rng rng(73);
  Structure a = EncodeGraph(MakeRandomBoundedDegree(200, 4, &rng));
  Formula phi = ScalingCondition();

  EvalOptions defaults;
  defaults.term_engine = TermEngine::kSparseCover;
  Result<CountInt> expected = CountSolutions(phi, a, defaults);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ProgressSink sink;
  defaults.progress = &sink;
  defaults.deadline = Deadline{0, 60000};
  Session session(a, defaults);
  for (int i = 0; i < 3; ++i) {
    Result<CountInt> got = session.CountSolutions(phi);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "statement " << i;
    EXPECT_FALSE(sink.cancelled());
  }
}

// --- FlightRecorder --------------------------------------------------------

TEST(FlightRecorderTest, DisabledRecorderDropsEverything) {
  FlightRecorder recorder;
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(FlightEventKind::kMark, "nope", 1, 2);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, RingKeepsTheLastCapacityEvents) {
  FlightRecorder recorder;
  recorder.Enable(8);
  EXPECT_EQ(recorder.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    recorder.Record(FlightEventKind::kMark, "tick", i, 0);
  }
  EXPECT_EQ(recorder.total_recorded(), 20u);

  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest surviving event first, claim order preserved.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_EQ(events.back().a, 19);

  std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("flight recorder"), std::string::npos) << dump;
  EXPECT_NE(dump.find("MARK"), std::string::npos) << dump;
  EXPECT_NE(dump.find("tick"), std::string::npos) << dump;

  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_TRUE(recorder.enabled());
}

TEST(FlightRecorderTest, ParallelRecordersClaimDistinctSequenceNumbers) {
  FlightRecorder recorder;
  recorder.Enable(4096);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(FlightEventKind::kProgress, "par", t, i);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(recorder.total_recorded(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  std::vector<FlightEvent> events = recorder.Snapshot();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(FlightRecorderTest, EvaluationFeedsTheGlobalRecorderWhenEnabled) {
  FlightRecorder& global = FlightRecorder::Global();
  global.Enable(4096);
  global.Clear();

  Rng rng(74);
  Structure a = EncodeGraph(MakeRandomBoundedDegree(300, 4, &rng));
  ProgressSink sink;
  EvalOptions options;
  options.term_engine = TermEngine::kSparseCover;
  options.num_threads = 4;
  options.progress = &sink;
  Result<CountInt> got = CountSolutions(ScalingCondition(), a, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  EXPECT_GT(global.total_recorded(), 0u);
  std::string dump = global.Dump();
  EXPECT_NE(dump.find("PHASE_ENTER"), std::string::npos) << dump;
  global.Disable();
}

// --- OpenMetrics exporter --------------------------------------------------

TEST(OpenMetricsTest, SanitizeNameMapsToTheFormatCharset) {
  EXPECT_EQ(OpenMetricsSeries::SanitizeName("cover.bfs_vertices"),
            "cover_bfs_vertices");
  EXPECT_EQ(OpenMetricsSeries::SanitizeName("Plan-Compilations"),
            "plan_compilations");
  EXPECT_EQ(OpenMetricsSeries::SanitizeName("9lives"), "_9lives");
}

TEST(OpenMetricsTest, RenderEmitsFamiliesPointsAndEof) {
  MetricsSink metrics;
  metrics.AddCounter("plan.compilations", 2);
  metrics.RecordValue("cluster.size", 3);
  metrics.RecordValue("cluster.size", 5);

  ProgressSink progress;
  progress.AddTotal(ProgressPhase::kCover, 10);
  progress.Advance(ProgressPhase::kCover, 10);

  OpenMetricsSeries series;
  series.Sample(1000, metrics.Snapshot(), &progress);
  metrics.AddCounter("plan.compilations", 1);
  series.Sample(2000, metrics.Snapshot(), &progress);
  EXPECT_EQ(series.sample_count(), 2u);

  std::string text = series.Render();
  // Counter family with both timestamped points, in sample order.
  EXPECT_NE(text.find("# TYPE focq_plan_compilations counter"),
            std::string::npos)
      << text;
  std::size_t p1 = text.find("focq_plan_compilations_total 2 1");
  std::size_t p2 = text.find("focq_plan_compilations_total 3 2");
  EXPECT_NE(p1, std::string::npos) << text;
  EXPECT_NE(p2, std::string::npos) << text;
  EXPECT_LT(p1, p2);
  // Progress gauges carry the phase label.
  EXPECT_NE(text.find("focq_progress_done{phase=\"cover\"} 10"),
            std::string::npos)
      << text;
  // Value distributions render as histograms with cumulative buckets.
  EXPECT_NE(text.find("# TYPE focq_dist_cluster_size histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("focq_dist_cluster_size_count 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("focq_dist_cluster_size_sum 8"), std::string::npos)
      << text;
  // '# EOF' is the terminator, with nothing after it.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(OpenMetricsTest, SeriesIsBoundedByMaxSamples) {
  MetricsSink metrics;
  OpenMetricsSeries series(3);
  for (int i = 0; i < 10; ++i) {
    metrics.AddCounter("ticks", 1);
    series.Sample(1000 + i, metrics.Snapshot(), nullptr);
  }
  EXPECT_EQ(series.sample_count(), 3u);
  std::string text = series.Render();
  // Only the newest three snapshots survive.
  EXPECT_EQ(text.find("focq_ticks_total 7 1"), std::string::npos) << text;
  EXPECT_NE(text.find("focq_ticks_total 8 1"), std::string::npos) << text;
  EXPECT_NE(text.find("focq_ticks_total 10 1"), std::string::npos) << text;
}

// Session samples once per call, and two calls can finish in the same
// millisecond: the series must still render strictly increasing timestamps.
TEST(OpenMetricsTest, RepeatedTimestampsAreMadeStrictlyIncreasing) {
  MetricsSink metrics;
  OpenMetricsSeries series;
  for (int i = 0; i < 3; ++i) {
    metrics.AddCounter("ticks", 1);
    series.Sample(5000, metrics.Snapshot(), nullptr);
  }
  std::string text = series.Render();
  EXPECT_NE(text.find("focq_ticks_total 1 5.000\n"
                      "focq_ticks_total 2 5.001\n"
                      "focq_ticks_total 3 5.002\n"),
            std::string::npos)
      << text;
}

TEST(OpenMetricsTest, EmptyButRegisteredHistogramRendersZeroedFamily) {
  // A histogram family that is registered but has no samples yet (a server
  // that declared serve.request_ns.update before any update arrived) must
  // still render as a complete, spec-valid family: zeroed buckets including
  // the mandatory +Inf, zero _sum and _count — so scrapers can set up alerts
  // before traffic exists.
  EvalMetrics metrics;
  metrics.values["empty.dist"];  // registered, count == 0
  OpenMetricsSeries series;
  series.Sample(1000, metrics, nullptr);
  std::string text = series.Render();
  EXPECT_NE(text.find("# TYPE focq_dist_empty_dist histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("focq_dist_empty_dist_bucket{le=\"+Inf\"} 0 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("focq_dist_empty_dist_sum 0 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("focq_dist_empty_dist_count 0 1"), std::string::npos)
      << text;
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(OpenMetricsTest, GaugesRenderAsBareNameFamiliesPerSample) {
  MetricsSink metrics;
  metrics.AddCounter("serve.requests", 1);
  OpenMetricsSeries series;
  std::map<std::string, std::int64_t> gauges;
  gauges["serve.queue_depth"] = 7;
  gauges["serve.inflight"] = 2;
  series.Sample(1000, metrics.Snapshot(), nullptr, gauges);
  gauges["serve.queue_depth"] = 3;  // gauges may go down between samples
  series.Sample(2000, metrics.Snapshot(), nullptr, gauges);

  std::string text = series.Render();
  EXPECT_NE(text.find("# TYPE focq_serve_queue_depth gauge"),
            std::string::npos)
      << text;
  std::size_t p1 = text.find("focq_serve_queue_depth 7 1");
  std::size_t p2 = text.find("focq_serve_queue_depth 3 2");
  ASSERT_NE(p1, std::string::npos) << text;
  ASSERT_NE(p2, std::string::npos) << text;
  EXPECT_LT(p1, p2);
  EXPECT_NE(text.find("focq_serve_inflight 2 1"), std::string::npos) << text;
  // The counter family still renders with its _total suffix.
  EXPECT_NE(text.find("focq_serve_requests_total 1 1"), std::string::npos)
      << text;
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(OpenMetricsTest, SessionSamplingAppendsOneSamplePerCall) {
  Rng rng(75);
  Structure a = EncodeGraph(MakeRandomBoundedDegree(100, 3, &rng));
  MetricsSink metrics;
  ProgressSink progress;
  EvalOptions defaults;
  defaults.metrics = &metrics;
  defaults.progress = &progress;

  Session session(a, defaults);
  OpenMetricsSeries series;
  session.EnableOpenMetricsSampling(&series);

  Formula phi = ScalingCondition();
  for (int i = 0; i < 3; ++i) {
    Result<CountInt> got = session.CountSolutions(phi);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
  EXPECT_EQ(series.sample_count(), 3u);
  std::string text = series.Render();
  EXPECT_NE(text.find("focq_progress_done"), std::string::npos) << text;
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

}  // namespace
}  // namespace focq
