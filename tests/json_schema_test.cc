// Golden-schema regression test for the observability JSON documents shipped
// by `focq_cli --metrics-json` / `--trace-json` (composed in
// focq/obs/json_export.h). External dashboards consume these files, so the
// key set and value types are a compatibility contract: loosening or
// renaming a key must fail here first.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/obs/benchdiff.h"
#include "focq/obs/json_export.h"
#include "focq/structure/encode.h"
#include "focq/util/json.h"

namespace focq {
namespace {

using Kind = JsonValue::Kind;

// `text` read by the one JSON reader; a parse error fails the test.
JsonValue Parse(const std::string& text) {
  Result<JsonValue> doc = ParseJson(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? *doc : JsonValue{};
}

// Produces one real evaluation's sinks: metrics + trace of a pipeline run
// that exercises counting terms (so counters and spans are non-empty).
void RunInstrumented(MetricsSink* metrics, TraceSink* trace) {
  Structure a = EncodeGraph(MakeGrid(4, 4));
  Var x = VarNamed("jsx"), y = VarNamed("jsy");
  Formula phi = Ge1(Sub(Count({y}, Atom("E", {x, y})), Int(2)));
  EvalOptions options;
  options.engine = Engine::kLocal;
  options.metrics = metrics;
  options.trace = trace;
  ScopedSpan root(trace, "query_eval");
  Result<CountInt> n = CountSolutions(phi, a, options);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
}

void ExpectIntegerMap(const JsonValue& v, const std::string& label) {
  ASSERT_EQ(v.kind, Kind::kObject) << label;
  for (const auto& [key, value] : v.object) {
    EXPECT_EQ(value.kind, Kind::kNumber) << label << "." << key;
  }
}

TEST(JsonSchema, MetricsDocument) {
  MetricsSink metrics;
  TraceSink trace;
  RunInstrumented(&metrics, &trace);
  std::string text = ComposeMetricsJson(metrics.Snapshot(), trace);
  JsonValue doc = Parse(text);

  // The contract: exactly these four top-level keys.
  ASSERT_EQ(doc.kind, Kind::kObject);
  EXPECT_EQ(doc.object.size(), 4u);
  ASSERT_NE(doc.Find("counters"), nullptr);
  ASSERT_NE(doc.Find("values"), nullptr);
  ASSERT_NE(doc.Find("phase_ns"), nullptr);
  ASSERT_NE(doc.Find("pool"), nullptr);

  ExpectIntegerMap(*doc.Find("counters"), "counters");
  EXPECT_FALSE(doc.Find("counters")->object.empty());

  const JsonValue& values = *doc.Find("values");
  ASSERT_EQ(values.kind, Kind::kObject);
  for (const auto& [name, stats] : values.object) {
    ASSERT_EQ(stats.kind, Kind::kObject) << "values." << name;
    EXPECT_EQ(stats.object.size(), 8u) << "values." << name;
    for (const char* key :
         {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}) {
      ASSERT_NE(stats.Find(key), nullptr) << "values." << name << "." << key;
      EXPECT_EQ(stats.Find(key)->kind, Kind::kNumber);
    }
  }

  ExpectIntegerMap(*doc.Find("phase_ns"), "phase_ns");
  EXPECT_NE(doc.Find("phase_ns")->Find("query_eval"), nullptr);

  const JsonValue& pool = *doc.Find("pool");
  ASSERT_EQ(pool.kind, Kind::kObject);
  EXPECT_EQ(pool.object.size(), 5u);
  for (const char* key :
       {"workers", "tasks_submitted", "tasks_executed", "steals", "busy_ns"}) {
    ASSERT_NE(pool.Find(key), nullptr) << "pool." << key;
    EXPECT_EQ(pool.Find(key)->kind, Kind::kNumber) << "pool." << key;
  }
}

void ExpectSpanShape(const JsonValue& span) {
  ASSERT_EQ(span.kind, Kind::kObject);
  for (const char* key : {"name", "start_ns", "duration_ns", "children"}) {
    ASSERT_NE(span.Find(key), nullptr) << "span." << key;
  }
  EXPECT_EQ(span.Find("name")->kind, Kind::kString);
  EXPECT_EQ(span.Find("start_ns")->kind, Kind::kNumber);
  EXPECT_EQ(span.Find("duration_ns")->kind, Kind::kNumber);
  ASSERT_EQ(span.Find("children")->kind, Kind::kArray);
  for (const auto& child : span.Find("children")->array) ExpectSpanShape(child);
}

TEST(JsonSchema, TraceDocument) {
  MetricsSink metrics;
  TraceSink trace;
  RunInstrumented(&metrics, &trace);
  JsonValue doc = Parse(ComposeTraceJson(trace));

  ASSERT_EQ(doc.kind, Kind::kObject);
  EXPECT_EQ(doc.object.size(), 2u);
  ASSERT_NE(doc.Find("spans"), nullptr);
  ASSERT_NE(doc.Find("traceEvents"), nullptr);

  const JsonValue& spans = *doc.Find("spans");
  ASSERT_EQ(spans.kind, Kind::kArray);
  ASSERT_FALSE(spans.array.empty());
  for (const JsonValue& span : spans.array) ExpectSpanShape(span);
  EXPECT_EQ(spans.array[0].Find("name")->str, "query_eval");

  const JsonValue& events = *doc.Find("traceEvents");
  ASSERT_EQ(events.kind, Kind::kArray);
  ASSERT_FALSE(events.array.empty());
  bool saw_complete = false;
  for (const JsonValue& event : events.array) {
    ASSERT_EQ(event.kind, Kind::kObject);
    ASSERT_NE(event.Find("ph"), nullptr);
    const std::string& ph = event.Find("ph")->str;
    if (ph == "M") {
      // Thread-name metadata for the worker lanes.
      EXPECT_EQ(event.Find("name")->str, "thread_name");
      for (const char* key : {"pid", "tid", "args"}) {
        ASSERT_NE(event.Find(key), nullptr) << "traceEvent." << key;
      }
      ASSERT_NE(event.Find("args")->Find("name"), nullptr);
      continue;
    }
    EXPECT_EQ(ph, "X");
    saw_complete = true;
    for (const char* key : {"name", "pid", "tid", "ts", "dur"}) {
      ASSERT_NE(event.Find(key), nullptr) << "traceEvent." << key;
    }
  }
  EXPECT_TRUE(saw_complete);
}

void ExpectExplainNodeShape(const JsonValue& node) {
  ASSERT_EQ(node.kind, Kind::kObject);
  EXPECT_EQ(node.object.size(), 8u);
  for (const char* key : {"id", "parent", "duration_ns", "bytes_peak"}) {
    ASSERT_NE(node.Find(key), nullptr) << "node." << key;
    EXPECT_EQ(node.Find(key)->kind, Kind::kNumber) << "node." << key;
  }
  for (const char* key : {"kind", "label"}) {
    ASSERT_NE(node.Find(key), nullptr) << "node." << key;
    EXPECT_EQ(node.Find(key)->kind, Kind::kString) << "node." << key;
  }
  ASSERT_NE(node.Find("counters"), nullptr);
  ExpectIntegerMap(*node.Find("counters"), "node.counters");
  ASSERT_NE(node.Find("children"), nullptr);
  ASSERT_EQ(node.Find("children")->kind, Kind::kArray);
  for (const JsonValue& child : node.Find("children")->array) {
    ExpectExplainNodeShape(child);
  }
}

TEST(JsonSchema, ExplainDocument) {
  Structure a = EncodeGraph(MakeGrid(4, 4));
  Var x = VarNamed("jex"), y = VarNamed("jey");
  Formula phi = Ge1(Sub(Count({y}, Atom("E", {x, y})), Int(2)));
  MetricsSink metrics;
  ExplainSink explain;
  EvalOptions options;
  options.engine = Engine::kLocal;
  options.metrics = &metrics;
  options.explain = &explain;
  Result<CountInt> n = CountSolutions(phi, a, options);
  ASSERT_TRUE(n.ok()) << n.status().ToString();

  std::string text = ComposeExplainJson(explain.Snapshot());
  JsonValue doc = Parse(text);

  ASSERT_EQ(doc.kind, Kind::kObject);
  EXPECT_EQ(doc.object.size(), 1u);
  ASSERT_NE(doc.Find("explain"), nullptr);
  const JsonValue& body = *doc.Find("explain");
  ASSERT_EQ(body.kind, Kind::kObject);
  EXPECT_EQ(body.object.size(), 2u);
  ASSERT_NE(body.Find("analyzed"), nullptr);
  EXPECT_EQ(body.Find("analyzed")->kind, Kind::kBool);
  EXPECT_TRUE(body.Find("analyzed")->boolean);
  ASSERT_NE(body.Find("nodes"), nullptr);
  ASSERT_EQ(body.Find("nodes")->kind, Kind::kArray);
  ASSERT_FALSE(body.Find("nodes")->array.empty());
  for (const JsonValue& node : body.Find("nodes")->array) {
    ExpectExplainNodeShape(node);
    EXPECT_EQ(node.Find("parent")->number, -1) << "top-level nodes are roots";
  }
}

// Two hand-written Google-Benchmark documents: one row regresses past the
// threshold, one counter drifts, one benchmark appears, one disappears, and
// an aggregate (_mean) row must be ignored.
constexpr char kBenchBase[] = R"({
  "context": {"date": "2026-01-01"},
  "benchmarks": [
    {"name": "BM_A/64", "run_type": "iteration", "iterations": 100,
     "real_time": 10.0, "cpu_time": 9.0, "time_unit": "ms",
     "clusters": 5.0, "tuples": 100.0},
    {"name": "BM_Gone", "run_type": "iteration", "iterations": 10,
     "real_time": 1.0, "cpu_time": 1.0, "time_unit": "ms"}
  ]
})";

constexpr char kBenchCurrent[] = R"({
  "benchmarks": [
    {"name": "BM_A/64", "run_type": "iteration", "iterations": 100,
     "real_time": 20.0, "cpu_time": 18.0, "time_unit": "ms",
     "clusters": 7.0, "tuples": 100.0},
    {"name": "BM_A/64_mean", "run_type": "aggregate", "real_time": 20.0,
     "cpu_time": 18.0, "time_unit": "ms"},
    {"name": "BM_New", "run_type": "iteration", "iterations": 10,
     "real_time": 2.0, "cpu_time": 2.0, "time_unit": "ms"}
  ]
})";

TEST(JsonSchema, BenchdiffReport) {
  Result<BenchRun> base = ParseBenchJson(kBenchBase);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  Result<BenchRun> current = ParseBenchJson(kBenchCurrent);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(base->rows.size(), 2u);
  EXPECT_EQ(current->rows.size(), 2u) << "aggregate rows must be dropped";
  ASSERT_FALSE(base->rows.empty());
  EXPECT_EQ(base->rows[0].counters.size(), 2u)
      << "iterations/cpu_time are bookkeeping, not counters";

  BenchDiffReport report = DiffBenchRuns(*base, *current);
  EXPECT_EQ(report.compared.size(), 1u);
  EXPECT_EQ(report.NumRegressions(), 1u);
  EXPECT_EQ(report.NumImprovements(), 0u);
  EXPECT_EQ(report.NumCounterChanges(), 1u);
  ASSERT_EQ(report.added.size(), 1u);
  EXPECT_EQ(report.added[0], "BM_New");
  ASSERT_EQ(report.removed.size(), 1u);
  EXPECT_EQ(report.removed[0], "BM_Gone");
  ASSERT_FALSE(report.compared.empty());
  EXPECT_DOUBLE_EQ(report.compared[0].time_ratio, 2.0);
  ASSERT_EQ(report.compared[0].counter_changes.count("clusters"), 1u);

  JsonValue doc = Parse(report.ToJson());
  ASSERT_EQ(doc.kind, Kind::kObject);
  ASSERT_NE(doc.Find("benchdiff"), nullptr);
  const JsonValue& body = *doc.Find("benchdiff");
  ASSERT_EQ(body.kind, Kind::kObject);
  EXPECT_EQ(body.object.size(), 9u);
  for (const char* key : {"time_threshold", "counter_threshold", "compared",
                          "regressions", "improvements", "counter_changes"}) {
    ASSERT_NE(body.Find(key), nullptr) << "benchdiff." << key;
    EXPECT_EQ(body.Find(key)->kind, Kind::kNumber) << "benchdiff." << key;
  }
  EXPECT_EQ(body.Find("regressions")->number, 1);
  for (const char* key : {"added", "removed", "entries"}) {
    ASSERT_NE(body.Find(key), nullptr) << "benchdiff." << key;
    ASSERT_EQ(body.Find(key)->kind, Kind::kArray) << "benchdiff." << key;
  }
  ASSERT_EQ(body.Find("entries")->array.size(), 1u);
  const JsonValue& entry = body.Find("entries")->array[0];
  EXPECT_EQ(entry.object.size(), 8u);
  for (const char* key :
       {"name", "base_time", "current_time", "time_unit", "time_ratio",
        "regression", "improvement", "counter_changes"}) {
    ASSERT_NE(entry.Find(key), nullptr) << "entry." << key;
  }
  EXPECT_TRUE(entry.Find("regression")->boolean);
  ASSERT_NE(entry.Find("counter_changes")->Find("clusters"), nullptr);
  const JsonValue& change = *entry.Find("counter_changes")->Find("clusters");
  EXPECT_DOUBLE_EQ(change.Find("base")->number, 5.0);
  EXPECT_DOUBLE_EQ(change.Find("current")->number, 7.0);

  // The markdown report carries the same verdicts.
  std::string md = report.ToMarkdown();
  EXPECT_NE(md.find("**regression**"), std::string::npos);
  EXPECT_NE(md.find("BM_New"), std::string::npos);
  EXPECT_NE(md.find("BM_Gone"), std::string::npos);
  EXPECT_NE(md.find("clusters"), std::string::npos);

  // Self-compare: no regressions, exit-0 posture for the CI smoke job.
  BenchDiffReport self = DiffBenchRuns(*base, *base);
  EXPECT_EQ(self.NumRegressions(), 0u);
  EXPECT_EQ(self.NumCounterChanges(), 0u);
  EXPECT_EQ(self.compared.size(), 2u);
}

// A Google-Benchmark document with one row and an optional focq build stamp.
std::string StampedBench(const std::string& stamp) {
  return R"({"context": {"date": "2026-01-01", "library_build_type": "debug")" +
         stamp + R"(}, "benchmarks": [{"name": "BM_A", "run_type": )"
                 R"("iteration", "real_time": 1.0, "time_unit": "ms"}]})";
}

TEST(Benchdiff, WarnsOnlyWhenTwoStampsDiffer) {
  const std::string release =
      R"(, "focq_build_type": "Release", "focq_compiler": "GNU 12.2.0",)"
      R"( "focq_cxx_flags": "-O3 -DNDEBUG", "focq_git_sha": "abc")";
  const std::string release_later_commit =
      R"(, "focq_build_type": "Release", "focq_compiler": "GNU 12.2.0",)"
      R"( "focq_cxx_flags": "-O3 -DNDEBUG", "focq_git_sha": "def")";
  const std::string debug =
      R"(, "focq_build_type": "Debug", "focq_compiler": "GNU 12.2.0",)"
      R"( "focq_cxx_flags": "-g", "focq_git_sha": "abc")";
  Result<BenchRun> stamped = ParseBenchJson(StampedBench(release));
  Result<BenchRun> later = ParseBenchJson(StampedBench(release_later_commit));
  Result<BenchRun> other = ParseBenchJson(StampedBench(debug));
  Result<BenchRun> unstamped = ParseBenchJson(StampedBench(""));
  ASSERT_TRUE(stamped.ok() && later.ok() && other.ok() && unstamped.ok());
  EXPECT_EQ(stamped->build.size(), 4u);
  EXPECT_EQ(stamped->build.at("focq_build_type"), "Release");
  EXPECT_TRUE(unstamped->build.empty()) << "library fields are not a stamp";

  BenchDiffReport mixed = DiffBenchRuns(*unstamped, *stamped);
  EXPECT_TRUE(mixed.BuildDifferences().empty());
  std::string md = mixed.ToMarkdown();
  EXPECT_NE(md.find("base build: unstamped"), std::string::npos) << md;
  EXPECT_NE(md.find("current build: focq_build_type=`Release`"),
            std::string::npos)
      << md;
  EXPECT_EQ(md.find("**warning**"), std::string::npos) << md;

  EXPECT_TRUE(DiffBenchRuns(*stamped, *later).BuildDifferences().empty())
      << "a different commit alone is not a different build";

  JsonValue doc = Parse(mixed.ToJson());
  ASSERT_NE(doc.Find("builds"), nullptr);
  EXPECT_TRUE(doc.Find("builds")->Find("base")->object.empty());
  EXPECT_EQ(doc.Find("builds")->Find("current")->Find("focq_build_type")->str,
            "Release");

  BenchDiffReport differ = DiffBenchRuns(*stamped, *other);
  EXPECT_EQ(differ.BuildDifferences(),
            (std::vector<std::string>{"focq_build_type", "focq_cxx_flags"}));
  EXPECT_NE(differ.ToMarkdown().find("**warning**"), std::string::npos);
  EXPECT_EQ(differ.NumCounterChanges(), 0u);
}

TEST(Benchdiff, RateCountersAreTimingsNotCounters) {
  Result<BenchRun> run = ParseBenchJson(
      R"({"benchmarks": [{"name": "BM_A", "run_type": "iteration",)"
      R"( "real_time": 1.0, "items_per_second": 5.0, "bytes_per_second": 9.0,)"
      R"( "ns_per_elem": 3.0, "clusters": 2.0}]})");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->rows.size(), 1u);
  EXPECT_EQ(run->rows[0].counters,
            (std::map<std::string, double>{{"clusters", 2.0}}));
}

}  // namespace
}  // namespace focq
