// The one statement path (core/statement.h): kind words, canonical response
// texts, error texts, the kind -> plan mapping EXPLAIN shows, and Session::
// Execute's per-call OpenMetrics sampling. Also the strict number parser the
// tools read their flags with (util/parse_number.h).
#include "focq/core/statement.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "focq/obs/metrics.h"
#include "focq/obs/openmetrics.h"
#include "focq/util/parse_number.h"

namespace focq {
namespace {

Structure Path(std::size_t n) {
  Structure a(Signature({{"E", 2}}), n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const auto u = static_cast<ElemId>(i);
    a.InsertTuple(0, {u, u + 1});
  }
  return a;
}

// The response text, or the error text a surface prints for a failure.
std::string Answer(const Result<std::string>& r) {
  return r.ok() ? *r : r.status().ToString();
}

TEST(Statement, KindWords) {
  EXPECT_TRUE(ParseStatementKind("check") == StatementKind::kCheck);
  EXPECT_TRUE(ParseStatementKind("count") == StatementKind::kCount);
  EXPECT_TRUE(ParseStatementKind("term") == StatementKind::kTerm);
  EXPECT_TRUE(ParseStatementKind("update") == StatementKind::kUpdate);
  EXPECT_FALSE(ParseStatementKind("bogus").has_value());
  EXPECT_FALSE(ParseStatementKind("Check").has_value());
  EXPECT_FALSE(ParseStatementKind("").has_value());
}

TEST(Statement, CanonicalResponseAndErrorTexts) {
  Structure a = Path(4);
  EvalContext context(a);
  EvalOptions options;
  options.context = &context;
  auto run = [&](StatementKind kind, const std::string& text) {
    return Answer(ExecuteStatement(kind, text, a, options, &a));
  };
  EXPECT_EQ(run(StatementKind::kCheck, "exists x. E(x, x)"), "false");
  EXPECT_EQ(run(StatementKind::kCheck, "exists x. exists y. E(x, y)"),
            "true");
  EXPECT_EQ(run(StatementKind::kCount, "E(x, y)"), "3");
  EXPECT_EQ(run(StatementKind::kTerm, "#(x, y). (E(x, y))"), "3");
  EXPECT_EQ(run(StatementKind::kUpdate, "insert E 3 0"), "applied");
  EXPECT_EQ(run(StatementKind::kUpdate, "insert E 3 0"), "noop");
  EXPECT_EQ(run(StatementKind::kCount, "E(x, y)"), "4");

  EXPECT_EQ(run(StatementKind::kCheck, "(((broken"),
            "INVALID_ARGUMENT: unexpected identifier 'broken' at offset 3");
  EXPECT_EQ(run(StatementKind::kUpdate, "insert Q 0"),
            "NOT_FOUND: unknown relation symbol 'Q'");
  EXPECT_EQ(run(StatementKind::kCheck, "E(x, y)"),
            "INVALID_ARGUMENT: ModelCheck expects a sentence");
  EXPECT_NE(run(StatementKind::kCheck, "exists x. Q(x)")
                .find("unknown relation symbol 'Q'"),
            std::string::npos);
  EXPECT_EQ(run(StatementKind::kUpdate, "insert E 0 9"),
            "OUT_OF_RANGE: update element 9 outside universe of size 4");
  // An integer literal past int64 is a parse error, not an uncaught
  // exception that takes the whole server down.
  EXPECT_EQ(run(StatementKind::kCount, "@ge1(#(y). (E(x, y)) - "
                                       "99999999999999999999)"),
            "INVALID_ARGUMENT: integer literal out of range at offset 23");
  // A distance bound past uint32 is rejected, not truncated (2^32 would
  // otherwise read as dist <= 0).
  EXPECT_EQ(run(StatementKind::kTerm, "#(x, y). (dist(x, y) <= 4294967296)"),
            "INVALID_ARGUMENT: distance bound out of range at offset 24");
  EXPECT_EQ(run(StatementKind::kTerm, "#(x, y). (dist(x, y) <= 4294967295)"),
            "16");
}

// An int64 overflow inside a numerical predicate is kOutOfRange under every
// engine: never an abort, and never a predicate silently counted as false.
TEST(Statement, OverflowIsOutOfRangeOnEveryEngine) {
  Structure a = Path(3);  // made undirected, as `focq_cli --edges` reads it
  a.InsertTuple(0, {1, 0});
  a.InsertTuple(0, {2, 1});
  struct EngineCase {
    const char* name;
    Engine engine;
    TermEngine term_engine;
  };
  for (const EngineCase& e :
       {EngineCase{"naive", Engine::kNaive, TermEngine::kBall},
        EngineCase{"local", Engine::kLocal, TermEngine::kBall},
        EngineCase{"cover", Engine::kLocal, TermEngine::kSparseCover},
        EngineCase{"approx", Engine::kApprox, TermEngine::kBall}}) {
    EvalOptions options;
    options.engine = e.engine;
    options.term_engine = e.term_engine;
    for (const auto& [kind, text] :
         std::vector<std::pair<StatementKind, std::string>>{
             {StatementKind::kCheck, "@ge1(9223372036854775807 + 1)"},
             {StatementKind::kCheck,
              "@ge1(9223372036854775807 * #(y). (exists z. (E(y, z))))"},
             {StatementKind::kCount,
              "@ge1(9223372036854775807 * "
              "#(y). (exists z. (E(x, z) & E(z, y))))"}}) {
      Result<std::string> r = ExecuteStatement(kind, text, a, options);
      ASSERT_FALSE(r.ok()) << e.name << ": " << text << " = " << *r;
      EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange)
          << e.name << ": " << text << ": " << r.status().ToString();
    }
  }
}

TEST(Statement, UpdateWithoutWritableStructureIsUnsupported) {
  Structure a = Path(3);
  EvalContext context(a);
  EvalOptions options;
  options.context = &context;
  Result<std::string> r =
      ExecuteStatement(StatementKind::kUpdate, "insert E 2 0", a, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(a.relation(0).NumTuples(), 2u);  // untouched

  Session read_only(a);
  EXPECT_EQ(read_only.Execute(StatementKind::kUpdate, "insert E 2 0")
                .status()
                .code(),
            StatusCode::kUnsupported);
}

// Statement::Compile is the plan evaluation runs: its basic cl-term count
// equals the plan.basic_cl_terms counter an actual evaluation records. For a
// count with free variables that is the term #(x, y). phi, not phi.
TEST(Statement, CompileMatchesThePlanEvaluationRuns) {
  Structure a = Path(6);
  for (const auto& [kind, text] :
       std::vector<std::pair<StatementKind, std::string>>{
           {StatementKind::kCount, "E(x, y)"},
           {StatementKind::kCount, "@ge1(#(y). (E(x, y)) - 1)"},
           {StatementKind::kCount, "exists x. E(x, x)"},
           {StatementKind::kCheck, "exists x. @ge1(#(y). (E(x, y)) - 1)"},
           {StatementKind::kTerm, "#(x). (@ge1(#(y). (E(x, y)) - 1))"},
       }) {
    SCOPED_TRACE(text);
    Result<Statement> statement = Statement::Parse(kind, text, a.signature());
    ASSERT_TRUE(statement.ok()) << statement.status().ToString();
    Result<EvalPlan> plan = statement->Compile(a.signature());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();

    MetricsSink metrics;
    EvalOptions options;
    options.metrics = &metrics;
    ASSERT_TRUE(statement->Execute(a, options).ok());
    const auto counters = metrics.Snapshot().counters;
    ASSERT_EQ(counters.count("plan.basic_cl_terms"), 1u);
    EXPECT_EQ(static_cast<std::int64_t>(
                  plan->ComputeStats().num_basic_cl_terms),
              counters.at("plan.basic_cl_terms"));
  }
  Result<Statement> update =
      Statement::Parse(StatementKind::kUpdate, "insert E 0 2", a.signature());
  ASSERT_TRUE(update.ok());
  EXPECT_FALSE(update->Compile(a.signature()).ok());
}

TEST(Statement, SessionExecuteSamplesOpenMetricsPerCall) {
  Structure a = Path(5);
  MetricsSink metrics;
  EvalOptions defaults;
  defaults.metrics = &metrics;
  Session session(&a, defaults);
  OpenMetricsSeries series;
  session.EnableOpenMetricsSampling(&series);
  EXPECT_EQ(Answer(session.Execute(StatementKind::kCount, "E(x, y)")), "4");
  EXPECT_EQ(Answer(session.Execute(StatementKind::kUpdate, "delete E 0 1")),
            "applied");
  EXPECT_FALSE(session.Execute(StatementKind::kTerm, "(((").ok());
  EXPECT_EQ(Answer(session.Execute(StatementKind::kCount, "E(x, y)")), "3");
  EXPECT_EQ(series.sample_count(), 4u);
}

TEST(ParseNumber, IntegersAreWholeTextDigitsOnly) {
  std::uint64_t u = 7;
  EXPECT_TRUE(ParseNumber("0", &u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, 18446744073709551615ull);
  for (const char* bad : {"", "-1", "+3", " 4", "4 ", "0x10", "5xyz", "1.5",
                          "18446744073709551616"}) {
    u = 7;
    EXPECT_FALSE(ParseNumber(bad, &u)) << bad;
    EXPECT_EQ(u, 7u) << bad;  // untouched on failure
  }
  int i = 0;
  EXPECT_TRUE(ParseNumber("2147483647", &i));
  EXPECT_EQ(i, 2147483647);
  EXPECT_FALSE(ParseNumber("2147483648", &i));
  EXPECT_FALSE(ParseNumber("-1", &i));
  std::int64_t ms = 0;
  EXPECT_TRUE(ParseNumber("250", &ms));
  EXPECT_EQ(ms, 250);
  EXPECT_FALSE(ParseNumber("-0", &ms));
}

// focq_benchdiff's --warn-pct / --fail-pct / --time-threshold go through
// this: "abc" and "40x" used to read as 0 and 40.
TEST(ParseNumber, RealsMustBeTheWholeText) {
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("0.25", &d));
  EXPECT_EQ(d, 0.25);
  EXPECT_TRUE(ParseNumber("-0.5", &d));
  EXPECT_EQ(d, -0.5);
  EXPECT_TRUE(ParseNumber("1e-3", &d));
  EXPECT_EQ(d, 1e-3);
  EXPECT_TRUE(ParseNumber("40", &d));
  EXPECT_EQ(d, 40.0);
  for (const char* bad : {"", "abc", "40x", "5xyz", " 1", "1 ", "+1", "1e999",
                          "0.1.2"}) {
    d = 3.0;
    EXPECT_FALSE(ParseNumber(bad, &d)) << bad;
    EXPECT_EQ(d, 3.0) << bad;
  }
}

}  // namespace
}  // namespace focq
