// focq command-line interface: evaluate FOC(P) sentences, counting problems
// and ground terms against a structure file.
//
// Usage:
//   focq_cli <structure-file> [--edges] [--engine naive|local|cover|approx]
//            [--threads N] [--update 'insert E 0 1']...
//            [--eps E] [--delta D] [--approx-seed S] [--approx-stratify]
//            (--check '<sentence>' | --count '<formula>' | --term '<term>'
//             | --batch FILE)
//            [--stats] [--metrics-json PATH] [--trace-json PATH]
//
//   <structure-file>   focq structure format (see focq/structure/io.h), or a
//                      plain "u v" edge list with --edges
//   --check            decide A |= phi for a sentence
//   --count            the counting problem |phi(A)|
//   --term             evaluate a ground counting term
//   --update           apply a tuple update ("insert <symbol> <elem>..." or
//                      "delete <symbol> <elem>...") to the loaded structure
//                      before evaluation; repeatable, applied in order. See
//                      DESIGN.md section 3e for the update model
//   --batch            evaluate many statements against the one structure
//                      through a shared Session, so Gaifman graphs, covers
//                      and sphere typings are built once and reused. Each
//                      non-empty, non-'#' line of FILE is
//                      "check <sentence>", "count <formula>", "term <term>"
//                      or "update <spec>"; update lines mutate the live
//                      structure between statements and incrementally repair
//                      the session's cached artifacts instead of discarding
//                      them. Results are printed per line — a malformed
//                      statement as "line N: <kind>: error: ..." with the
//                      batch carrying on, exactly as focq_serve answers it —
//                      and a cache summary at the end
//   --engine           naive = Definition 3.1 semantics;
//                      local = Theorem 6.10 pipeline (default);
//                      cover = local with sparse-cover cl-term evaluation;
//                      approx = sampling estimation of counting terms with
//                      the (eps, delta) Hoeffding contract (DESIGN.md §3f);
//                      sentences and query conditions stay exact
//   --eps              approx relative/frame error bound, in (0, 1)
//                      (default 0.1); only meaningful with --engine approx
//   --delta            approx failure probability, in (0, 1) (default 0.01)
//   --approx-seed      RNG seed for --engine approx (default 1); one seed
//                      fixes every estimate bit-identically across thread
//                      counts and warm/cold contexts
//   --approx-stratify  stratify samples by radius-1 Hanf sphere type
//   --threads          worker threads (0 = all hardware threads, default 1);
//                      results are identical for every value
//   --stats            print plan statistics (layers, cl-terms, fallbacks)
//                      and pipeline/pool counters after evaluation
//   --metrics-json     write pipeline counters, value distributions,
//                      per-phase wall time and pool statistics as JSON
//                      ({"counters","values","phase_ns","pool"})
//   --trace-json       write the phase-span forest as JSON: nested "spans"
//                      plus chrome://tracing / Perfetto "traceEvents"
//   --explain          print the compiled plan tree (formula -> layers ->
//                      marker relations -> cl-terms -> residual) WITHOUT
//                      evaluating. Not available with --batch
//   --explain-analyze  evaluate, then print the plan tree annotated with
//                      per-node wall time, peak bytes and deterministic
//                      pipeline counters. With --batch each statement gets
//                      its own "query"/"check"/... root; cached-artifact
//                      builds (Gaifman graph, covers, sphere typings) appear
//                      as root-level "artifact" nodes charged to the
//                      statement that missed the cache
//   --explain-json     write the explain document as JSON
//                      ({"explain":{"analyzed","nodes":[...]}}); implies
//                      --explain-analyze unless --explain was given
//   --progress         print a per-phase progress snapshot ("cover 8/8
//                      cl_term 120/4096 ...") after every evaluation (per
//                      statement with --batch)
//   --deadline-ms      hard per-statement time budget: a statement past it
//                      is cancelled cooperatively at the next chunk boundary
//                      and reports kDeadlineExceeded with the progress
//                      snapshot; remaining batch statements still run
//   --soft-deadline-ms soft budget: the statement keeps running, but the
//                      expiry is noted on stderr and — when --flight-record
//                      is on — the flight recorder is dumped there, so slow
//                      queries leave a postmortem while still completing
//   --flight-record    enable the in-process flight recorder (ring buffer of
//                      phase/cache/fan-out/watchdog events) and write its
//                      final dump to FILE; also dumped to stderr on soft
//                      expiry and on FOCQ_CHECK failure
//   --openmetrics      write an OpenMetrics/Prometheus text exposition of
//                      the run to FILE: counters as focq_<name>_total, value
//                      distributions as focq_dist_<name> histograms, phase
//                      progress as gauges. With --batch one timestamped
//                      sample is taken per statement (a time series);
//                      otherwise one sample at exit
//
// Examples:
//   focq_cli graph.fs --check 'exists x. @eq(#(y). (E(x, y)), 4)'
//   focq_cli web.edges --edges --count '@ge1(#(y). (E(x, y)) - 10)'
//   focq_cli web.edges --edges --threads=8 --engine cover --count '...'
//       --metrics-json metrics.json --trace-json run.trace.json
//   focq_cli graph.fs --engine cover --batch workload.txt --stats
//   focq_cli graph.fs --update 'insert E 0 5' --update 'delete E 2 3'
//       --count '@ge1(#(y). (E(x, y)) - 2)'
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flags.h"
#include "focq/core/statement.h"
#include "focq/obs/json_export.h"
#include "focq/obs/recorder.h"
#include "focq/util/parse_number.h"
#include "focq/util/thread_pool.h"

namespace {

// Every user-input failure exits 1 with a one-line diagnostic on stderr, so
// scripted drivers (CI, fuzz replay) can branch on the exit code.
int Fail(const std::string& message) {
  std::fprintf(stderr, "focq_cli: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: focq_cli <structure-file> [--edges] "
               "[--engine naive|local|cover|approx] [--threads N] [--stats]\n"
               "                [--eps E] [--delta D] [--approx-seed S] "
               "[--approx-stratify]\n"
               "                [--update 'insert E 0 1']...\n"
               "                [--metrics-json PATH] [--trace-json PATH]\n"
               "                [--explain | --explain-analyze] "
               "[--explain-json PATH]\n"
               "                [--progress] [--deadline-ms N] "
               "[--soft-deadline-ms N]\n"
               "                [--flight-record PATH] [--openmetrics PATH]\n"
               "                (--check S | --count F | --term T "
               "| --batch FILE)\n");
  return 2;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content << "\n";
  return out.good();
}

// Verbatim write — the OpenMetrics format requires '# EOF' to be the last
// line, so no trailing newline may be appended.
bool WriteFileRaw(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace focq;
  if (argc < 2) return Usage();

  std::string path = argv[1];
  EvalFlags eval_flags;
  bool stats = false;
  std::vector<StatementKind> modes;  // --check / --count / --term
  std::string query_text;
  std::string batch_path;
  std::vector<std::string> update_specs;
  std::string metrics_path, trace_path;
  bool explain = false;
  bool explain_analyze = false;
  std::string explain_json_path;
  bool show_progress = false;
  std::string deadline_text = "0", soft_deadline_text = "0";
  std::string flight_path, openmetrics_path;
  ArgReader args(argc, argv, 2);
  while (args.Next()) {
    std::string update;
    if (eval_flags.Consume(&args)) continue;
    if (args.Flag("--stats")) {
      stats = true;
    } else if (args.Flag("--explain")) {
      explain = true;
    } else if (args.Flag("--explain-analyze")) {
      explain_analyze = true;
    } else if (args.Flag("--progress")) {
      show_progress = true;
    } else if (args.Value("--metrics-json", &metrics_path) ||
               args.Value("--trace-json", &trace_path) ||
               args.Value("--explain-json", &explain_json_path) ||
               args.Value("--deadline-ms", &deadline_text) ||
               args.Value("--soft-deadline-ms", &soft_deadline_text) ||
               args.Value("--flight-record", &flight_path) ||
               args.Value("--openmetrics", &openmetrics_path) ||
               args.Value("--batch", &batch_path)) {
    } else if (args.Value("--update", &update)) {
      update_specs.push_back(update);
    } else if (args.Value("--check", &query_text)) {
      modes.push_back(StatementKind::kCheck);
    } else if (args.Value("--count", &query_text)) {
      modes.push_back(StatementKind::kCount);
    } else if (args.Value("--term", &query_text)) {
      modes.push_back(StatementKind::kTerm);
    } else {
      return Usage();
    }
  }
  // Exactly one of a single-statement mode or a batch file.
  if (!args.ok() || modes.size() + (batch_path.empty() ? 0 : 1) != 1) {
    return Usage();
  }

  EvalOptions options;
  if (Status valid = eval_flags.Apply(&options); !valid.ok()) {
    return Fail(valid.message());
  }
  if (!ParseNumber(deadline_text, &options.deadline.hard_ms)) {
    return Fail("--deadline-ms expects a non-negative integer");
  }
  if (!ParseNumber(soft_deadline_text, &options.deadline.soft_ms)) {
    return Fail("--soft-deadline-ms expects a non-negative integer");
  }

  if (explain && explain_analyze) {
    return Fail("--explain and --explain-analyze are mutually exclusive");
  }
  if (!explain_json_path.empty() && !explain) explain_analyze = true;
  // EXPLAIN ANALYZE attributes *deterministic* per-node counters; the approx
  // engine's per-node sample tallies depend on (eps, delta, seed), which
  // would poison that contract — reject the combination outright (including
  // the --explain-json form that implies it).
  if (options.engine == Engine::kApprox && explain_analyze) {
    return Fail("--engine approx cannot be combined with --explain-analyze");
  }
  if (explain && !batch_path.empty()) {
    return Fail("--explain needs a single statement; "
                "use --explain-analyze with --batch");
  }

  MetricsSink metrics_sink;
  TraceSink trace_sink;
  ExplainSink explain_sink;
  ProgressSink progress_sink;
  OpenMetricsSeries om_series;
  if (!metrics_path.empty() || stats) options.metrics = &metrics_sink;
  // The metrics document embeds per-phase wall time, so tracing is on for
  // either export.
  if (!trace_path.empty() || !metrics_path.empty()) options.trace = &trace_sink;
  if (explain_analyze) {
    options.explain = &explain_sink;
    // Per-node counters are deltas of the flat sink, so analysis always
    // installs it.
    options.metrics = &metrics_sink;
  }
  // The exporter's counter/histogram families come off the metrics sink, so
  // --openmetrics implies it; progress gauges need the progress sink.
  if (!openmetrics_path.empty()) options.metrics = &metrics_sink;
  if (show_progress || options.deadline.armed() || !openmetrics_path.empty()) {
    options.progress = &progress_sink;
  }
  if (!flight_path.empty()) FlightRecorder::Global().Enable();
  // Soft expiry: note it on stderr and leave a postmortem (the statement
  // keeps running; the callback fires at most once per statement).
  progress_sink.SetSoftExpiryCallback([&progress_sink] {
    std::fprintf(stderr, "focq_cli: soft deadline expired after %lld ms: %s\n",
                 static_cast<long long>(progress_sink.ElapsedMs()),
                 progress_sink.ToString().c_str());
    FlightRecorder& recorder = FlightRecorder::Global();
    if (recorder.enabled()) {
      std::fprintf(stderr, "%s", recorder.Dump().c_str());
    }
  });

  Result<Structure> structure = eval_flags.LoadStructure(path);
  if (!structure.ok()) return Fail(structure.status().ToString());
  std::printf("structure: %zu elements, ||A|| = %zu\n",
              structure->Order(), structure->SizeNorm());

  // --update specs mutate the loaded structure before any evaluation (and
  // before the batch Session is constructed, so its caches are built against
  // the updated structure). The updater has no sinks: these updates stay out
  // of every export.
  {
    Session updater(&structure.value());
    for (const std::string& spec : update_specs) {
      Result<std::string> applied =
          updater.Execute(StatementKind::kUpdate, spec);
      if (!applied.ok()) {
        return Fail("--update '" + spec + "': " +
                    applied.status().ToString());
      }
      std::printf("update: %s (%s)\n", spec.c_str(), applied->c_str());
    }
  }

  auto print_stats = [&](const Result<EvalPlan>& plan) {
    if (!plan.ok()) return;
    EvalPlan::Stats s = plan->ComputeStats();
    std::printf(
        "plan: %zu layers, %zu marker relations (%zu fallback), "
        "%zu basic cl-terms, max width %d, max radius %u\n",
        s.num_layers, s.num_relations, s.num_fallback_relations,
        s.num_basic_cl_terms, s.max_width, s.max_radius);
  };

  // Shared epilogue: pool statistics under --stats, JSON exports when asked.
  auto finish = [&](int rc) {
    if (explain_analyze) {
      ExplainReport report = explain_sink.Snapshot();
      std::printf("%s", report.ToText().c_str());
      if (!explain_json_path.empty() &&
          !WriteFile(explain_json_path, ComposeExplainJson(report))) {
        return Fail("cannot write '" + explain_json_path + "'");
      }
    }
    if (stats) {
      for (const auto& [name, value] : metrics_sink.Snapshot().counters) {
        std::printf("metric %s = %lld\n", name.c_str(),
                    static_cast<long long>(value));
      }
      ThreadPool::Stats pool = ThreadPool::Shared().GetStats();
      std::printf("pool: %d workers, %lld tasks submitted, "
                  "%lld executed, %lld steals, busy %.3f ms\n",
                  ThreadPool::Shared().num_workers(),
                  static_cast<long long>(pool.tasks_submitted),
                  static_cast<long long>(pool.tasks_executed),
                  static_cast<long long>(pool.steals),
                  static_cast<double>(pool.busy_ns) / 1e6);
    }
    if (!metrics_path.empty()) {
      std::string json = ComposeMetricsJson(metrics_sink.Snapshot(),
                                            trace_sink);
      if (!WriteFile(metrics_path, json)) {
        return Fail("cannot write '" + metrics_path + "'");
      }
    }
    if (!trace_path.empty()) {
      if (!WriteFile(trace_path, ComposeTraceJson(trace_sink))) {
        return Fail("cannot write '" + trace_path + "'");
      }
    }
    if (show_progress) {
      std::printf("progress: %s (%lld ms)\n", progress_sink.ToString().c_str(),
                  static_cast<long long>(progress_sink.ElapsedMs()));
    }
    if (!openmetrics_path.empty()) {
      // Single-statement runs never routed through a sampling Session; take
      // the one end-of-run sample here.
      if (om_series.sample_count() == 0) {
        om_series.Sample(UnixMillisNow(), metrics_sink.Snapshot(),
                         options.progress);
      }
      if (!WriteFileRaw(openmetrics_path, om_series.Render())) {
        return Fail("cannot write '" + openmetrics_path + "'");
      }
    }
    if (!flight_path.empty()) {
      if (!WriteFile(flight_path, FlightRecorder::Global().Dump())) {
        return Fail("cannot write '" + flight_path + "'");
      }
    }
    return rc;
  };

  if (!batch_path.empty()) {
    std::ifstream batch_in(batch_path);
    if (!batch_in) return Fail("cannot open '" + batch_path + "'");
    // One Session for the whole file: every statement shares the context's
    // Gaifman graph, covers and sphere typings (README, "Batch workloads").
    // Constructed over the mutable structure so "update" lines can repair
    // the cached artifacts in place instead of discarding them.
    Session session(&structure.value(), options);
    // One timestamped OpenMetrics sample per statement: the batch becomes a
    // scrapeable time series of the session's cumulative state.
    if (!openmetrics_path.empty()) {
      session.EnableOpenMetricsSampling(&om_series);
    }
    int evaluated = 0;
    int failed = [&] {
      // Root span closed before finish() reads the sink.
      ScopedSpan root(options.trace, "batch_eval");
      std::string line;
      int lineno = 0;
      int errors = 0;
      while (std::getline(batch_in, line)) {
        ++lineno;
        std::size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#') continue;
        std::size_t split = line.find_first_of(" \t", start);
        std::string word = line.substr(start, split - start);
        std::string_view text = std::string_view(line).substr(
            split == std::string::npos ? line.size() : split + 1);
        // Statement boundaries anchor the flight-recorder timeline.
        FlightRecord(FlightEventKind::kMark, word, lineno);
        std::optional<StatementKind> kind = ParseStatementKind(word);
        if (!kind.has_value()) {
          Fail("line " + std::to_string(lineno) +
               ": expected 'check', 'count', 'term' or 'update', got '" +
               word + "'");
          return -1;
        }
        // Every statement counts towards the summary totals — update lines
        // included, so "N statements, M failed" always has M <= N (a batch
        // of only failing updates used to report "0 statements, 3 failed").
        ++evaluated;
        Result<std::string> result = session.Execute(*kind, text);
        if (result.ok()) {
          std::printf("line %d: %s: %s\n", lineno, word.c_str(),
                      result->c_str());
        } else {
          std::printf("line %d: %s: error: %s\n", lineno, word.c_str(),
                      result.status().ToString().c_str());
          ++errors;
        }
        // Per-statement progress snapshot under --progress (counters are
        // cumulative across the batch, like the metrics sink).
        if (show_progress && *kind != StatementKind::kUpdate) {
          std::printf("line %d: progress: %s\n", lineno,
                      progress_sink.ToString().c_str());
        }
      }
      return errors;
    }();
    if (failed < 0) return 1;  // malformed input: diagnostic already printed
    EvalContext::CacheStats cache = session.context().cache_stats();
    std::printf("batch: %d statements, %d failed; cache %lld hits, "
                "%lld misses, ~%lld bytes\n",
                evaluated, failed, static_cast<long long>(cache.hits),
                static_cast<long long>(cache.misses),
                static_cast<long long>(cache.bytes));
    return finish(failed == 0 ? 0 : 1);
  }

  // Single statement: a malformed one exits with its diagnostic before any
  // export is written.
  Result<Statement> statement =
      Statement::Parse(modes.front(), query_text, structure->signature());
  if (!statement.ok()) return Fail(statement.status().ToString());

  // Plain EXPLAIN: compile, materialise the plan tree, print, done — the
  // structure is never touched beyond its signature. The plan is the one
  // evaluation would run (Statement::Compile).
  if (explain) {
    Result<EvalPlan> plan = statement->Compile(structure->signature());
    if (!plan.ok()) return Fail(plan.status().ToString());
    if (stats) print_stats(plan);
    RegisterPlanNodes(&explain_sink, *plan, -1);
    ExplainReport report = explain_sink.Snapshot();
    std::printf("%s", report.ToText().c_str());
    if (!explain_json_path.empty() &&
        !WriteFile(explain_json_path, ComposeExplainJson(report))) {
      return Fail("cannot write '" + explain_json_path + "'");
    }
    return 0;
  }

  if (stats) print_stats(statement->Compile(structure->signature()));
  // A root span per run so phase_ns carries an end-to-end total; closed
  // before finish() reads the sink (open spans are excluded from exports).
  Result<std::string> result = [&] {
    ScopedSpan root(options.trace, "query_eval");
    return statement->Execute(*structure, options);
  }();
  // Deadline expiries and other evaluation failures still flush the
  // observability exports — that postmortem is what they are for.
  if (!result.ok()) return finish(Fail(result.status().ToString()));
  const char* label = statement->kind() == StatementKind::kCheck   ? "result"
                      : statement->kind() == StatementKind::kCount ? "solutions"
                                                                   : "value";
  std::printf("%s: %s\n", label, result->c_str());
  return finish(*result == "false" ? 3 : 0);  // shell-friendly: 3 = "false"
}
