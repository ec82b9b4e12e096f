// Perf-regression comparison of two Google-Benchmark JSON outputs (the
// BENCH_*.json files bench/main.cc writes): per-experiment real time plus
// every focq user counter attached to the rows, compared by name with
// relative thresholds, rendered as a markdown or JSON report. This is the
// library behind `tools/focq_benchdiff` and the CI perf-smoke job that diffs
// fresh runs against the committed snapshots in bench/baselines/.
//
// Timings are machine- and load-dependent, so the default posture is
// warn-only: a regression is *reported*, and the caller decides whether it
// fails the build (the CLI's --strict). Rate counters (items_per_second,
// bytes_per_second, ns_per_*) are timings too and are not compared. Counter
// changes, by contrast, are deterministic for fixed seeds — any drift means
// the pipeline itself changed shape — so their default threshold is exact
// equality, and the CLI fails on any.
//
// Each file may carry focq's build stamp (the focq_* "context" fields
// bench/main.cc writes); the report prints both stamps and names the build
// fields that differ.
#ifndef FOCQ_OBS_BENCHDIFF_H_
#define FOCQ_OBS_BENCHDIFF_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "focq/util/status.h"

namespace focq {

/// One benchmark row ("run_type": "iteration"): its timings and the numeric
/// user counters benchmark attaches directly to the row object.
struct BenchRow {
  std::string name;
  double real_time = 0.0;  // in `time_unit`
  double cpu_time = 0.0;
  std::string time_unit;  // "ns", "us", "ms", "s"
  std::map<std::string, double> counters;  // focq user counters
};

/// A parsed benchmark file: rows keyed by benchmark name (aggregate rows
/// like _mean/_stddev and non-iteration run types are skipped).
struct BenchRun {
  std::vector<BenchRow> rows;
  // focq's build stamp: the "focq_*" string fields of the file's "context"
  // (focq_build_type, focq_compiler, focq_cxx_flags, focq_git_sha). Empty
  // for an unstamped file.
  std::map<std::string, std::string> build;
};

/// Parses the Google Benchmark JSON output format (top-level "benchmarks"
/// array, optional "context" object). Unknown fields are ignored; rows with
/// "run_type" other than "iteration" are dropped.
Result<BenchRun> ParseBenchJson(const std::string& json);

struct BenchDiffOptions {
  // Relative real-time change above which a row counts as a regression /
  // improvement. 0.30 tolerates normal scheduler noise on shared runners.
  double time_threshold = 0.30;
  // Relative counter change above which a counter change is reported.
  // Deterministic counters should match exactly, hence 0.
  double counter_threshold = 0.0;
};

/// One compared benchmark row.
struct BenchDiffEntry {
  std::string name;
  double base_time = 0.0;
  double current_time = 0.0;
  std::string time_unit;
  double time_ratio = 0.0;  // current / base (0 when base is 0)
  bool regression = false;  // time grew beyond the threshold
  bool improvement = false;
  // Counters whose relative change exceeded counter_threshold:
  // name -> (base, current).
  std::map<std::string, std::pair<double, double>> counter_changes;
};

/// The full comparison.
struct BenchDiffReport {
  std::vector<BenchDiffEntry> compared;  // rows present in both runs
  std::vector<std::string> added;        // only in the current run
  std::vector<std::string> removed;      // only in the base run
  std::map<std::string, std::string> base_build;     // BenchRun::build
  std::map<std::string, std::string> current_build;
  BenchDiffOptions options;

  std::size_t NumRegressions() const;
  std::size_t NumImprovements() const;
  std::size_t NumCounterChanges() const;

  /// Stamp fields whose values differ when both runs are stamped; empty
  /// otherwise. focq_git_sha is not compared: a diff spans two commits by
  /// design, while a different build type, compiler or flag set makes the
  /// timings incomparable.
  std::vector<std::string> BuildDifferences() const;

  /// Markdown report: both build stamps (and a warning naming the fields
  /// that differ), summary line, a table of compared rows, counter changes,
  /// and the added/removed lists.
  std::string ToMarkdown() const;

  /// JSON report:
  ///   {"benchdiff": {"time_threshold":..,"counter_threshold":..,
  ///                  "compared":N,"regressions":N,"improvements":N,
  ///                  "counter_changes":N,"added":[..],"removed":[..],
  ///                  "entries":[{"name","base_time","current_time",
  ///                              "time_unit","time_ratio","regression",
  ///                              "improvement","counter_changes":{...}}]},
  ///    "builds": {"base":{"focq_build_type":..,...},"current":{...}}}
  /// (an unstamped file's build object is empty).
  std::string ToJson() const;
};

/// Compares `current` against `base`, row by name.
BenchDiffReport DiffBenchRuns(const BenchRun& base, const BenchRun& current,
                              const BenchDiffOptions& options = {});

}  // namespace focq

#endif  // FOCQ_OBS_BENCHDIFF_H_
