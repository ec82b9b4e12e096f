// focq_benchdiff — compares two Google-Benchmark JSON outputs and reports
// per-experiment time changes and focq counter drift. The report starts with
// both files' focq build stamps (see bench/main.cc).
//
// Usage:
//   focq_benchdiff BASE.json CURRENT.json [options]
//
// Options:
//   --time-threshold X     relative real-time change that counts as a
//                          regression/improvement (default 0.30)
//   --warn-pct P           same threshold in percent (P=25 means +25%);
//                          overrides --time-threshold. Regressions past it
//                          are reported (warn-only unless --strict)
//   --fail-pct P           hard-fail threshold in percent: any benchmark
//                          slower than base by more than P% exits 1, no
//                          --strict needed. Use a warn band below a fail
//                          band (--warn-pct 15 --fail-pct 40) to surface
//                          drift early without flaking CI on noise
//   --counter-threshold X  relative counter change that counts as drift
//                          (default 0 = exact match required)
//   --format markdown|json report format (default markdown)
//   --out PATH             write the report to PATH instead of stdout
//   --strict               exit 1 when regressions past the warn threshold
//                          are found (default is warn-only: always exit 0 on
//                          a successful compare)
//
// Counters (everything on a row except its timings and the rate counters
// items_per_second, bytes_per_second and ns_per_*) are deterministic for the
// fixed benchmark seeds, so any counter change exits 1: the benchmarks did
// different work. Two stamped files built differently (build type, compiler
// or flags) get a warning; that alone never changes the exit code.
//
// Exit codes: 0 compare succeeded (regardless of time regressions unless
// --strict/--fail-pct), 1 counter changes, regressions under --strict or
// past --fail-pct, 2 usage/IO/parse errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "focq/obs/benchdiff.h"
#include "focq/util/parse_number.h"

namespace {

void PrintUsage() {
  std::cerr
      << "usage: focq_benchdiff BASE.json CURRENT.json [options]\n"
         "  --time-threshold X     relative time change = regression "
         "(default 0.30)\n"
         "  --warn-pct P           warn threshold in percent (overrides "
         "--time-threshold)\n"
         "  --fail-pct P           exit 1 when any time regresses past P% "
         "(no --strict needed)\n"
         "  --counter-threshold X  relative counter change that counts as "
         "drift (default 0); any drift exits 1\n"
         "  --format markdown|json report format (default markdown)\n"
         "  --out PATH             write report to PATH (default stdout)\n"
         "  --strict               exit 1 when regressions are found\n";
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path;
  std::string current_path;
  std::string format = "markdown";
  std::string out_path;
  bool strict = false;
  double fail_pct = -1.0;
  focq::BenchDiffOptions options;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "focq_benchdiff: " << argv[i] << " needs a value\n";
      std::exit(2);
    }
    return argv[i + 1];
  };
  // Strict: "abc" or "40x" is a usage error, never a silent 0% or 40%.
  auto need_number = [&](int i) -> double {
    const char* value = need_value(i);
    double number = 0.0;
    if (!focq::ParseNumber(value, &number)) {
      std::cerr << "focq_benchdiff: " << argv[i] << " expects a number, got '"
                << value << "'\n";
      std::exit(2);
    }
    return number;
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--time-threshold") == 0) {
      options.time_threshold = need_number(i);
      ++i;
    } else if (std::strcmp(arg, "--warn-pct") == 0) {
      options.time_threshold = need_number(i) / 100.0;
      ++i;
    } else if (std::strcmp(arg, "--fail-pct") == 0) {
      fail_pct = need_number(i);
      ++i;
      if (fail_pct < 0) {
        std::cerr << "focq_benchdiff: --fail-pct expects a percentage >= 0\n";
        return 2;
      }
    } else if (std::strcmp(arg, "--counter-threshold") == 0) {
      options.counter_threshold = need_number(i);
      ++i;
    } else if (std::strcmp(arg, "--format") == 0) {
      format = need_value(i);
      ++i;
      if (format != "markdown" && format != "json") {
        std::cerr << "focq_benchdiff: unknown format '" << format << "'\n";
        return 2;
      }
    } else if (std::strcmp(arg, "--out") == 0) {
      out_path = need_value(i);
      ++i;
    } else if (std::strcmp(arg, "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage();
      return 0;
    } else if (arg[0] == '-') {
      std::cerr << "focq_benchdiff: unknown option '" << arg << "'\n";
      PrintUsage();
      return 2;
    } else if (base_path.empty()) {
      base_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      std::cerr << "focq_benchdiff: too many positional arguments\n";
      PrintUsage();
      return 2;
    }
  }
  if (base_path.empty() || current_path.empty()) {
    PrintUsage();
    return 2;
  }

  std::string base_text;
  std::string current_text;
  if (!ReadFile(base_path, &base_text)) {
    std::cerr << "focq_benchdiff: cannot read " << base_path << "\n";
    return 2;
  }
  if (!ReadFile(current_path, &current_text)) {
    std::cerr << "focq_benchdiff: cannot read " << current_path << "\n";
    return 2;
  }

  focq::Result<focq::BenchRun> base = focq::ParseBenchJson(base_text);
  if (!base.ok()) {
    std::cerr << "focq_benchdiff: " << base_path << ": "
              << base.status().message() << "\n";
    return 2;
  }
  focq::Result<focq::BenchRun> current = focq::ParseBenchJson(current_text);
  if (!current.ok()) {
    std::cerr << "focq_benchdiff: " << current_path << ": "
              << current.status().message() << "\n";
    return 2;
  }

  focq::BenchDiffReport report = focq::DiffBenchRuns(*base, *current, options);
  std::string rendered =
      format == "json" ? report.ToJson() : report.ToMarkdown();

  if (out_path.empty()) {
    std::cout << rendered;
    if (!rendered.empty() && rendered.back() != '\n') std::cout << "\n";
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "focq_benchdiff: cannot write " << out_path << "\n";
      return 2;
    }
    out << rendered;
  }

  if (std::vector<std::string> fields = report.BuildDifferences();
      !fields.empty()) {
    std::cerr << "focq_benchdiff: warning: " << base_path << " and "
              << current_path << " were built differently:";
    for (const std::string& field : fields) std::cerr << " " << field;
    std::cerr << "\n";
  }
  int rc = 0;
  if (report.NumCounterChanges() > 0) {
    std::cerr << "focq_benchdiff: " << report.NumCounterChanges()
              << " counter change(s) vs " << base_path
              << ": the benchmarks did different work\n";
    rc = 1;
  }
  if (report.NumRegressions() > 0) {
    std::cerr << "focq_benchdiff: " << report.NumRegressions()
              << " regression(s) vs " << base_path
              << (strict ? "" : " (warn-only; pass --strict to fail)") << "\n";
    if (strict) rc = 1;
  }
  // The fail band is evaluated independently of the warn band: re-diff at
  // the stricter threshold so warn-level noise cannot flip the exit code.
  if (fail_pct >= 0) {
    focq::BenchDiffOptions fail_options = options;
    fail_options.time_threshold = fail_pct / 100.0;
    focq::BenchDiffReport fail_report =
        focq::DiffBenchRuns(*base, *current, fail_options);
    if (fail_report.NumRegressions() > 0) {
      std::cerr << "focq_benchdiff: " << fail_report.NumRegressions()
                << " regression(s) past --fail-pct " << fail_pct << "\n";
      rc = 1;
    }
  }
  return rc;
}
