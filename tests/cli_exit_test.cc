// End-to-end exit-code contract of focq_cli: scripted drivers (CI smoke
// tests, fuzz replay wrappers) branch on exit codes, so bad input must exit
// 1 with a one-line diagnostic — never abort. Exercises the focq_cli binary
// itself via its path baked in from CMake.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#ifndef FOCQ_CLI_PATH
#error "FOCQ_CLI_PATH must name the focq_cli binary (set in CMakeLists.txt)"
#endif

namespace focq {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

// Runs a tool binary, capturing combined output and the exit code. A command
// that dies on a signal (e.g. an abort) reports exit_code >= 128.
RunResult RunTool(const std::string& binary, const std::string& args) {
  std::string command = binary + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 512> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    r.output += buffer.data();
  }
  int status = pclose(pipe);
  if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    r.exit_code = 128 + WTERMSIG(status);
  }
  return r;
}

RunResult RunCli(const std::string& args) {
  return RunTool(FOCQ_CLI_PATH, args);
}

int CountLines(const std::string& text) {
  int lines = 0;
  for (char c : text) lines += c == '\n';
  return lines;
}

class CliExitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("focq_cli_exit_" +
            std::to_string(getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
    edges_path_ = (dir_ / "ok.edges").string();
    std::ofstream(edges_path_) << "0 1\n1 2\n2 3\n";
    structure_path_ = (dir_ / "ok.fs").string();
    std::ofstream(structure_path_) << "universe 3\nrelation E 2\n0 1\n1 0\n";
    bad_structure_path_ = (dir_ / "bad.fs").string();
    std::ofstream(bad_structure_path_) << "universe 3\nrelation E 2\n0 9\n";
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
  std::string edges_path_;
  std::string structure_path_;
  std::string bad_structure_path_;
};

TEST_F(CliExitTest, ValidQueryExitsZero) {
  RunResult r = RunCli(structure_path_ + " --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("solutions: 2"), std::string::npos) << r.output;
}

TEST_F(CliExitTest, FalseSentenceExitsThree) {
  RunResult r =
      RunCli(edges_path_ + " --edges --check 'exists x. E(x, x)'");
  EXPECT_EQ(r.exit_code, 3) << r.output;
}

TEST_F(CliExitTest, UnparsableQueryExitsOneWithOneLineDiagnostic) {
  RunResult r = RunCli(structure_path_ + " --count '(((E(x, y)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // One structure banner line plus exactly one diagnostic line.
  EXPECT_EQ(CountLines(r.output), 2) << r.output;
  EXPECT_NE(r.output.find("focq_cli:"), std::string::npos) << r.output;
}

TEST_F(CliExitTest, UnknownRelationSymbolExitsOne) {
  RunResult r = RunCli(structure_path_ + " --check 'exists x. Q(x)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unknown relation symbol"), std::string::npos)
      << r.output;
}

TEST_F(CliExitTest, ArityMismatchExitsOne) {
  RunResult r = RunCli(structure_path_ + " --check 'exists x. E(x)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("arity"), std::string::npos) << r.output;
}

TEST_F(CliExitTest, ArityMismatchInTermExitsOne) {
  RunResult r = RunCli(structure_path_ + " --term '#(x). (E(x))'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("arity"), std::string::npos) << r.output;
}

TEST_F(CliExitTest, UnreadableStructureExitsOne) {
  RunResult r = RunCli((dir_ / "missing.fs").string() + " --count 'true'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(CountLines(r.output), 1) << r.output;
}

TEST_F(CliExitTest, MalformedStructureExitsOne) {
  RunResult r = RunCli(bad_structure_path_ + " --count 'true'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(CountLines(r.output), 1) << r.output;
}

TEST_F(CliExitTest, NegativeUniverseExitsOneWithOneLineDiagnostic) {
  std::string path = (dir_ / "negative.fs").string();
  std::ofstream(path) << "universe -1\nrelation E 2\n0 1\n";
  RunResult r = RunCli(path + " --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(CountLines(r.output), 1) << r.output;
  EXPECT_NE(r.output.find("INVALID_ARGUMENT: line 1:"), std::string::npos)
      << r.output;
}

TEST_F(CliExitTest, UpdateFlagAppliesBeforeEvaluation) {
  RunResult r = RunCli(structure_path_ +
                       " --update 'insert E 1 2' --update 'insert E 1 2'"
                       " --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("update: insert E 1 2 (applied)"),
            std::string::npos) << r.output;
  EXPECT_NE(r.output.find("update: insert E 1 2 (noop)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("solutions: 3"), std::string::npos) << r.output;
}

TEST_F(CliExitTest, MalformedUpdateSpecExitsOne) {
  RunResult r = RunCli(structure_path_ +
                       " --update 'insert Q 0' --count 'true'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("--update 'insert Q 0'"), std::string::npos)
      << r.output;
}

TEST_F(CliExitTest, BatchUpdateLinesMutateTheSharedSession) {
  std::string batch_path = (dir_ / "workload.txt").string();
  std::ofstream(batch_path) << "count E(x, y)\n"
                            << "update insert E 2 0\n"
                            << "count E(x, y)\n"
                            << "update delete E 2 0\n"
                            << "count E(x, y)\n";
  RunResult r = RunCli(structure_path_ + " --batch " + batch_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("line 1: count: 2"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("line 2: update: applied"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("line 3: count: 3"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("line 5: count: 2"), std::string::npos) << r.output;
}

TEST_F(CliExitTest, ApproxEngineCountExitsZero) {
  // Frame 9 fits inside the default budget, so the estimate is exact and the
  // output matches the exact engines bit-for-bit.
  RunResult r = RunCli(structure_path_ +
                       " --engine approx --approx-seed 7 --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("solutions: 2"), std::string::npos) << r.output;
}

TEST_F(CliExitTest, EpsOutOfRangeExitsOneWithOneLineDiagnostic) {
  for (const std::string bad : {"0", "1", "-0.5", "2"}) {
    RunResult r = RunCli(structure_path_ + " --engine approx --eps " + bad +
                         " --count 'E(x, y)'");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(CountLines(r.output), 1) << r.output;
    EXPECT_NE(r.output.find("approx eps must lie in (0, 1)"),
              std::string::npos) << r.output;
  }
  // Garbage that does not even parse as a number gets its own diagnostic.
  RunResult r = RunCli(structure_path_ +
                       " --engine approx --eps nope --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("--eps expects a number in (0, 1)"),
            std::string::npos) << r.output;
}

TEST_F(CliExitTest, DeltaOutOfRangeExitsOneEvenForExactEngines) {
  RunResult r = RunCli(structure_path_ +
                       " --engine approx --delta 1 --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(CountLines(r.output), 1) << r.output;
  EXPECT_NE(r.output.find("approx delta must lie in (0, 1)"),
            std::string::npos) << r.output;
  // The knobs are validated up front for every engine, so a typo never
  // silently changes the contract of a later approx run.
  r = RunCli(structure_path_ + " --delta 1 --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(CountLines(r.output), 1) << r.output;
}

TEST_F(CliExitTest, ApproxWithExplainAnalyzeExitsOne) {
  RunResult r = RunCli(structure_path_ +
                       " --engine approx --explain-analyze --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(CountLines(r.output), 1) << r.output;
  EXPECT_NE(
      r.output.find("--engine approx cannot be combined with --explain-analyze"),
      std::string::npos) << r.output;
}

TEST_F(CliExitTest, UsageErrorsExitTwo) {
  EXPECT_EQ(RunCli("").exit_code, 2);
  EXPECT_EQ(RunCli(structure_path_).exit_code, 2);
  EXPECT_EQ(RunCli(structure_path_ + " --bogus-flag --count 'true'")
                .exit_code, 2);
}

// std::stoull accepts a leading '-' and wraps modulo 2^64, so "-1" used to
// silently become 18446744073709551615 — a different RNG stream than asked
// for. The seed is parsed before the structure loads, so the diagnostic is
// the only output line.
TEST_F(CliExitTest, NegativeApproxSeedExitsOne) {
  RunResult r = RunCli(structure_path_ +
                       " --engine approx --approx-seed -1 --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(CountLines(r.output), 1) << r.output;
  EXPECT_NE(r.output.find("--approx-seed expects a non-negative integer"),
            std::string::npos) << r.output;
  // Other stoull-reachable junk is rejected the same way.
  r = RunCli(structure_path_ +
             " --engine approx --approx-seed=+3 --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  r = RunCli(structure_path_ +
             " --engine approx --approx-seed 0x10 --count 'E(x, y)'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

TEST_F(CliExitTest, BenchdiffFailsOnCounterDriftButNotOnRates) {
  auto write_run = [&](const std::string& name, double items_per_second,
                       double clusters) {
    std::string path = (dir_ / name).string();
    std::ofstream(path)
        << R"({"benchmarks": [{"name": "BM_A", "run_type": "iteration",)"
        << R"( "iterations": 10, "real_time": 1.0, "cpu_time": 1.0,)"
        << R"( "time_unit": "ms", "items_per_second": )" << items_per_second
        << R"(, "ns_per_elem": )" << items_per_second / 7
        << R"(, "clusters": )" << clusters << "}]}";
    return path;
  };
  std::string base = write_run("base.json", 1000, 5);
  std::string faster = write_run("faster.json", 2000, 5);
  std::string drifted = write_run("drifted.json", 1000, 6);
  RunResult r = RunTool(FOCQ_BENCHDIFF_PATH, base + " " + faster);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 counter changes"), std::string::npos) << r.output;
  r = RunTool(FOCQ_BENCHDIFF_PATH, base + " " + drifted);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("BM_A: clusters 5 -> 6"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 counter change(s)"), std::string::npos)
      << r.output;
}

TEST_F(CliExitTest, FuzzRejectsNegativeSeedWithUsage) {
  // Same stoull wraparound existed in focq_fuzz's parse_u64; a negative
  // seed must be a usage error (exit 2), not a silently huge seed.
  RunResult r = RunTool(FOCQ_FUZZ_PATH, "--seed -1 --cases 1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;

  // A number with trailing junk is a usage error too, not a 5 s budget.
  r = RunTool(FOCQ_FUZZ_PATH, "--time-budget 5xyz --cases 1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

// Batch totals count every statement kind. A batch of only failing updates
// used to report "0 statements, 3 failed".
TEST_F(CliExitTest, BatchSummaryCountsUpdateStatements) {
  std::string batch_path = (dir_ / "updates.batch").string();
  // Element 9 is outside the 3-element universe: parse succeeds (the bounds
  // check is an evaluation-time error), apply fails, batch continues.
  std::ofstream(batch_path) << "update insert E 0 9\n"
                               "update insert E 0 9\n"
                               "update insert E 0 9\n";
  RunResult r = RunCli(structure_path_ + " --batch " + batch_path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("batch: 3 statements, 3 failed"),
            std::string::npos) << r.output;
}

TEST_F(CliExitTest, BatchSummaryCountsMixedStatements) {
  std::string batch_path = (dir_ / "mixed.batch").string();
  std::ofstream(batch_path) << "check exists x. E(x, x)\n"
                               "update insert E 0 2\n"
                               "count E(x, y)\n"
                               "update insert E 0 9\n";
  RunResult r = RunCli(structure_path_ + " --batch " + batch_path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("line 2: update: applied"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("batch: 4 statements, 1 failed"),
            std::string::npos) << r.output;
}

// A malformed statement in a batch is answered on its line, exactly as
// focq_serve answers it, and the batch carries on: the serial replay of a
// served stream must be able to contain one.
TEST_F(CliExitTest, BatchReportsMalformedStatementsAndContinues) {
  std::string path4 = (dir_ / "path4.fs").string();
  std::ofstream(path4) << "universe 4\nrelation E 2\n0 1\n1 2\n2 3\n";
  std::string batch_path = (dir_ / "malformed.batch").string();
  std::ofstream(batch_path) << "count E(x, y)\n"
                               "check (((broken\n"
                               "count E(x, y)\n"
                               "update insert Q 0\n"
                               "count E(x, y)\n";
  RunResult r = RunCli(path4 + " --batch " + batch_path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("line 1: count: 3\n"
                          "line 2: check: error: INVALID_ARGUMENT: "
                          "unexpected identifier 'broken' at offset 3\n"
                          "line 3: count: 3\n"
                          "line 4: update: error: NOT_FOUND: "
                          "unknown relation symbol 'Q'\n"
                          "line 5: count: 3\n"
                          "batch: 5 statements, 2 failed"),
            std::string::npos)
      << r.output;

  // An unknown kind word is still a fatal grammar error.
  std::ofstream(batch_path) << "count E(x, y)\nbogus E(x, y)\n";
  r = RunCli(path4 + " --batch " + batch_path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("line 2: expected 'check', 'count', 'term' or "
                          "'update', got 'bogus'"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("batch:"), std::string::npos) << r.output;
}

// Plain EXPLAIN shows the plan evaluation runs: for a count with free
// variables that is the counting term #(x, y). phi, exactly what EXPLAIN
// ANALYZE reports after evaluating it.
TEST_F(CliExitTest, ExplainAndExplainAnalyzeShowTheSamePlan) {
  auto plan_line = [](const std::string& output) {
    const std::size_t start = output.find("plan: ");
    if (start == std::string::npos) return std::string();
    const std::size_t end = output.find_first_of("[\n", start);
    std::string line = output.substr(start, end - start);
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line;
  };
  for (const std::string count : {"E(x, y)", "@ge1(#(y). (E(x, y)) - 1)"}) {
    RunResult plain = RunCli(structure_path_ + " --explain --count '" +
                             count + "'");
    RunResult analyzed = RunCli(structure_path_ +
                                " --explain-analyze --count '" + count + "'");
    ASSERT_EQ(plain.exit_code, 0) << plain.output;
    ASSERT_EQ(analyzed.exit_code, 0) << analyzed.output;
    EXPECT_NE(plan_line(plain.output), "") << plain.output;
    EXPECT_EQ(plan_line(plain.output), plan_line(analyzed.output))
        << plain.output << analyzed.output;
  }
  // --stats prints the same plan beside the metric the evaluation recorded.
  RunResult r = RunCli(structure_path_ + " --stats --count 'E(x, y)'");
  EXPECT_NE(r.output.find("1 basic cl-terms"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("metric plan.basic_cl_terms = 1"),
            std::string::npos)
      << r.output;
}

// Every tool takes the shared evaluation flags in both forms: focq_serve
// used to reject --eps=V with usage. Here it parses, so the run gets as far
// as loading the (missing) structure and fails there with exit 1.
TEST_F(CliExitTest, ServeAcceptsEqualsFormOfEvaluationFlags) {
  RunResult r = RunTool(FOCQ_SERVE_PATH, (dir_ / "missing.fs").string() +
                                             " --eps=0.2 --engine=approx");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output.find("usage:"), std::string::npos) << r.output;
}

}  // namespace
}  // namespace focq
