// Shared benchmark entry point: every bench binary writes a machine-readable
// result file by default. Unless the caller passes --benchmark_out, results
// go to BENCH_<experiment>.json in the working directory (JSON format), where
// <experiment> is the executable name minus its "bench_" prefix — so
// `./bench_scaling` drops BENCH_scaling.json next to itself and CI/scripts
// can harvest the counters without extra flags. Explicit --benchmark_out
// flags win.
//
// Every result file also carries focq's own build provenance in its
// "context": focq_build_type, focq_compiler, focq_cxx_flags and focq_git_sha
// (set by bench/CMakeLists.txt). focq_benchdiff prints them and warns when
// two stamped files were built differently.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

int main(int argc, char** argv) {
  std::string name = argc > 0 ? argv[0] : "bench";
  std::size_t slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);

  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }

  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_" + name + ".json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  benchmark::AddCustomContext("focq_build_type", FOCQ_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("focq_compiler", FOCQ_BENCH_COMPILER);
  benchmark::AddCustomContext("focq_cxx_flags", FOCQ_BENCH_CXX_FLAGS);
  benchmark::AddCustomContext("focq_git_sha", FOCQ_BENCH_GIT_SHA);
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
