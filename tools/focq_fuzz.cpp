// focq differential fuzzer: random FOC1(P) queries over random structures,
// evaluated with the naive oracle and the Theorem 6.10 pipeline under every
// cover backend and several thread counts. Any disagreement is shrunk to a
// minimal repro, written as a replayable .case file and printed as a C++
// snippet.
//
// Usage:
//   focq_fuzz [--seed S] [--cases N] [--max-universe M] [--class NAME]
//             [--updates K] [--time-budget SECONDS] [--out DIR]
//             [--soft-deadline-ms MAX] [--dump] [--stats]
//             [--engine local|approx] [--eps E] [--delta D]
//             [--approx-seed S] [--trials K]
//   focq_fuzz --replay FILE...      replay .case files (regression check)
//   focq_fuzz --corpus DIR          replay every .case file in a directory
//   focq_fuzz --self-test           inject a miscounting engine and verify
//                                   the harness catches and shrinks it
//   focq_fuzz --frames N            byte-level fuzz of the focq_serve wire
//                                   protocol: N random frame streams are
//                                   round-tripped through the incremental
//                                   FrameDecoder in random-sized chunks, then
//                                   mutated (truncation, bit flips, garbage
//                                   insertion, clobbered length prefixes) —
//                                   the decoder must answer every stream with
//                                   frames or a clean sticky Status, never a
//                                   crash
//
// --engine approx switches the differential oracle to the error-band mode:
// every case runs Engine::kApprox under both stratify modes and several
// thread counts, and count columns are admitted when they lie within the
// theoretical Hoeffding band (ApproxErrorBound) of the naive oracle —
// row membership and booleans must still match exactly, and estimates must
// be bit-identical across thread counts and warm/cold contexts for the
// fixed --approx-seed. --trials K instead evaluates every case K times
// under consecutive seeds against the delta-level band and fails when the
// empirical violation rate is statistically inconsistent with --delta
// (exact binomial / Clopper-Pearson gate). --engine approx excludes
// --updates and --soft-deadline-ms (the approx driver runs neither update
// sequences nor the watchdog).
//
// --updates K switches generated cases to update-sequence mode: each case
// carries K random tuple inserts/deletes, the subject evaluates warm through
// one incrementally repaired EvalContext after every step, and the oracle
// rebuilds from scratch (DESIGN.md §3e). Replay handles both flavours — the
// .case file records the sequence.
//
// --soft-deadline-ms MAX arms a per-case random *soft* deadline in
// [0, MAX] ms (0 disarms) on every subject variant: soft expiry observes
// and continues, so agreement checks are unchanged while the watchdog
// poll/expiry paths run on every case — the CI fuzz-smoke exercises this
// under ASan.
//
// Exit codes: 0 = all cases agree, 1 = disagreement found (or self-test
// failed), 2 = usage / input error.
//
// Examples:
//   focq_fuzz --seed 42 --cases 500
//   focq_fuzz --seed 42 --cases 500 --updates 4
//   focq_fuzz --seed 7 --cases 200 --class tree --max-universe 12
//   focq_fuzz --corpus ../tests/corpus
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "focq/obs/metrics.h"
#include "focq/serve/protocol.h"
#include "focq/testing/case_io.h"
#include "focq/testing/differential.h"
#include "focq/testing/shrink.h"
#include "focq/util/parse_number.h"
#include "focq/util/rng.h"

namespace {

using namespace focq;
using namespace focq::fuzz;

int Usage() {
  std::fprintf(stderr,
               "usage: focq_fuzz [--seed S] [--cases N] [--max-universe M]\n"
               "                 [--class NAME] [--updates K]\n"
               "                 [--time-budget SECONDS]\n"
               "                 [--soft-deadline-ms MAX]\n"
               "                 [--engine local|approx] [--eps E] "
               "[--delta D]\n"
               "                 [--approx-seed S] [--trials K]\n"
               "                 [--out DIR] [--dump] [--stats]\n"
               "       focq_fuzz --replay FILE...\n"
               "       focq_fuzz --corpus DIR\n"
               "       focq_fuzz --self-test\n"
               "       focq_fuzz --frames N [--seed S]\n"
               "classes:");
  for (StructureClass cls : AllStructureClasses()) {
    std::fprintf(stderr, " %s", StructureClassName(cls).c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "focq_fuzz: %s\n", message.c_str());
  return 2;
}

// How one case is driven: exact bit-identical differential (RunCase) or the
// approx error-band driver (RunApproxCase / RunApproxTrials). Injected into
// failure reporting and replay so shrinking reuses the same driver that
// caught the failure.
using CaseRunner = std::function<std::optional<DiffFailure>(const DiffCase&)>;

// Reports a failure: shrinks it, writes the .case file and prints the repro.
int ReportFailure(const DiffFailure& failure, const CaseRunner& run,
                  const std::string& out_dir, std::uint64_t seed,
                  std::size_t case_index) {
  std::fprintf(stderr, "focq_fuzz: DISAGREEMENT on case %zu (seed %llu)\n%s\n",
               case_index, static_cast<unsigned long long>(seed),
               failure.description.c_str());

  ShrinkStats stats;
  DiffCase shrunk = Shrink(
      failure.c, [&](const DiffCase& c) { return run(c).has_value(); },
      ShrinkLimits{}, &stats);
  std::fprintf(stderr,
               "focq_fuzz: shrunk to |A|=%zu after %zu evaluations "
               "(%zu reductions)\n",
               shrunk.structure.Order(), stats.evaluations, stats.reductions);
  std::optional<DiffFailure> final_failure = run(shrunk);
  if (final_failure.has_value()) {
    std::fprintf(stderr, "focq_fuzz: minimal repro:\n%s\n",
                 final_failure->description.c_str());
  }

  std::string path = out_dir + "/fail-seed" + std::to_string(seed) + "-case" +
                     std::to_string(case_index) + ".case";
  Status written = WriteCaseFile(path, shrunk);
  if (written.ok()) {
    std::fprintf(stderr, "focq_fuzz: wrote %s (replay with --replay)\n",
                 path.c_str());
  } else {
    std::fprintf(stderr, "focq_fuzz: could not write %s: %s\n", path.c_str(),
                 written.ToString().c_str());
  }
  std::fprintf(stderr, "focq_fuzz: C++ repro snippet:\n%s",
               CaseToCppSnippet(shrunk).c_str());
  return 1;
}

int Replay(const std::vector<std::string>& paths, const CaseRunner& run) {
  int failures = 0;
  for (const std::string& path : paths) {
    Result<DiffCase> c = ReadCaseFile(path);
    if (!c.ok()) return Fail(path + ": " + c.status().ToString());
    std::optional<DiffFailure> failure = run(*c);
    if (failure.has_value()) {
      std::fprintf(stderr, "focq_fuzz: FAIL %s\n%s\n", path.c_str(),
                   failure->description.c_str());
      ++failures;
    } else {
      std::printf("replay ok: %s\n", path.c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}

int SelfTest() {
  // The harness must catch a deliberately miscounting subject and shrink the
  // caught case to a tiny repro (<= 10 elements). Scans seeds until a case
  // triggers the injected bug; well under 100 attempts in practice.
  DiffConfig config;
  config.subject = MiscountingSubject;
  StructureGenOptions structure_options;
  structure_options.min_universe = 4;
  structure_options.max_universe = 16;
  FormulaGenOptions formula_options;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    DiffCase c = GenerateCase(structure_options, formula_options, &rng);
    std::optional<DiffFailure> failure = RunCase(c, config);
    if (!failure.has_value()) continue;
    std::printf("self-test: injected miscount caught (seed %llu, |A|=%zu)\n",
                static_cast<unsigned long long>(seed), c.structure.Order());
    ShrinkStats stats;
    DiffCase shrunk = Shrink(
        failure->c,
        [&](const DiffCase& cs) { return RunCase(cs, config).has_value(); },
        ShrinkLimits{}, &stats);
    std::printf("self-test: shrunk |A|=%zu -> %zu (%zu evaluations)\n",
                c.structure.Order(), shrunk.structure.Order(),
                stats.evaluations);
    if (shrunk.structure.Order() > 10) {
      std::fprintf(stderr, "focq_fuzz: self-test FAILED: shrunk case still "
                           "has %zu elements (want <= 10)\n",
                   shrunk.structure.Order());
      return 1;
    }
    // The shrunk case must still fail under the faulty subject and round-trip
    // through the .case format.
    if (!RunCase(shrunk, config).has_value()) {
      std::fprintf(stderr,
                   "focq_fuzz: self-test FAILED: shrunk case passes\n");
      return 1;
    }
    Result<DiffCase> reread = ReadCase(WriteCase(shrunk));
    if (!reread.ok() || !RunCase(*reread, config).has_value()) {
      std::fprintf(stderr, "focq_fuzz: self-test FAILED: .case round-trip "
                           "lost the failure\n");
      return 1;
    }
    // Sanity check in the other direction: the real pipeline must pass the
    // same case.
    if (RunCase(shrunk, DiffConfig{}).has_value()) {
      std::fprintf(stderr, "focq_fuzz: self-test FAILED: real engines "
                           "disagree on the shrunk case\n");
      return 1;
    }
    std::printf("self-test: ok\n");
    return 0;
  }
  std::fprintf(stderr,
               "focq_fuzz: self-test FAILED: no seed triggered the bug\n");
  return 1;
}

// Byte-level fuzz of the focq_serve frame codec. Two properties per stream:
//   1. Round-trip: a clean stream of encoded requests/responses, fed to the
//      incremental FrameDecoder in random-sized chunks, decodes to exactly
//      the messages that were encoded, ending on a frame boundary.
//   2. Robustness: a mutated copy (truncated, bit-flipped, garbage-injected
//      or length-clobbered) yields frames and/or one sticky clean Status —
//      never a crash, and never an error that un-sticks.
int RunFrameFuzz(std::uint64_t seed, std::size_t iterations) {
  using namespace focq::serve;
  Rng rng(seed);
  auto random_text = [&rng]() {
    std::string text;
    const std::size_t len = rng.NextBelow(48);
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    return text;
  };
  constexpr FrameKind kRequestKinds[] = {
      FrameKind::kCheck, FrameKind::kCount,    FrameKind::kTerm,
      FrameKind::kUpdate, FrameKind::kPing,    FrameKind::kShutdown};
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    // Encode a random message sequence (both directions share one framing,
    // so mixing requests and responses in one stream is fair game for the
    // decoder; direction-specific decoding is checked per message).
    std::string wire;
    std::vector<Request> requests;
    std::vector<Response> responses;
    std::vector<bool> is_request;
    const std::size_t messages = 1 + rng.NextBelow(8);
    for (std::size_t m = 0; m < messages; ++m) {
      if (rng.NextBelow(2) == 0) {
        Request request;
        request.kind = kRequestKinds[rng.NextBelow(6)];
        request.id = static_cast<std::uint32_t>(rng.NextBelow(1u << 16));
        if (IsStatementKind(request.kind)) {
          // All flag combinations: explain bit x trace-id bit; a set
          // trace-id flag carries a random 8-byte id in the body.
          request.flags = static_cast<std::uint8_t>(rng.NextBelow(4));
          if ((request.flags & kRequestFlagTraceId) != 0) {
            request.trace_id = rng.Next();
          }
          request.text = random_text();
        }
        AppendRequestFrame(&wire, request);
        requests.push_back(request);
        is_request.push_back(true);
      } else {
        Response response;
        response.ok = rng.NextBelow(2) == 0;
        response.id = static_cast<std::uint32_t>(rng.NextBelow(1u << 16));
        response.seq = rng.NextBelow(1u << 20);
        response.text = random_text();
        AppendResponseFrame(&wire, response);
        responses.push_back(response);
        is_request.push_back(false);
      }
    }

    // Property 1: chunked round-trip.
    FrameDecoder decoder;
    std::size_t offset = 0;
    std::size_t decoded = 0, req_i = 0, resp_i = 0;
    for (;;) {
      for (;;) {
        Result<std::optional<Frame>> next = decoder.Next();
        if (!next.ok()) {
          std::fprintf(stderr,
                       "focq_fuzz: frames: clean stream poisoned on "
                       "iteration %zu: %s\n",
                       iter, next.status().ToString().c_str());
          return 1;
        }
        if (!next->has_value()) break;
        if (decoded >= messages) {
          std::fprintf(stderr,
                       "focq_fuzz: frames: extra frame on iteration %zu\n",
                       iter);
          return 1;
        }
        bool match = false;
        if (is_request[decoded]) {
          Result<Request> r = DecodeRequest(**next);
          const Request& want = requests[req_i++];
          match = r.ok() && r->kind == want.kind && r->id == want.id &&
                  r->flags == want.flags && r->text == want.text &&
                  ((want.flags & kRequestFlagTraceId) == 0 ||
                   r->trace_id == want.trace_id);
        } else {
          Result<Response> r = DecodeResponse(**next);
          const Response& want = responses[resp_i++];
          match = r.ok() && r->ok == want.ok && r->id == want.id &&
                  r->seq == want.seq && r->text == want.text;
        }
        if (!match) {
          std::fprintf(stderr,
                       "focq_fuzz: frames: round-trip mismatch on iteration "
                       "%zu, frame %zu\n",
                       iter, decoded);
          return 1;
        }
        ++decoded;
      }
      if (offset >= wire.size()) break;
      const std::size_t chunk =
          std::min(wire.size() - offset, 1 + rng.NextBelow(17));
      decoder.Feed(std::string_view(wire).substr(offset, chunk));
      offset += chunk;
    }
    if (decoded != messages || !decoder.AtFrameBoundary().ok()) {
      std::fprintf(stderr,
                   "focq_fuzz: frames: clean stream decoded %zu of %zu "
                   "frames on iteration %zu\n",
                   decoded, messages, iter);
      return 1;
    }

    // Property 2: a mutated stream never crashes the decoder, and an error,
    // once reported, stays sticky.
    std::string bad = wire;
    switch (rng.NextBelow(4)) {
      case 0:  // truncate mid-frame
        bad.resize(rng.NextBelow(bad.size() + 1));
        break;
      case 1: {  // flip a few random bytes
        const std::size_t flips = 1 + rng.NextBelow(4);
        for (std::size_t f = 0; f < flips && !bad.empty(); ++f) {
          bad[rng.NextBelow(bad.size())] ^=
              static_cast<char>(1 + rng.NextBelow(255));
        }
        break;
      }
      case 2: {  // inject garbage bytes at a random position
        std::string garbage = random_text();
        bad.insert(rng.NextBelow(bad.size() + 1), garbage);
        break;
      }
      default: {  // clobber the first length prefix (oversized / zero)
        if (bad.size() >= 4) {
          const std::uint32_t clobber =
              rng.NextBelow(2) == 0 ? 0u : 0xffffffffu;
          for (int b = 0; b < 4; ++b) {
            bad[b] = static_cast<char>((clobber >> (8 * b)) & 0xff);
          }
        }
        break;
      }
    }
    FrameDecoder hostile;
    std::size_t bad_offset = 0;
    bool poisoned = false;
    while (bad_offset < bad.size() && !poisoned) {
      const std::size_t chunk =
          std::min(bad.size() - bad_offset, 1 + rng.NextBelow(17));
      hostile.Feed(std::string_view(bad).substr(bad_offset, chunk));
      bad_offset += chunk;
      for (;;) {
        Result<std::optional<Frame>> next = hostile.Next();
        if (!next.ok()) {
          // Sticky: the same stream error again on the next poll.
          Result<std::optional<Frame>> again = hostile.Next();
          if (again.ok() ||
              again.status().code() != next.status().code()) {
            std::fprintf(stderr,
                         "focq_fuzz: frames: error not sticky on "
                         "iteration %zu\n",
                         iter);
            return 1;
          }
          poisoned = true;
          break;
        }
        if (!next->has_value()) break;
      }
    }
    (void)hostile.AtFrameBoundary();  // must not crash either way
  }
  std::printf("frames: %zu streams ok (seed %llu)\n", iterations,
              static_cast<unsigned long long>(seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::size_t cases = 200;
  std::size_t max_universe = 24;
  std::size_t updates = 0;  // per-case update-sequence length (0 = off)
  std::uint64_t soft_deadline_max_ms = 0;  // 0 = watchdog off
  double time_budget_s = 0.0;  // 0 = unlimited
  std::string engine_name = "local";
  ApproxParams approx_params;  // --eps / --delta / --approx-seed
  std::uint64_t trials = 0;    // 0 = single-run band mode
  std::string out_dir = ".";
  std::optional<StructureClass> cls;
  std::vector<std::string> replay_paths;
  std::string corpus_dir;
  std::size_t frames = 0;  // wire-protocol fuzz stream count (0 = off)
  bool self_test = false;
  bool dump = false;
  bool stats = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Strict whole-text numbers: "--seed -1" is a usage error, never a
    // wrapped huge seed, and "--time-budget 5xyz" never a 5 s budget.
    auto parse = [](const char* v, auto* out) {
      return v != nullptr && ParseNumber(v, out);
    };
    if (arg == "--seed") {
      if (!parse(next(), &seed)) return Usage();
    } else if (arg == "--cases") {
      std::uint64_t v = 0;
      if (!parse(next(), &v)) return Usage();
      cases = static_cast<std::size_t>(v);
    } else if (arg == "--max-universe") {
      std::uint64_t v = 0;
      if (!parse(next(), &v) || v < 1) return Usage();
      max_universe = static_cast<std::size_t>(v);
    } else if (arg == "--updates") {
      std::uint64_t v = 0;
      if (!parse(next(), &v)) return Usage();
      updates = static_cast<std::size_t>(v);
    } else if (arg == "--soft-deadline-ms") {
      if (!parse(next(), &soft_deadline_max_ms)) return Usage();
    } else if (arg == "--engine") {
      const char* v = next();
      if (v == nullptr) return Usage();
      engine_name = v;
    } else if (arg == "--eps") {
      if (!parse(next(), &approx_params.eps)) return Usage();
    } else if (arg == "--delta") {
      if (!parse(next(), &approx_params.delta)) return Usage();
    } else if (arg == "--approx-seed") {
      if (!parse(next(), &approx_params.seed)) return Usage();
    } else if (arg == "--trials") {
      if (!parse(next(), &trials)) return Usage();
    } else if (arg == "--time-budget") {
      if (!parse(next(), &time_budget_s) || time_budget_s < 0) return Usage();
    } else if (arg == "--class") {
      const char* v = next();
      if (v == nullptr) return Usage();
      cls = ParseStructureClass(v);
      if (!cls.has_value()) {
        return Fail("unknown structure class '" + std::string(v) + "'");
      }
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      out_dir = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return Usage();
      replay_paths.push_back(v);
    } else if (arg == "--corpus") {
      const char* v = next();
      if (v == nullptr) return Usage();
      corpus_dir = v;
    } else if (arg == "--frames") {
      std::uint64_t v = 0;
      if (!parse(next(), &v) || v < 1) return Usage();
      frames = static_cast<std::size_t>(v);
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--stats") {
      stats = true;
    } else {
      return Usage();
    }
  }

  if (self_test) return SelfTest();
  if (frames > 0) return RunFrameFuzz(seed, frames);

  const bool approx_mode = engine_name == "approx";
  if (!approx_mode && engine_name != "local") {
    return Fail("unknown engine '" + engine_name + "'");
  }
  if (approx_mode) {
    if (Status valid = ValidateApproxParams(approx_params); !valid.ok()) {
      return Fail(valid.message());
    }
    if (updates > 0) {
      return Fail("--engine approx does not support --updates");
    }
    if (soft_deadline_max_ms > 0) {
      return Fail("--engine approx does not support --soft-deadline-ms");
    }
  } else if (trials > 0) {
    return Fail("--trials requires --engine approx");
  }

  DiffConfig config;
  ApproxDiffConfig approx_config;
  approx_config.params = approx_params;
  CaseRunner run = [&](const DiffCase& c) -> std::optional<DiffFailure> {
    if (!approx_mode) return RunCase(c, config);
    if (trials > 0) {
      return RunApproxTrials(c, approx_config, static_cast<int>(trials));
    }
    return RunApproxCase(c, approx_config);
  };
  if (!corpus_dir.empty()) {
    std::error_code ec;
    std::vector<std::string> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(corpus_dir, ec)) {
      if (entry.path().extension() == ".case") {
        paths.push_back(entry.path().string());
      }
    }
    if (ec) return Fail("cannot read directory '" + corpus_dir + "'");
    if (paths.empty()) return Fail("no .case files in '" + corpus_dir + "'");
    std::sort(paths.begin(), paths.end());
    replay_paths.insert(replay_paths.end(), paths.begin(), paths.end());
  }
  if (!replay_paths.empty()) return Replay(replay_paths, run);

  StructureGenOptions structure_options;
  structure_options.max_universe = max_universe;
  structure_options.cls = cls;
  FormulaGenOptions formula_options;

  auto start = std::chrono::steady_clock::now();
  Rng rng(seed);
  MetricsSink case_metrics;  // per-case wall-time distribution (--stats)
  std::size_t executed = 0;
  for (std::size_t i = 0; i < cases; ++i) {
    if (time_budget_s > 0) {
      std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() >= time_budget_s) {
        std::printf("time budget reached after %zu cases\n", executed);
        break;
      }
    }
    DiffCase c = GenerateCase(structure_options, formula_options, &rng);
    if (updates > 0) AppendRandomUpdates(&c, updates, &rng);
    if (soft_deadline_max_ms > 0) {
      config.soft_deadline_ms =
          static_cast<std::int64_t>(rng.NextBelow(soft_deadline_max_ms + 1));
    }
    if (dump) {
      std::printf("--- case %zu ---\n%s", i, WriteCase(c).c_str());
    }
    auto case_start = std::chrono::steady_clock::now();
    std::optional<DiffFailure> failure = run(c);
    if (stats) {
      auto case_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - case_start)
                         .count();
      case_metrics.RecordValue("fuzz.case_ns", case_ns);
    }
    if (failure.has_value()) {
      return ReportFailure(*failure, run, out_dir, seed, i);
    }
    ++executed;
    if (executed % 100 == 0) {
      std::printf("... %zu/%zu cases ok\n", executed, cases);
    }
  }
  std::printf("all %zu cases agree (seed %llu)\n", executed,
              static_cast<unsigned long long>(seed));
  if (stats && executed > 0) {
    ValueStats wall = case_metrics.Snapshot().values["fuzz.case_ns"];
    double total_s = static_cast<double>(wall.sum) / 1e9;
    std::printf(
        "stats: %lld cases in %.3f s (%.1f cases/s); per case "
        "mean %.3f ms, min %.3f ms, max %.3f ms\n",
        static_cast<long long>(wall.count), total_s,
        total_s > 0 ? static_cast<double>(wall.count) / total_s : 0.0,
        wall.Mean() / 1e6, static_cast<double>(wall.min) / 1e6,
        static_cast<double>(wall.max) / 1e6);
  }
  return 0;
}
