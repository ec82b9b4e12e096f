// focq_logreplay: turns a focq_serve structured query log back into the
// serial statement stream it was served as, re-executes it, and verifies
// every result digest bit for bit (DESIGN.md §3g, "Request lifecycle &
// query log").
//
//   focq_logreplay <structure-file> <query-log.jsonl> [--edges]
//                  [--engine naive|local|cover|approx] [--threads N]
//                  [--eps E] [--delta D] [--approx-seed S]
//                  [--approx-stratify] [--batch-out FILE] [--verbose]
//
// The log records carry the server's global admission sequence numbers, so
// sorting them by seq reconstructs exactly the serial order the multi-client
// interleaving is bit-identical to (the §3g contract). The tool replays that
// order through Session::Execute on one read-write Session over a fresh load
// of the structure — the one statement path (focq/core/statement.h) the
// server and focq_cli --batch also run — digests each response text with
// Fnv1a64 and compares against the logged digest. A record whose kind is not
// check/count/term/update is malformed (the server never logs one): the tool
// exits 1 naming its log line.
//
//   --batch-out FILE  also write the reconstructed stream in the focq_cli
//                     --batch grammar ("<kind> <text>" per line, seq order)
//   --verbose         print one line per record instead of only mismatches
//   --engine etc.     as in focq_cli and focq_serve (same parser, both the
//                     "--flag V" and "--flag=V" forms); must match the
//                     serving configuration, or counts that depend on the
//                     engine contract (approx) will differ
//
// Caveats, by construction of the log:
//   * records with deadline=true are skipped (a deadline expiry depends on
//     wall clock, so the error text is not reproducible);
//   * a --slow-ms log is a *subset* of the served reads, but the server
//     logs every update whatever its latency or the queue's fill, so the
//     structure state each logged read saw is reproduced and a filtered log
//     verifies like a full one;
//   * seq gaps are normal — pings and shutdown frames consume sequence
//     numbers but are never logged.
//
// Exits 0 iff every verified digest matched.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "flags.h"
#include "focq/core/statement.h"
#include "focq/obs/querylog.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "focq_logreplay: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: focq_logreplay <structure-file> <query-log.jsonl> [--edges]\n"
      "                      [--engine naive|local|cover|approx] "
      "[--threads N]\n"
      "                      [--eps E] [--delta D] [--approx-seed S] "
      "[--approx-stratify]\n"
      "                      [--batch-out FILE] [--verbose]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace focq;
  if (argc < 3) return Usage();
  const std::string structure_path = argv[1];
  const std::string log_path = argv[2];

  EvalFlags eval_flags;
  bool verbose = false;
  std::string batch_out;
  ArgReader args(argc, argv, 3);
  while (args.Next()) {
    if (eval_flags.Consume(&args)) continue;
    if (args.Flag("--verbose")) {
      verbose = true;
    } else if (!args.Value("--batch-out", &batch_out)) {
      return Usage();
    }
  }
  if (!args.ok()) return Usage();
  EvalOptions eval;
  if (Status valid = eval_flags.Apply(&eval); !valid.ok()) {
    return Fail(valid.message());
  }

  // ---- parse the log -------------------------------------------------------
  std::ifstream in(log_path);
  if (!in) return Fail("cannot open '" + log_path + "'");
  std::vector<QueryLogRecord> records;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    Result<QueryLogRecord> record = ParseQueryLogLine(line);
    if (!record.ok()) {
      return Fail("line " + std::to_string(lineno) + ": " +
                  record.status().ToString());
    }
    if (!ParseStatementKind(record->kind).has_value()) {
      return Fail("line " + std::to_string(lineno) +
                  ": unknown statement kind '" + record->kind + "'");
    }
    records.push_back(std::move(record).value());
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const QueryLogRecord& a, const QueryLogRecord& b) {
                     return a.seq < b.seq;
                   });

  if (!batch_out.empty()) {
    std::ofstream out(batch_out, std::ios::trunc);
    if (!out) return Fail("cannot write '" + batch_out + "'");
    out << "# reconstructed from " << log_path << " in admission-seq order\n";
    for (const QueryLogRecord& r : records) {
      out << r.kind << " " << r.text << "\n";
    }
  }

  // ---- load the structure and replay ---------------------------------------
  Result<Structure> structure = eval_flags.LoadStructure(structure_path);
  if (!structure.ok()) return Fail(structure.status().ToString());

  Session session(&structure.value(), eval);
  std::size_t verified = 0, mismatches = 0, skipped = 0;
  for (const QueryLogRecord& r : records) {
    // Every kind was validated when the log was read.
    Result<std::string> result =
        session.Execute(*ParseStatementKind(r.kind), r.text);
    const std::string text =
        result.ok() ? *result : result.status().ToString();
    if (r.deadline_exceeded) {
      // Wall-clock dependent outcome; the statement was still replayed (an
      // update may have partially applied state the later stream needs).
      ++skipped;
      continue;
    }
    const std::uint64_t digest = Fnv1a64(text);
    if (digest == r.digest) {
      ++verified;
      if (verbose) {
        std::printf("seq %llu %s: ok (%s)\n",
                    static_cast<unsigned long long>(r.seq), r.kind.c_str(),
                    HexU64(digest).c_str());
      }
    } else {
      ++mismatches;
      std::printf("seq %llu %s: DIGEST MISMATCH logged %s replayed %s\n",
                  static_cast<unsigned long long>(r.seq), r.kind.c_str(),
                  HexU64(r.digest).c_str(), HexU64(digest).c_str());
      std::printf("  statement: %s %s\n", r.kind.c_str(), r.text.c_str());
      std::printf("  replayed result: %s\n", text.c_str());
    }
  }
  std::printf(
      "replayed %zu records: %zu verified, %zu skipped (deadline), "
      "%zu mismatches\n",
      records.size(), verified, skipped, mismatches);
  return mismatches == 0 ? 0 : 1;
}
