// focq_serve: the persistent multi-tenant query server (DESIGN.md §3g) and
// its scripting client.
//
// Server mode:
//   focq_serve <structure-file> [--edges] [--port N] [--metrics-port N]
//              [--engine naive|local|cover|approx] [--threads N]
//              [--eps E] [--delta D] [--approx-seed S] [--approx-stratify]
//              [--deadline-ms N] [--query-log FILE] [--slow-ms N]
//              [--trace-json FILE] [--flight-record FILE]
//
//   Loads the structure, binds 127.0.0.1 (port 0 = ephemeral) and serves the
//   length-prefixed binary protocol of src/focq/serve/protocol.h: concurrent
//   clients submit check/count/term/update statements in the --batch
//   grammar; reads share one EvalContext under snapshot semantics and fan
//   out per cover cluster on the shared work-stealing pool; an update drains
//   in-flight reads, repairs the cached artifacts incrementally and
//   readmits. Every statement runs through ExecuteStatement
//   (src/focq/core/statement.h), the one statement path focq_cli --batch and
//   focq_logreplay also take. Responses carry the global admission sequence
//   number: for any interleaving, replaying all statements serially in seq
//   order through one Session reproduces every response bit for bit.
//
//   Prints "serving on 127.0.0.1:<port>" (and "metrics on ..." when
//   --metrics-port is given; that port answers HTTP scrapes with an
//   OpenMetrics exposition) and runs until a client sends --shutdown.
//
//   --port         query port (default 0: ephemeral, printed at startup)
//   --metrics-port OpenMetrics scrape port (default off; 0 = ephemeral)
//   --deadline-ms  hard per-request budget; an expired request answers
//                  kDeadlineExceeded without affecting other clients
//   --query-log    structured query log: one JSONL record per served
//                  statement (schema: src/focq/obs/querylog.h), written
//                  asynchronously, replayable with tools/focq_logreplay
//   --slow-ms      with --query-log: record only reads slower than N ms;
//                  every update is still recorded, so the log replays
//   --trace-json   request-lifecycle trace, chrome://tracing JSON written at
//                  shutdown: decode/queue/gate/exec/write spans per request
//                  on reader / dispatcher / pool-worker lanes, stitched by
//                  trace id
//   --flight-record enable the flight recorder; its ring (connection
//                  open/close, queue backpressure, update drains, phases) is
//                  dumped to FILE at shutdown
//   --edges, --engine, --threads, --eps, --delta, --approx-seed,
//   --approx-stratify:
//                  as in focq_cli and focq_logreplay (one shared parser),
//                  applied to every request
//
//   Every valued flag takes both the "--flag V" and the "--flag=V" form.
//
// Client mode:
//   focq_serve --client PORT [--batch FILE] [--explain] [--ping]
//              [--shutdown] [--trace-base N]
//
//   --trace-base N stamps request i with client-supplied trace id N+i (the
//   kRequestFlagTraceId protocol flag); without it the server assigns ids.
//
//   Reads statements from FILE (the focq_cli --batch grammar), pipelines
//   them all over one connection, and prints one line per response in
//   arrival order:
//     seq <seq> req <id> <kind>: <result text>
//     seq <seq> req <id> <kind>: error: <diagnostic>
//   The seq column is what the serve-smoke harness sorts on to rebuild the
//   serial replay order across many concurrent clients. --ping sends a ping
//   first; --shutdown asks the server to exit after the batch. Exits 0 iff
//   every response was ok.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "flags.h"
#include "focq/obs/recorder.h"
#include "focq/serve/protocol.h"
#include "focq/serve/server.h"
#include "focq/serve/socket_util.h"
#include "focq/util/parse_number.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "focq_serve: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: focq_serve <structure-file> [--edges] [--port N] "
      "[--metrics-port N]\n"
      "                  [--engine naive|local|cover|approx] [--threads N]\n"
      "                  [--eps E] [--delta D] [--approx-seed S] "
      "[--approx-stratify]\n"
      "                  [--deadline-ms N] [--query-log FILE] [--slow-ms N]\n"
      "                  [--trace-json FILE] [--flight-record FILE]\n"
      "       focq_serve --client PORT [--batch FILE] [--explain] [--ping] "
      "[--shutdown]\n"
      "                  [--trace-base N]\n");
  return 2;
}

struct Statement {
  focq::serve::FrameKind kind;
  std::string text;
};

// The focq_cli --batch line grammar: blank and '#' lines skipped, otherwise
// "check|count|term|update <text>".
int ReadStatements(const std::string& path, std::vector<Statement>* out) {
  std::ifstream in(path);
  if (!in) return Fail("cannot open '" + path + "'");
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::size_t split = line.find_first_of(" \t", start);
    std::string word = line.substr(start, split - start);
    std::optional<focq::serve::FrameKind> kind =
        focq::serve::StatementKindFromWord(word);
    if (!kind.has_value()) {
      return Fail("line " + std::to_string(lineno) +
                  ": expected 'check', 'count', 'term' or 'update', got '" +
                  word + "'");
    }
    std::string text =
        split == std::string::npos ? "" : line.substr(split + 1);
    out->push_back({*kind, text});
  }
  return 0;
}

int RunClient(std::uint16_t port, const std::string& batch_path,
              bool explain, bool ping, bool shutdown, bool has_trace_base,
              std::uint64_t trace_base) {
  using namespace focq::serve;
  std::vector<Statement> statements;
  if (ping) statements.push_back({FrameKind::kPing, ""});
  if (!batch_path.empty()) {
    if (int rc = ReadStatements(batch_path, &statements); rc != 0) return rc;
  }
  if (shutdown) statements.push_back({FrameKind::kShutdown, ""});
  if (statements.empty()) return Fail("nothing to send (see --batch)");

  focq::Result<int> fd = ConnectLoopback(port);
  if (!fd.ok()) return Fail(fd.status().ToString());

  // Pipeline everything: one write, then drain responses. Request ids are
  // 1-based statement indices, so responses (which may arrive out of order)
  // can be labelled with their statement kind.
  std::string wire;
  std::map<std::uint32_t, FrameKind> kinds;
  std::uint32_t next_id = 1;
  for (const Statement& statement : statements) {
    Request request;
    request.kind = statement.kind;
    request.id = next_id++;
    if (explain && IsReadStatement(statement.kind)) {
      request.flags |= kRequestFlagExplain;
    }
    if (has_trace_base) {
      request.flags |= kRequestFlagTraceId;
      request.trace_id = trace_base + request.id;
    }
    request.text = statement.text;
    kinds[request.id] = request.kind;
    AppendRequestFrame(&wire, request);
  }
  if (focq::Status sent = SendAll(*fd, wire); !sent.ok()) {
    CloseFd(*fd);
    return Fail(sent.ToString());
  }

  FrameDecoder decoder;
  std::size_t received = 0;
  int failures = 0;
  while (received < statements.size()) {
    focq::Result<std::string> chunk = RecvSome(*fd);
    if (!chunk.ok()) {
      CloseFd(*fd);
      return Fail(chunk.status().ToString());
    }
    if (chunk->empty()) {
      CloseFd(*fd);
      return Fail("server closed the connection after " +
                  std::to_string(received) + " of " +
                  std::to_string(statements.size()) + " responses");
    }
    decoder.Feed(*chunk);
    for (;;) {
      focq::Result<std::optional<Frame>> next = decoder.Next();
      if (!next.ok()) {
        CloseFd(*fd);
        return Fail("response stream: " + next.status().ToString());
      }
      if (!next->has_value()) break;
      focq::Result<Response> response = DecodeResponse(**next);
      if (!response.ok()) {
        CloseFd(*fd);
        return Fail("response frame: " + response.status().ToString());
      }
      if (response->id == 0) {
        // Connection-level protocol diagnostic (not tied to a request).
        std::printf("protocol error: %s\n", response->text.c_str());
        ++failures;
        continue;
      }
      ++received;
      auto it = kinds.find(response->id);
      const char* kind =
          it == kinds.end() ? "unknown" : FrameKindName(it->second);
      if (response->ok) {
        std::printf("seq %llu req %u %s: %s\n",
                    static_cast<unsigned long long>(response->seq),
                    response->id, kind, response->text.c_str());
      } else {
        std::printf("seq %llu req %u %s: error: %s\n",
                    static_cast<unsigned long long>(response->seq),
                    response->id, kind, response->text.c_str());
        ++failures;
      }
    }
  }
  CloseFd(*fd);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace focq;
  if (argc < 2) return Usage();

  // ---- client mode ---------------------------------------------------------
  if (std::string(argv[1]) == "--client") {
    if (argc < 3) return Usage();
    std::uint64_t port = 0;
    if (!ParseNumber(argv[2], &port) || port == 0 || port > 65535) {
      return Fail("--client expects a port number");
    }
    std::string batch_path, trace_base_text;
    bool explain = false, ping = false, shutdown = false;
    bool has_trace_base = false;
    ArgReader args(argc, argv, 3);
    while (args.Next()) {
      if (args.Flag("--explain")) {
        explain = true;
      } else if (args.Flag("--ping")) {
        ping = true;
      } else if (args.Flag("--shutdown")) {
        shutdown = true;
      } else if (args.Value("--trace-base", &trace_base_text)) {
        has_trace_base = true;
      } else if (!args.Value("--batch", &batch_path)) {
        return Usage();
      }
    }
    if (!args.ok()) return Usage();
    std::uint64_t trace_base = 0;
    if (has_trace_base && !ParseNumber(trace_base_text, &trace_base)) {
      return Fail("--trace-base expects a non-negative integer");
    }
    return RunClient(static_cast<std::uint16_t>(port), batch_path, explain,
                     ping, shutdown, has_trace_base, trace_base);
  }

  // ---- server mode ---------------------------------------------------------
  std::string path = argv[1];
  EvalFlags eval_flags;
  serve::ServeOptions serve_options;
  std::string port_text = "0", metrics_port_text, deadline_text = "0";
  std::string slow_ms_text = "0";
  std::string trace_json_path, flight_record_path;
  ArgReader args(argc, argv, 2);
  while (args.Next()) {
    if (eval_flags.Consume(&args)) continue;
    if (!args.Value("--port", &port_text) &&
        !args.Value("--metrics-port", &metrics_port_text) &&
        !args.Value("--deadline-ms", &deadline_text) &&
        !args.Value("--query-log", &serve_options.query_log_path) &&
        !args.Value("--slow-ms", &slow_ms_text) &&
        !args.Value("--trace-json", &trace_json_path) &&
        !args.Value("--flight-record", &flight_record_path)) {
      return Usage();
    }
  }
  if (!args.ok()) return Usage();

  if (Status valid = eval_flags.Apply(&serve_options.eval); !valid.ok()) {
    return Fail(valid.message());
  }
  std::uint64_t port = 0;
  if (!ParseNumber(port_text, &port) || port > 65535) {
    return Fail("--port expects a port number");
  }
  serve_options.port = static_cast<std::uint16_t>(port);
  if (!metrics_port_text.empty()) {
    std::uint64_t metrics_port = 0;
    if (!ParseNumber(metrics_port_text, &metrics_port) ||
        metrics_port > 65535) {
      return Fail("--metrics-port expects a port number");
    }
    serve_options.metrics_port = static_cast<int>(metrics_port);
  }
  if (!ParseNumber(deadline_text, &serve_options.deadline_ms)) {
    return Fail("--deadline-ms expects a non-negative integer");
  }
  if (!ParseNumber(slow_ms_text, &serve_options.slow_ms)) {
    return Fail("--slow-ms expects a non-negative integer");
  }
  if (serve_options.slow_ms > 0 && serve_options.query_log_path.empty()) {
    return Fail("--slow-ms requires --query-log");
  }

  Result<Structure> structure = eval_flags.LoadStructure(path);
  if (!structure.ok()) return Fail(structure.status().ToString());
  std::printf("structure: %zu elements, ||A|| = %zu\n", structure->Order(),
              structure->SizeNorm());

  TraceSink trace;
  if (!trace_json_path.empty()) serve_options.trace = &trace;
  if (!flight_record_path.empty()) FlightRecorder::Global().Enable();

  serve::Server server(&structure.value(), serve_options);
  if (Status started = server.Start(); !started.ok()) {
    return Fail(started.ToString());
  }
  // Harnesses block on these lines to learn the ephemeral ports, so flush.
  std::printf("serving on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  if (server.metrics_port() >= 0) {
    std::printf("metrics on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.metrics_port()));
  }
  std::fflush(stdout);
  server.Wait();
  server.Stop();
  if (!trace_json_path.empty()) {
    std::ofstream out(trace_json_path, std::ios::trunc);
    if (!out) return Fail("cannot write '" + trace_json_path + "'");
    out << trace.ToChromeTracing() << "\n";
    std::printf("trace written to %s\n", trace_json_path.c_str());
  }
  if (!flight_record_path.empty()) {
    std::ofstream out(flight_record_path, std::ios::trunc);
    if (!out) return Fail("cannot write '" + flight_record_path + "'");
    out << FlightRecorder::Global().Dump();
    std::printf("flight record written to %s\n", flight_record_path.c_str());
  }
  std::printf("shutdown complete\n");
  return 0;
}
