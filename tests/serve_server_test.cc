// End-to-end tests of the focq_serve server library: concurrent clients over
// real loopback sockets, with the central contract checked exhaustively —
// for any interleaving of clients (updates included), the responses are
// bit-identical to a serial replay of the same statements, ordered by the
// server's admission sequence number, through one Session. Thread counts
// {0, 1, 4} cover serial, degenerate-parallel and parallel execution.
#include "focq/serve/server.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "focq/core/api.h"
#include "focq/logic/fragment.h"
#include "focq/logic/parser.h"
#include "focq/obs/querylog.h"
#include "focq/obs/recorder.h"
#include "focq/obs/trace.h"
#include "focq/serve/protocol.h"
#include "focq/serve/socket_util.h"
#include "focq/structure/io.h"
#include "focq/structure/update.h"

namespace focq {
namespace serve {
namespace {

Structure MakePathStructure(std::size_t n) {
  Structure a(Signature({{"E", 2}}), n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const auto u = static_cast<unsigned>(i);
    a.InsertTuple(0, {u, u + 1});
  }
  return a;
}

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult RunLogreplay(const std::string& args) {
  const std::string command =
      std::string(FOCQ_LOGREPLAY_PATH) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return r;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    r.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

struct Statement {
  FrameKind kind;
  std::string text;
};

struct Observed {
  std::uint64_t seq = 0;
  Statement statement;
  bool ok = false;
  std::string text;
};

// One client: pipelines its statements over one connection and returns the
// responses matched back to their statements. Runs on a caller thread.
std::vector<Observed> RunClient(std::uint16_t port,
                                const std::vector<Statement>& statements) {
  std::vector<Observed> observed;
  Result<int> fd = ConnectLoopback(port);
  if (!fd.ok()) {
    ADD_FAILURE() << fd.status().ToString();
    return observed;
  }
  std::string wire;
  for (std::size_t i = 0; i < statements.size(); ++i) {
    Request request;
    request.kind = statements[i].kind;
    request.id = static_cast<std::uint32_t>(i + 1);
    request.text = statements[i].text;
    AppendRequestFrame(&wire, request);
  }
  if (Status sent = SendAll(*fd, wire); !sent.ok()) {
    ADD_FAILURE() << sent.ToString();
    CloseFd(*fd);
    return observed;
  }
  FrameDecoder decoder;
  while (observed.size() < statements.size()) {
    Result<std::string> chunk = RecvSome(*fd);
    if (!chunk.ok() || chunk->empty()) {
      ADD_FAILURE() << "connection lost after " << observed.size()
                    << " responses";
      break;
    }
    decoder.Feed(*chunk);
    for (;;) {
      Result<std::optional<Frame>> next = decoder.Next();
      if (!next.ok()) {
        ADD_FAILURE() << next.status().ToString();
        CloseFd(*fd);
        return observed;
      }
      if (!next->has_value()) break;
      Result<Response> response = DecodeResponse(**next);
      if (!response.ok()) {
        ADD_FAILURE() << response.status().ToString();
        continue;
      }
      Observed o;
      o.seq = response->seq;
      o.statement = statements[response->id - 1];
      o.ok = response->ok;
      o.text = response->text;
      observed.push_back(std::move(o));
    }
  }
  CloseFd(*fd);
  return observed;
}

// Serial oracle: exactly the statement semantics of the server / focq_cli
// --batch, driven through one Session over a fresh copy of the structure.
std::string EvalSerial(Session* session, const Statement& statement) {
  const Signature& sig = session->structure().signature();
  switch (statement.kind) {
    case FrameKind::kUpdate: {
      Result<TupleUpdate> update = ParseUpdate(statement.text, sig);
      if (!update.ok()) return update.status().ToString();
      Result<UpdateStats> applied = session->ApplyUpdate(*update);
      if (!applied.ok()) return applied.status().ToString();
      return applied->changed ? "applied" : "noop";
    }
    case FrameKind::kTerm: {
      Result<Term> term = ParseTerm(statement.text);
      if (!term.ok()) return term.status().ToString();
      if (Status symbols = CheckSymbols(*term, sig); !symbols.ok()) {
        return symbols.ToString();
      }
      Result<CountInt> value = session->EvaluateGroundTerm(*term);
      if (!value.ok()) return value.status().ToString();
      return std::to_string(static_cast<long long>(*value));
    }
    case FrameKind::kCheck:
    case FrameKind::kCount: {
      Result<Formula> formula = ParseFormula(statement.text);
      if (!formula.ok()) return formula.status().ToString();
      if (Status symbols = CheckSymbols(*formula, sig); !symbols.ok()) {
        return symbols.ToString();
      }
      if (statement.kind == FrameKind::kCheck) {
        Result<bool> holds = session->ModelCheck(*formula);
        if (!holds.ok()) return holds.status().ToString();
        return *holds ? "true" : "false";
      }
      Result<CountInt> count = session->CountSolutions(*formula);
      if (!count.ok()) return count.status().ToString();
      return std::to_string(static_cast<long long>(*count));
    }
    default:
      return "unsupported";
  }
}

// The tentpole contract: N concurrent clients with a mixed workload
// (including updates and statements that fail), any interleaving, for
// thread counts {0, 1, 4} and both the ball and the sparse-cover engine —
// every response must equal the serial replay. With the cover engine,
// concurrent reads share the sparse covers that the updates repair.
TEST(ServeServerTest, ConcurrentMixedWorkloadIsBitIdenticalToSerialReplay) {
  const std::vector<std::vector<Statement>> workloads = {
      {
          {FrameKind::kCheck, "exists x. @ge1(#(y). (E(x, y)) - 1)"},
          {FrameKind::kUpdate, "insert E 0 7"},
          // A dist kernel: the ball engine builds (or repairs) its r = 2
          // and r = 3 ball tables while other clients read and update.
          {FrameKind::kCount, "@ge1(#(y). (dist(x, y) <= 2) - 4)"},
          {FrameKind::kCount, "@ge1(#(y). (E(x, y)))"},
          {FrameKind::kTerm, "#(x, y). (E(x, y))"},
          {FrameKind::kUpdate, "delete E 0 7"},
          {FrameKind::kCount, "@ge1(#(y). (E(x, y)))"},
      },
      {
          {FrameKind::kTerm, "#(x, y). (E(x, y))"},
          {FrameKind::kUpdate, "insert E 2 9"},
          {FrameKind::kCheck, "exists x. E(x, x)"},
          {FrameKind::kUpdate, "insert E 2 9"},  // noop the second time
          {FrameKind::kTerm, "#(x). (@ge1(#(y). (E(x, y)) - 2))"},
      },
      {
          {FrameKind::kCount, "E(x, y)"},
          {FrameKind::kUpdate, "insert E 0 99"},  // out of bounds: error
          {FrameKind::kCheck, "(((broken"},       // parse error
          {FrameKind::kUpdate, "delete E 4 5"},
          {FrameKind::kCheck, "E(x, y)"},  // free variables: eval error
          {FrameKind::kCount, "E(x, y)"},
      },
  };

  for (TermEngine engine : {TermEngine::kBall, TermEngine::kSparseCover}) {
    for (int threads : {0, 1, 4}) {
      SCOPED_TRACE("cover engine=" +
                   std::to_string(engine == TermEngine::kSparseCover) +
                   " threads=" + std::to_string(threads));
      Structure served = MakePathStructure(10);
      ServeOptions options;
      options.eval.term_engine = engine;
      options.eval.num_threads = threads;
      Server server(&served, options);
      ASSERT_TRUE(server.Start().ok());

      std::vector<std::vector<Observed>> results(workloads.size());
      std::vector<std::thread> clients;
      for (std::size_t i = 0; i < workloads.size(); ++i) {
        clients.emplace_back([&, i] {
          results[i] = RunClient(server.port(), workloads[i]);
        });
      }
      for (std::thread& t : clients) t.join();
      server.Stop();

      std::vector<Observed> all;
      for (const auto& result : results) {
        all.insert(all.end(), result.begin(), result.end());
      }
      std::size_t total = 0;
      for (const auto& w : workloads) total += w.size();
      ASSERT_EQ(all.size(), total);

      // Admission order is total and strictly increasing.
      std::sort(all.begin(), all.end(),
                [](const Observed& a, const Observed& b) {
                  return a.seq < b.seq;
                });
      for (std::size_t i = 1; i < all.size(); ++i) {
        ASSERT_NE(all[i].seq, all[i - 1].seq);
      }

      // Replaying in seq order through one Session reproduces every response
      // text bit for bit — errors included.
      Structure replayed = MakePathStructure(10);
      EvalOptions replay_options;
      replay_options.term_engine = engine;
      replay_options.num_threads = threads;
      Session session(&replayed, replay_options);
      for (const Observed& o : all) {
        const std::string expected = EvalSerial(&session, o.statement);
        EXPECT_EQ(o.text, expected)
            << "seq " << o.seq << " " << FrameKindName(o.statement.kind)
            << " '" << o.statement.text << "'";
      }
    }
  }
}

TEST(ServeServerTest, PingShutdownAndWait) {
  Structure served = MakePathStructure(4);
  Server server(&served, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());

  Result<int> fd = ConnectLoopback(server.port());
  ASSERT_TRUE(fd.ok());
  std::string wire;
  AppendRequestFrame(&wire, {FrameKind::kPing, 1, 0, 0, ""});
  AppendRequestFrame(&wire, {FrameKind::kShutdown, 2, 0, 0, ""});
  ASSERT_TRUE(SendAll(*fd, wire).ok());

  FrameDecoder decoder;
  std::vector<Response> responses;
  while (responses.size() < 2) {
    Result<std::string> chunk = RecvSome(*fd);
    ASSERT_TRUE(chunk.ok());
    ASSERT_FALSE(chunk->empty());
    decoder.Feed(*chunk);
    for (;;) {
      Result<std::optional<Frame>> next = decoder.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      Result<Response> response = DecodeResponse(**next);
      ASSERT_TRUE(response.ok());
      responses.push_back(std::move(response).value());
    }
  }
  EXPECT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[0].text, "pong");
  EXPECT_TRUE(responses[1].ok);
  EXPECT_EQ(responses[1].text, "shutting down");
  CloseFd(*fd);

  server.Wait();  // must return because of the shutdown frame
  server.Stop();
}

TEST(ServeServerTest, MalformedBytesGetCleanErrorAndServerSurvives) {
  Structure served = MakePathStructure(6);
  Server server(&served, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());

  {
    // A corrupted length prefix: one error response, then the connection
    // dies — and the server keeps serving other clients.
    Result<int> fd = ConnectLoopback(server.port());
    ASSERT_TRUE(fd.ok());
    std::string garbage;
    AppendU32(&garbage, 0xffffffffu);
    garbage += "junk";
    ASSERT_TRUE(SendAll(*fd, garbage).ok());
    FrameDecoder decoder;
    bool got_error = false;
    for (;;) {
      Result<std::string> chunk = RecvSome(*fd);
      if (!chunk.ok() || chunk->empty()) break;  // server closed on us
      decoder.Feed(*chunk);
      Result<std::optional<Frame>> next = decoder.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) continue;
      Result<Response> response = DecodeResponse(**next);
      ASSERT_TRUE(response.ok());
      EXPECT_FALSE(response->ok);
      EXPECT_NE(response->text.find("oversized"), std::string::npos);
      got_error = true;
      break;
    }
    EXPECT_TRUE(got_error);
    CloseFd(*fd);
  }

  // A well-formed client still gets served.
  std::vector<Observed> observed =
      RunClient(server.port(), {{FrameKind::kCount, "E(x, y)"}});
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_TRUE(observed[0].ok);
  EXPECT_EQ(observed[0].text, "5");
  server.Stop();

  // A corrupt length prefix is a *framing* error (the stream is lost);
  // the recoverable body class must stay untouched.
  const auto counters = server.metrics().Snapshot().counters;
  ASSERT_NE(counters.find("serve.protocol_errors"), counters.end());
  EXPECT_GE(counters.at("serve.protocol_errors"), 1);
  EXPECT_GE(counters.at("serve.protocol_errors.framing"), 1);
  EXPECT_EQ(counters.count("serve.protocol_errors.body"), 0u);
}

TEST(ServeServerTest, MalformedBodyKeepsConnectionUsable) {
  Structure served = MakePathStructure(6);
  Server server(&served, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());

  Result<int> fd = ConnectLoopback(server.port());
  ASSERT_TRUE(fd.ok());
  // Frame 1: valid framing, body too short for a request header. Frame 2:
  // a real statement — the stream stayed in sync, so it must be answered.
  std::string wire;
  AppendU32(&wire, 2);
  wire.push_back(static_cast<char>(FrameKind::kCheck));
  wire.push_back('\x01');
  AppendRequestFrame(&wire, {FrameKind::kCount, 5, 0, 0, "E(x, y)"});
  ASSERT_TRUE(SendAll(*fd, wire).ok());

  FrameDecoder decoder;
  std::vector<Response> responses;
  while (responses.size() < 2) {
    Result<std::string> chunk = RecvSome(*fd);
    ASSERT_TRUE(chunk.ok());
    ASSERT_FALSE(chunk->empty());
    decoder.Feed(*chunk);
    for (;;) {
      Result<std::optional<Frame>> next = decoder.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      Result<Response> response = DecodeResponse(**next);
      ASSERT_TRUE(response.ok());
      responses.push_back(std::move(response).value());
    }
  }
  EXPECT_FALSE(responses[0].ok);  // the diagnostic, id 0
  EXPECT_EQ(responses[0].id, 0u);
  EXPECT_TRUE(responses[1].ok);
  EXPECT_EQ(responses[1].id, 5u);
  EXPECT_EQ(responses[1].text, "5");
  CloseFd(*fd);
  server.Stop();

  // A well-framed frame with a bad body is the recoverable *body* class —
  // the sticky framing counter must stay at zero.
  const auto counters = server.metrics().Snapshot().counters;
  ASSERT_NE(counters.find("serve.protocol_errors"), counters.end());
  EXPECT_EQ(counters.at("serve.protocol_errors"), 1);
  EXPECT_EQ(counters.at("serve.protocol_errors.body"), 1);
  EXPECT_EQ(counters.count("serve.protocol_errors.framing"), 0u);
}

TEST(ServeServerTest, MetricsEndpointServesOpenMetrics) {
  Structure served = MakePathStructure(6);
  ServeOptions options;
  options.metrics_port = 0;  // ephemeral
  Server server(&served, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GE(server.metrics_port(), 0);

  // Generate some traffic first so serve.* counters exist.
  std::vector<Observed> observed = RunClient(
      server.port(), {{FrameKind::kCount, "E(x, y)"},
                      {FrameKind::kUpdate, "insert E 0 3"}});
  ASSERT_EQ(observed.size(), 2u);

  Result<int> fd =
      ConnectLoopback(static_cast<std::uint16_t>(server.metrics_port()));
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(SendAll(*fd, "GET /metrics HTTP/1.0\r\n\r\n").ok());
  std::string reply;
  for (;;) {
    Result<std::string> chunk = RecvSome(*fd);
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    reply += *chunk;
  }
  CloseFd(*fd);

  EXPECT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(reply.find("focq_serve_requests_total"), std::string::npos);
  EXPECT_NE(reply.find("focq_serve_requests_count_total"), std::string::npos);
  EXPECT_NE(reply.find("focq_serve_requests_update_total"),
            std::string::npos);
  // Per-kind latency families plus the queue/gate wait distributions.
  EXPECT_NE(reply.find("focq_dist_serve_request_ns_count"), std::string::npos);
  EXPECT_NE(reply.find("focq_dist_serve_request_ns_update"),
            std::string::npos);
  EXPECT_NE(reply.find("focq_dist_serve_queue_wait_ns"), std::string::npos);
  EXPECT_NE(reply.find("focq_dist_serve_gate_wait_ns"), std::string::npos);
  // Live gauges sampled at scrape time.
  EXPECT_NE(reply.find("# TYPE focq_serve_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(reply.find("# TYPE focq_serve_inflight gauge"), std::string::npos);
  EXPECT_NE(reply.find("# TYPE focq_serve_connections_live gauge"),
            std::string::npos);
  // The exposition itself must be well-formed: '# EOF' terminated.
  const std::string eof = "# EOF\n";
  ASSERT_GE(reply.size(), eof.size());
  EXPECT_EQ(reply.substr(reply.size() - eof.size()), eof);
  server.Stop();
}

TEST(ServeServerTest, ExplainFlagAppendsAttributionReport) {
  Structure served = MakePathStructure(8);
  Server server(&served, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());

  Result<int> fd = ConnectLoopback(server.port());
  ASSERT_TRUE(fd.ok());
  Request request;
  request.kind = FrameKind::kCount;
  request.id = 1;
  request.flags = kRequestFlagExplain;
  request.text = "@ge1(#(y). (E(x, y)))";
  ASSERT_TRUE(SendAll(*fd, EncodeRequest(request)).ok());

  FrameDecoder decoder;
  std::optional<Response> response;
  while (!response.has_value()) {
    Result<std::string> chunk = RecvSome(*fd);
    ASSERT_TRUE(chunk.ok());
    ASSERT_FALSE(chunk->empty());
    decoder.Feed(*chunk);
    Result<std::optional<Frame>> next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) continue;
    Result<Response> decoded = DecodeResponse(**next);
    ASSERT_TRUE(decoded.ok());
    response = std::move(decoded).value();
  }
  CloseFd(*fd);

  ASSERT_TRUE(response->ok) << response->text;
  // First line is the plain result, the rest the EXPLAIN ANALYZE tree.
  const std::size_t newline = response->text.find('\n');
  ASSERT_NE(newline, std::string::npos) << response->text;
  EXPECT_EQ(response->text.substr(0, newline), "7");
  EXPECT_NE(response->text.find("plan:"), std::string::npos)
      << response->text;
  EXPECT_NE(response->text.find("cl-term"), std::string::npos)
      << response->text;
  server.Stop();
}

// Query-log end-to-end: every served statement lands in the JSONL log with a
// digest that a serial replay (in-process Session here, the focq_logreplay
// binary below) reproduces bit for bit.
class ServeQueryLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("focq_serve_qlog_" +
            std::to_string(getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

TEST_F(ServeQueryLogTest, LogsEveryStatementAndLogreplayVerifiesDigests) {
  const std::vector<std::vector<Statement>> workloads = {
      {
          {FrameKind::kCheck, "exists x. @ge1(#(y). (E(x, y)) - 1)"},
          {FrameKind::kUpdate, "insert E 0 7"},
          {FrameKind::kCount, "@ge1(#(y). (E(x, y)))"},
          {FrameKind::kUpdate, "delete E 0 7"},
      },
      {
          {FrameKind::kTerm, "#(x, y). (E(x, y))"},
          {FrameKind::kUpdate, "insert E 2 9"},
          {FrameKind::kCheck, "exists x. E(x, x)"},
      },
      {
          {FrameKind::kCount, "E(x, y)"},
          {FrameKind::kUpdate, "insert E 0 99"},  // out of bounds: error
          {FrameKind::kCheck, "(((broken"},       // parse error
          {FrameKind::kCount, "E(x, y)"},
      },
  };
  const std::string log_path = (dir_ / "query.log").string();

  Structure served = MakePathStructure(10);
  ServeOptions options;
  options.eval.num_threads = 4;
  options.query_log_path = log_path;
  Server server(&served, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    clients.emplace_back([&, i] { RunClient(server.port(), workloads[i]); });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();  // drains + closes the query log

  std::vector<QueryLogRecord> records;
  {
    std::ifstream in(log_path);
    std::string line;
    while (std::getline(in, line)) {
      Result<QueryLogRecord> parsed = ParseQueryLogLine(line);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
      records.push_back(*std::move(parsed));
    }
  }
  std::size_t total = 0;
  for (const auto& w : workloads) total += w.size();
  ASSERT_EQ(records.size(), total);

  // Admission seqs are strictly increasing once sorted; server-assigned
  // trace ids are non-zero and distinct.
  std::sort(records.begin(), records.end(),
            [](const QueryLogRecord& a, const QueryLogRecord& b) {
              return a.seq < b.seq;
            });
  std::set<std::uint64_t> trace_ids;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) ASSERT_GT(records[i].seq, records[i - 1].seq);
    EXPECT_NE(records[i].trace_id, 0u);
    trace_ids.insert(records[i].trace_id);
    EXPECT_GT(records[i].total_ns, 0);
    EXPECT_GE(records[i].total_ns, records[i].exec_ns);
  }
  EXPECT_EQ(trace_ids.size(), total);

  // In-process serial replay in seq order reproduces every digest — errors
  // included (their digest is over Status::ToString()).
  Structure replayed = MakePathStructure(10);
  EvalOptions replay_options;
  replay_options.num_threads = 4;
  Session session(&replayed, replay_options);
  for (const QueryLogRecord& r : records) {
    std::optional<FrameKind> kind = StatementKindFromWord(r.kind);
    ASSERT_TRUE(kind.has_value()) << r.kind;
    const std::string expected = EvalSerial(&session, {*kind, r.text});
    EXPECT_EQ(r.digest, Fnv1a64(expected))
        << "seq " << r.seq << " " << r.kind << " '" << r.text << "'";
  }

  // The focq_logreplay binary reaches the same verdict: zero mismatches.
  const std::string structure_path = (dir_ / "structure.focq").string();
  {
    std::ofstream out(structure_path);
    out << WriteStructure(MakePathStructure(10));
  }
  const std::string command = std::string(FOCQ_LOGREPLAY_PATH) + " " +
                              structure_path + " " + log_path +
                              " --threads 4 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  const int rc = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(rc)) << output;
  EXPECT_EQ(WEXITSTATUS(rc), 0) << output;
  EXPECT_NE(output.find("0 mismatches"), std::string::npos) << output;
  EXPECT_NE(output.find("replayed " + std::to_string(total)),
            std::string::npos)
      << output;

  // A record whose kind the server never logs is malformed input: the tool
  // names its log line instead of replaying it as some other kind.
  std::string bogus_log = (dir_ / "bogus.log").string();
  {
    std::ifstream in(log_path);
    std::ofstream out(bogus_log);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      if (++lineno == 2) {
        const std::size_t at = line.find("\"kind\":\"");
        ASSERT_NE(at, std::string::npos) << line;
        const std::size_t end = line.find('"', at + 8);
        line.replace(at + 8, end - (at + 8), "bogus");
      }
      out << line << "\n";
    }
  }
  const RunResult bogus = RunLogreplay(structure_path + " " + bogus_log);
  EXPECT_EQ(bogus.exit_code, 1) << bogus.output;
  EXPECT_NE(bogus.output.find("line 2: unknown statement kind 'bogus'"),
            std::string::npos)
      << bogus.output;
}

// focq_logreplay shares the evaluation-flag parser of focq_cli, so the
// --flag=V form works (it used to exit 2 with usage).
TEST_F(ServeQueryLogTest, LogreplayAcceptsEqualsFormOfThreads) {
  const std::string structure_path = (dir_ / "structure.focq").string();
  std::ofstream(structure_path) << WriteStructure(MakePathStructure(4));
  const std::string log_path = (dir_ / "empty.log").string();
  std::ofstream(log_path).flush();
  const RunResult r =
      RunLogreplay(structure_path + " " + log_path + " --threads=4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("replayed 0 records"), std::string::npos)
      << r.output;
}

TEST_F(ServeQueryLogTest, SlowMsLogsOnlySlowRequestsToTheFile) {
  // A generous threshold filters everything on this tiny structure; the
  // writer accounting still shows the requests passed through the sink.
  const std::string log_path = (dir_ / "query.log").string();
  Structure served = MakePathStructure(6);
  ServeOptions options;
  options.query_log_path = log_path;
  options.slow_ms = 60'000;  // one minute: nothing here is that slow
  Server server(&served, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<Observed> observed =
      RunClient(server.port(), {{FrameKind::kCount, "E(x, y)"},
                                {FrameKind::kCheck, "exists x. E(x, x)"}});
  ASSERT_EQ(observed.size(), 2u);
  server.Stop();

  std::ifstream in(log_path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 0u);
  const auto counters = server.metrics().Snapshot().counters;
  ASSERT_NE(counters.find("serve.querylog.filtered"), counters.end());
  EXPECT_EQ(counters.at("serve.querylog.filtered"), 2);
  EXPECT_EQ(counters.at("serve.querylog.written"), 0);
}

TEST_F(ServeQueryLogTest, SlowMsKeepsUpdatesAndReplays) {
  // The threshold filters both reads, never the update between them, so
  // the log still replays.
  const std::string log_path = (dir_ / "query.log").string();
  Structure served = MakePathStructure(6);
  ServeOptions options;
  options.query_log_path = log_path;
  options.slow_ms = 60'000;
  Server server(&served, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<Observed> observed =
      RunClient(server.port(), {{FrameKind::kCount, "E(x, y)"},
                                {FrameKind::kUpdate, "insert E 0 3"},
                                {FrameKind::kCount, "E(x, y)"}});
  ASSERT_EQ(observed.size(), 3u);
  server.Stop();

  std::vector<QueryLogRecord> records;
  {
    std::ifstream in(log_path);
    std::string line;
    while (std::getline(in, line)) {
      Result<QueryLogRecord> parsed = ParseQueryLogLine(line);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
      records.push_back(*std::move(parsed));
    }
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, "update");
  EXPECT_EQ(records[0].text, "insert E 0 3");
  const auto counters = server.metrics().Snapshot().counters;
  EXPECT_EQ(counters.at("serve.querylog.filtered"), 2);
  EXPECT_EQ(counters.at("serve.querylog.dropped"), 0);
  EXPECT_EQ(counters.at("serve.querylog.peak_queue"), 1);

  const std::string structure_path = (dir_ / "structure.focq").string();
  std::ofstream(structure_path) << WriteStructure(MakePathStructure(6));
  const RunResult replay = RunLogreplay(structure_path + " " + log_path);
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("0 mismatches"), std::string::npos)
      << replay.output;
}

TEST(ServeServerTest, TraceSinkCollectsLifecycleLaneSpans) {
  Structure served = MakePathStructure(8);
  TraceSink trace;
  ServeOptions options;
  options.eval.num_threads = 2;
  options.trace = &trace;
  Server server(&served, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<Observed> observed =
      RunClient(server.port(), {{FrameKind::kCount, "E(x, y)"},
                                {FrameKind::kUpdate, "insert E 0 3"},
                                {FrameKind::kCheck, "exists x. E(x, x)"}});
  ASSERT_EQ(observed.size(), 3u);
  server.Stop();

  // Every request contributes one span per lifecycle stage, named
  // "<stage>#<trace id>" so the stages of one request stitch together.
  const std::vector<WorkerSlice> spans = trace.LaneSpans();
  auto stage_suffixes = [&](const std::string& stage) {
    std::set<std::string> suffixes;
    for (const WorkerSlice& s : spans) {
      if (s.span_name.rfind(stage + "#", 0) == 0) {
        suffixes.insert(s.span_name.substr(stage.size() + 1));
      }
    }
    return suffixes;
  };
  const std::set<std::string> decode_ids = stage_suffixes("decode");
  EXPECT_EQ(decode_ids.size(), 3u);
  EXPECT_EQ(stage_suffixes("queue"), decode_ids);
  EXPECT_EQ(stage_suffixes("gate"), decode_ids);
  EXPECT_EQ(stage_suffixes("exec"), decode_ids);
  EXPECT_EQ(stage_suffixes("write"), decode_ids);

  // Stage-to-lane assignment: decode on the reader lane, queue/gate waits on
  // the dispatcher lane; both are negative so they can never collide with a
  // pool-worker lane (>= 0).
  for (const WorkerSlice& s : spans) {
    if (s.span_name.rfind("decode#", 0) == 0) EXPECT_LE(s.tid, -2);
    if (s.span_name.rfind("queue#", 0) == 0) EXPECT_EQ(s.tid, -1);
    if (s.span_name.rfind("gate#", 0) == 0) EXPECT_EQ(s.tid, -1);
    EXPECT_GE(s.duration_ns, 0);
  }

  const std::string chrome = trace.ToChromeTracing();
  EXPECT_NE(chrome.find("\"dispatcher\""), std::string::npos);
  EXPECT_NE(chrome.find("reader-"), std::string::npos);
}

TEST(ServeServerTest, FlightRecorderSeesConnectionAndDrainEvents) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Enable();
  recorder.Clear();

  Structure served = MakePathStructure(6);
  Server server(&served, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  std::vector<Observed> observed =
      RunClient(server.port(), {{FrameKind::kCount, "E(x, y)"},
                                {FrameKind::kUpdate, "insert E 0 3"}});
  ASSERT_EQ(observed.size(), 2u);
  server.Stop();

  std::size_t opens = 0, closes = 0, drain_begin = 0, drain_end = 0;
  for (const FlightEvent& e : recorder.Snapshot()) {
    const std::string_view name(e.name);
    if (name == "serve.conn.open") ++opens;
    if (name == "serve.conn.close") ++closes;
    if (name == "serve.update.drain.begin") ++drain_begin;
    if (name == "serve.update.drain.end") ++drain_end;
  }
  recorder.Disable();
  EXPECT_GE(opens, 1u);
  EXPECT_GE(closes, 1u);
  EXPECT_EQ(drain_begin, 1u);  // one update: one exclusive-gate drain
  EXPECT_EQ(drain_end, 1u);
}

TEST(ServeServerTest, StopWithoutTrafficIsClean) {
  Structure served = MakePathStructure(4);
  Server server(&served, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  server.Stop();  // idempotent
}

}  // namespace
}  // namespace serve
}  // namespace focq
