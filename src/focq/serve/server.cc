#include "focq/serve/server.h"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <map>
#include <string>
#include <utility>

#include "focq/core/statement.h"
#include "focq/obs/openmetrics.h"
#include "focq/obs/recorder.h"
#include "focq/serve/socket_util.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace serve {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Trace lanes: pool workers own the non-negative tids (0: coordinator), so
// the server's own threads get negative lanes — the dispatcher at -1 and
// reader lanes derived from the connection id below it.
constexpr int kDispatcherLane = -1;

int ReaderLane(std::uint64_t client_id) {
  return -2 - static_cast<int>(client_id % 1000000);
}

Response ErrorResponse(std::uint32_t id, std::uint64_t seq,
                       const Status& status) {
  Response response;
  response.ok = false;
  response.id = id;
  response.seq = seq;
  response.text = status.ToString();
  return response;
}

// Dispatch answers ping and shutdown itself; only statement kinds get here.
StatementKind ToStatementKind(FrameKind kind) {
  switch (kind) {
    case FrameKind::kCheck: return StatementKind::kCheck;
    case FrameKind::kCount: return StatementKind::kCount;
    case FrameKind::kTerm: return StatementKind::kTerm;
    default: return StatementKind::kUpdate;
  }
}

}  // namespace

Server::Server(Structure* a, const ServeOptions& options)
    : a_(a),
      options_(options),
      context_(*a),
      queue_(options.admission_capacity) {
  // The server wires its own sinks per request; caller-installed ones would
  // race across pool workers.
  options_.eval.context = nullptr;
  options_.eval.metrics = nullptr;
  options_.eval.trace = nullptr;
  options_.eval.explain = nullptr;
  options_.eval.progress = nullptr;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (!options_.query_log_path.empty()) {
    QueryLogWriter::Options qopts;
    qopts.path = options_.query_log_path;
    qopts.slow_ms = options_.slow_ms;
    Result<std::unique_ptr<QueryLogWriter>> writer =
        QueryLogWriter::Open(std::move(qopts));
    if (!writer.ok()) return writer.status();
    query_log_ = std::move(writer).value();
  }
  if (options_.trace != nullptr) {
    options_.trace->NameLane(kDispatcherLane, "dispatcher");
  }

  Result<int> listen_fd = ListenLoopback(options_.port);
  if (!listen_fd.ok()) return listen_fd.status();
  listen_fd_ = *listen_fd;
  Result<std::uint16_t> port = LocalPort(listen_fd_);
  if (!port.ok()) return port.status();
  port_ = *port;

  if (options_.metrics_port >= 0) {
    Result<int> metrics_fd =
        ListenLoopback(static_cast<std::uint16_t>(options_.metrics_port));
    if (!metrics_fd.ok()) return metrics_fd.status();
    metrics_fd_ = *metrics_fd;
    Result<std::uint16_t> metrics_port = LocalPort(metrics_fd_);
    if (!metrics_port.ok()) return metrics_port.status();
    metrics_port_ = *metrics_port;
  }

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  if (metrics_fd_ >= 0) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }
  started_ = true;
  return Status::Ok();
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Server::SignalShutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (!started_ || stopped_) {
      shutdown_requested_ = true;
      shutdown_cv_.notify_all();
      return;
    }
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_release);

  // Wake the accept loop: shutdown() unblocks a pending accept on Linux; a
  // throwaway connection covers platforms where it does not.
  ShutdownFd(listen_fd_);
  if (Result<int> poke = ConnectLoopback(port_); poke.ok()) CloseFd(*poke);
  if (accept_thread_.joinable()) accept_thread_.join();

  // Wake every reader (recv returns 0/error once its socket is shut down)
  // and every producer blocked on a full queue, then join the readers.
  for (const auto& session : registry_.Snapshot()) session->CloseSocket();
  queue_.Close();
  {
    std::lock_guard<std::mutex> lock(readers_mutex_);
    for (std::thread& t : reader_threads_) {
      if (t.joinable()) t.join();
    }
    reader_threads_.clear();
  }

  // The dispatcher drains whatever was admitted before the close, then
  // exits; after that, wait for the pool-side reads it handed out.
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  {
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
  }

  // Every record is appended by now (dispatcher drained, pool idle), so
  // Close() flushes a complete log.
  if (query_log_ != nullptr) {
    query_log_->Close();
    metrics_.MaxCounter("serve.querylog.written",
                        static_cast<std::int64_t>(query_log_->written()));
    metrics_.MaxCounter("serve.querylog.dropped",
                        static_cast<std::int64_t>(query_log_->dropped()));
    metrics_.MaxCounter("serve.querylog.filtered",
                        static_cast<std::int64_t>(query_log_->filtered()));
    metrics_.MaxCounter("serve.querylog.peak_queue",
                        static_cast<std::int64_t>(query_log_->peak_queue()));
  }

  if (metrics_fd_ >= 0) {
    ShutdownFd(metrics_fd_);
    if (Result<int> poke =
            ConnectLoopback(static_cast<std::uint16_t>(metrics_port_));
        poke.ok()) {
      CloseFd(*poke);
    }
  }
  if (metrics_thread_.joinable()) metrics_thread_.join();

  CloseFd(listen_fd_);
  listen_fd_ = -1;
  CloseFd(metrics_fd_);
  metrics_fd_ = -1;
  SignalShutdown();
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) CloseFd(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket gone
    }
    auto session = registry_.Register(fd);
    metrics_.AddCounter("serve.connections", 1);
    FlightRecord(FlightEventKind::kMark, "serve.conn.open",
                 static_cast<std::int64_t>(session->id()));
    std::lock_guard<std::mutex> lock(readers_mutex_);
    reader_threads_.emplace_back(
        [this, session = std::move(session)] { ReaderLoop(session); });
  }
}

void Server::ReaderLoop(std::shared_ptr<ClientSession> session) {
  const int lane = ReaderLane(session->id());
  if (options_.trace != nullptr) {
    options_.trace->NameLane(lane,
                             "reader-" + std::to_string(session->id()));
  }
  FrameDecoder decoder;
  bool clean_eof = false;
  for (;;) {
    Result<std::string> chunk = RecvSome(session->fd());
    if (!chunk.ok()) break;               // socket error / shutdown
    if (chunk->empty()) {                 // orderly EOF
      clean_eof = true;
      break;
    }
    decoder.Feed(*chunk);
    bool connection_dead = false;
    for (;;) {
      // Decode timing starts at this parse attempt; a frame that arrived
      // split across chunks is charged only its final (completing) parse,
      // not the socket wait in between.
      const std::int64_t decode_start = NowNs();
      Result<std::optional<Frame>> next = decoder.Next();
      if (!next.ok()) {
        // Framing is unrecoverable (corrupted length prefix / kind byte):
        // the decoder is poisoned, so one diagnostic response, then the
        // connection dies — never the server.
        metrics_.AddCounter("serve.protocol_errors", 1);
        metrics_.AddCounter("serve.protocol_errors.framing", 1);
        session->Send(ErrorResponse(0, 0, next.status()));
        connection_dead = true;
        break;
      }
      if (!next->has_value()) break;  // need more bytes
      Result<Request> request = DecodeRequest(**next);
      if (!request.ok()) {
        // The frame itself was well-formed, so the stream is still in sync:
        // report and keep the connection.
        metrics_.AddCounter("serve.protocol_errors", 1);
        metrics_.AddCounter("serve.protocol_errors.body", 1);
        session->Send(ErrorResponse(0, 0, request.status()));
        continue;
      }
      session->OnAdmitted();
      AdmittedRequest admitted;
      admitted.client_id = session->id();
      admitted.request = std::move(request).value();
      admitted.trace_id =
          (admitted.request.flags & kRequestFlagTraceId) != 0
              ? admitted.request.trace_id
              : next_trace_id_.fetch_add(1, std::memory_order_relaxed);
      admitted.recv_ns = decode_start;
      admitted.decode_ns = NowNs() - decode_start;
      TraceLaneSpan("decode", admitted.trace_id, lane, decode_start,
                    admitted.decode_ns);
      admitted.enqueue_ns = NowNs();
      if (!queue_.Push(std::move(admitted))) {
        connection_dead = true;  // server is stopping
        break;
      }
    }
    if (connection_dead) break;
  }
  if (clean_eof) {
    if (Status boundary = decoder.AtFrameBoundary(); !boundary.ok()) {
      // EOF inside a frame is a framing-level stream corruption too.
      metrics_.AddCounter("serve.protocol_errors", 1);
      metrics_.AddCounter("serve.protocol_errors.framing", 1);
      session->Send(ErrorResponse(0, 0, boundary));
    }
  }
  session->CloseSocket();
  registry_.Unregister(session->id());
  FlightRecord(FlightEventKind::kMark, "serve.conn.close",
               static_cast<std::int64_t>(session->id()));
}

void Server::DispatchLoop() {
  while (std::optional<AdmittedRequest> item = queue_.Pop()) {
    Dispatch(std::move(*item));
  }
}

void Server::TraceLaneSpan(const char* stage, std::uint64_t trace_id, int tid,
                           std::int64_t start_ns, std::int64_t duration_ns) {
  if (options_.trace == nullptr) return;
  options_.trace->RecordSpanAt(std::string(stage) + "#" + HexU64(trace_id),
                               tid, start_ns, duration_ns);
}

void Server::Dispatch(AdmittedRequest admitted) {
  const Request& request = admitted.request;
  const std::int64_t pop_ns = NowNs();
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  metrics_.AddCounter("serve.requests", 1);
  metrics_.AddCounter(std::string("serve.requests.") +
                          FrameKindName(request.kind),
                      1);
  // Queue wait: enqueue instant (before Push, so backpressure blocking
  // counts) to dispatcher pop.
  const std::int64_t queue_ns =
      admitted.enqueue_ns > 0 ? pop_ns - admitted.enqueue_ns : 0;
  metrics_.RecordValue("serve.queue_wait_ns", queue_ns);
  if (admitted.enqueue_ns > 0) {
    TraceLaneSpan("queue", admitted.trace_id, kDispatcherLane,
                  admitted.enqueue_ns, queue_ns);
  }

  if (request.kind == FrameKind::kPing) {
    Response response;
    response.id = request.id;
    response.seq = seq;
    response.text = "pong";
    SendToClient(admitted.client_id, response);
    return;
  }
  if (request.kind == FrameKind::kShutdown) {
    Response response;
    response.id = request.id;
    response.seq = seq;
    response.text = "shutting down";
    SendToClient(admitted.client_id, response);
    SignalShutdown();
    return;
  }
  if (request.kind == FrameKind::kUpdate) {
    // Exclusive side: drain in-flight reads, repair artifacts, readmit.
    FlightRecord(FlightEventKind::kMark, "serve.update.drain.begin",
                 static_cast<std::int64_t>(seq), gate_.active_readers());
    const std::int64_t gate_start = NowNs();
    gate_.BeginWrite();
    const std::int64_t gate_ns = NowNs() - gate_start;
    metrics_.RecordValue("serve.gate_wait_ns", gate_ns);
    TraceLaneSpan("gate", admitted.trace_id, kDispatcherLane, gate_start,
                  gate_ns);
    QueryLogRecord log;
    const std::int64_t exec_start = NowNs();
    Response response =
        Execute(request, seq, query_log_ != nullptr ? &log : nullptr);
    const std::int64_t exec_ns = NowNs() - exec_start;
    gate_.EndWrite();
    FlightRecord(FlightEventKind::kMark, "serve.update.drain.end",
                 static_cast<std::int64_t>(seq));
    TraceLaneSpan("exec", admitted.trace_id, kDispatcherLane, exec_start,
                  exec_ns);
    const std::int64_t write_start = NowNs();
    SendToClient(admitted.client_id, response);
    const std::int64_t write_ns = NowNs() - write_start;
    TraceLaneSpan("write", admitted.trace_id, kDispatcherLane, write_start,
                  write_ns);
    AppendQueryLog(std::move(log), admitted, seq, queue_ns, gate_ns, exec_ns,
                   write_ns);
    return;
  }

  // check / count / term: admitted under the shared side here, released by
  // the pool task when the evaluation is done. The gate is entered *before*
  // Submit so a later update in admission order cannot overtake this read.
  const std::int64_t gate_start = NowNs();
  gate_.BeginRead();
  const std::int64_t gate_ns = NowNs() - gate_start;
  metrics_.RecordValue("serve.gate_wait_ns", gate_ns);
  TraceLaneSpan("gate", admitted.trace_id, kDispatcherLane, gate_start,
                gate_ns);
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    ++inflight_;
  }
  ThreadPool::Shared().Submit(
      [this, admitted = std::move(admitted), seq, queue_ns, gate_ns] {
        // While the evaluation runs, route its engine-internal ParallelFor
        // chunks to this worker's lane of the trace sink (the observer is
        // thread-local, so concurrent requests do not interfere).
        ParallelForObserver* previous = nullptr;
        if (options_.trace != nullptr) {
          previous = SetParallelForObserver(options_.trace);
        }
        QueryLogRecord log;
        const std::int64_t exec_start = NowNs();
        Response response = Execute(admitted.request, seq,
                                    query_log_ != nullptr ? &log : nullptr);
        const std::int64_t exec_ns = NowNs() - exec_start;
        if (options_.trace != nullptr) {
          SetParallelForObserver(previous);
        }
        TraceLaneSpan("exec", admitted.trace_id, CurrentWorkerTid(),
                      exec_start, exec_ns);
        const std::int64_t write_start = NowNs();
        SendToClient(admitted.client_id, response);
        const std::int64_t write_ns = NowNs() - write_start;
        TraceLaneSpan("write", admitted.trace_id, CurrentWorkerTid(),
                      write_start, write_ns);
        AppendQueryLog(std::move(log), admitted, seq, queue_ns, gate_ns,
                       exec_ns, write_ns);
        gate_.EndRead();
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        --inflight_;
        inflight_cv_.notify_all();
      });
}

Response Server::Execute(const Request& request, std::uint64_t seq,
                         QueryLogRecord* log) {
  const std::int64_t start_ns = NowNs();
  // Reads get the per-request deadline and EXPLAIN; an update always runs to
  // completion, unexplained, against the server sink.
  const bool read = IsReadStatement(request.kind);
  EvalOptions opts = options_.eval;
  opts.context = &context_;
  opts.metrics = &metrics_;
  if (read && options_.deadline_ms > 0) {
    opts.deadline.hard_ms = options_.deadline_ms;
  }

  // EXPLAIN ANALYZE attribution and the query log's cache deltas both want
  // request-scoped counters, which need a request-private flat sink (the
  // shared one would interleave concurrent requests); the private counters
  // are folded into the server sink after.
  const bool explain = read && (request.flags & kRequestFlagExplain) != 0;
  const bool private_metrics = read && (explain || log != nullptr);
  MetricsSink request_metrics;
  ExplainSink explain_sink;
  if (log != nullptr) {
    log->kind = FrameKindName(request.kind);
    log->text = request.text;
  }
  if (explain) {
    if (opts.engine == Engine::kApprox) {
      metrics_.AddCounter("serve.errors", 1);
      if (log != nullptr) log->ok = false;
      return ErrorResponse(
          request.id, seq,
          Status::InvalidArgument(
              "EXPLAIN is not available with the approx engine"));
    }
    opts.explain = &explain_sink;
  }
  if (private_metrics) {
    opts.metrics = &request_metrics;
  }

  Result<std::string> result =
      ExecuteStatement(ToStatementKind(request.kind), request.text, *a_, opts,
                       read ? nullptr : a_);

  if (private_metrics) {
    // Fold the request-private pipeline counters back into the scrapeable
    // server sink. ctx.cache.bytes is a high-water mark, not a rate — it
    // must merge by max or per-request folds would inflate it.
    EvalMetrics snapshot = request_metrics.Snapshot();
    for (const auto& [name, value] : snapshot.counters) {
      if (name == "ctx.cache.bytes") {
        metrics_.MaxCounter(name, value);
      } else {
        metrics_.AddCounter(name, value);
      }
    }
    for (const auto& [name, stats] : snapshot.values) {
      metrics_.MergeValue(name, stats);
    }
    if (log != nullptr) {
      auto hits = snapshot.counters.find("ctx.cache.hits");
      auto misses = snapshot.counters.find("ctx.cache.misses");
      log->cache_hits = hits != snapshot.counters.end() ? hits->second : 0;
      log->cache_misses =
          misses != snapshot.counters.end() ? misses->second : 0;
    }
  }
  if (log != nullptr) {
    log->ok = result.ok();
    log->deadline_exceeded =
        result.status().code() == StatusCode::kDeadlineExceeded;
    // Digest over the result text *before* the EXPLAIN appendix: the
    // attribution timings are wall-clock and a replay must still verify.
    log->digest =
        Fnv1a64(result.ok() ? *result : result.status().ToString());
  }
  Response response;
  response.id = request.id;
  response.seq = seq;
  if (result.ok()) {
    response.text = std::move(result).value();
    if (explain) {
      response.text += '\n';
      response.text += explain_sink.Snapshot().ToText();
    }
  }

  const std::int64_t elapsed_ns = NowNs() - start_ns;
  metrics_.RecordValue("serve.request_ns", elapsed_ns);
  metrics_.RecordValue(
      std::string("serve.request_ns.") + FrameKindName(request.kind),
      elapsed_ns);
  if (!result.ok()) {
    metrics_.AddCounter("serve.errors", 1);
    return ErrorResponse(request.id, seq, result.status());
  }
  return response;
}

void Server::AppendQueryLog(QueryLogRecord log, const AdmittedRequest& admitted,
                            std::uint64_t seq, std::int64_t queue_ns,
                            std::int64_t gate_ns, std::int64_t exec_ns,
                            std::int64_t write_ns) {
  if (query_log_ == nullptr) return;
  log.seq = seq;
  log.client_id = admitted.client_id;
  log.trace_id = admitted.trace_id;
  log.decode_ns = admitted.decode_ns;
  log.queue_ns = queue_ns;
  log.gate_ns = gate_ns;
  log.exec_ns = exec_ns;
  log.write_ns = write_ns;
  log.total_ns = admitted.recv_ns > 0 ? NowNs() - admitted.recv_ns : exec_ns;
  query_log_->Append(std::move(log));
}

void Server::SendToClient(std::uint64_t client_id, const Response& response) {
  std::shared_ptr<ClientSession> session = registry_.Find(client_id);
  if (session == nullptr) return;  // client left while the request ran
  session->Send(response);         // send errors mark the session closed
}

void Server::MetricsLoop() {
  for (;;) {
    const int fd = ::accept(metrics_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) CloseFd(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // Consume whatever request line the scraper sent (content ignored: every
    // path serves the same exposition), then answer and close — HTTP/1.0.
    RecvSome(fd, 4096);
    if (query_log_ != nullptr) {
      metrics_.MaxCounter("serve.querylog.written",
                          static_cast<std::int64_t>(query_log_->written()));
      metrics_.MaxCounter("serve.querylog.dropped",
                          static_cast<std::int64_t>(query_log_->dropped()));
      metrics_.MaxCounter("serve.querylog.filtered",
                          static_cast<std::int64_t>(query_log_->filtered()));
      metrics_.MaxCounter("serve.querylog.peak_queue",
                          static_cast<std::int64_t>(query_log_->peak_queue()));
    }
    std::map<std::string, std::int64_t> gauges;
    gauges["serve.queue_depth"] = static_cast<std::int64_t>(queue_.size());
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      gauges["serve.inflight"] = inflight_;
    }
    gauges["serve.connections_live"] =
        static_cast<std::int64_t>(registry_.size());
    gauges["serve.queue_full_waits"] =
        static_cast<std::int64_t>(queue_.full_waits());
    OpenMetricsSeries series(1);
    series.Sample(UnixMillisNow(), metrics_.Snapshot(), nullptr,
                  std::move(gauges));
    const std::string body = series.Render();
    std::string response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: application/openmetrics-text; version=1.0.0; "
        "charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n" +
        body;
    SendAll(fd, response);
    CloseFd(fd);
  }
}

}  // namespace serve
}  // namespace focq
