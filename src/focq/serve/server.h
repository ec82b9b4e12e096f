// The focq_serve server: a persistent multi-tenant evaluation daemon over
// the wire protocol of protocol.h (DESIGN.md §3g).
//
// Architecture (one box per thread kind):
//
//   [reader x N] --frames--> [RequestQueue] --> [dispatcher] --+--> inline:
//     one per connection         bounded           assigns seq |    ping,
//     FrameDecoder loop          FIFO              admission   |    shutdown,
//                                                  order       |    update
//                                                              |    (gate
//                                                              |     write
//                                                              |     side)
//                                                              +--> pool:
//                                                                   check /
//                                                                   count /
//                                                                   term
//                                                                   (gate
//                                                                    read
//                                                                    side)
//
// Snapshot semantics: reads are admitted under the shared side of a
// SnapshotGate and handed to the global work-stealing pool, where each one
// fans out across cover clusters via the engines' own ParallelFor (the
// per-cluster cl-term decomposition of Theorem 6.10 is the sharding unit, so
// many queries interleave on the pool while each still parallelises
// internally). An `update` takes the exclusive side: the dispatcher stops
// admitting, waits for every in-flight read to finish, applies
// EvalContext::ApplyUpdate (incremental artifact repair), then readmits.
// Because admission order is total (the seq counter) and updates are
// serialised against reads, every response text is bit-identical to a serial
// replay of the statements, ordered by seq, through one Session — the
// contract the serve-smoke CI job checks.
#ifndef FOCQ_SERVE_SERVER_H_
#define FOCQ_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "focq/core/api.h"
#include "focq/obs/querylog.h"
#include "focq/obs/trace.h"
#include "focq/serve/protocol.h"
#include "focq/serve/queue.h"
#include "focq/serve/registry.h"

namespace focq {
namespace serve {

struct ServeOptions {
  /// Query port; 0 picks an ephemeral port (read back with Server::port()).
  std::uint16_t port = 0;
  /// OpenMetrics scrape port; negative disables the endpoint, 0 is
  /// ephemeral (Server::metrics_port()).
  int metrics_port = -1;
  /// Per-call evaluation defaults (engine, threads, approx contract). The
  /// context/metrics/progress/explain sink fields are ignored — the server
  /// installs its own per-request wiring.
  EvalOptions eval;
  /// Hard per-request deadline in ms (0: none). Applied per request, so one
  /// runaway query costs its own client a kDeadlineExceeded, not the server.
  std::int64_t deadline_ms = 0;
  /// Admission queue capacity; full queue = backpressure on readers.
  std::size_t admission_capacity = 256;
  /// Request-lifecycle trace sink (null: no tracing). The server never uses
  /// Begin/End on it — lifecycle stages land via RecordSpanAt on named lanes
  /// (reader-N, dispatcher, the real pool-worker lanes), which has no
  /// nesting contract and is safe across the server's threads. Must outlive
  /// the server.
  TraceSink* trace = nullptr;
  /// Structured query log path (empty: no log). One JSONL record per served
  /// check/count/term/update — see obs/querylog.h for the schema.
  std::string query_log_path;
  /// Log only requests slower than this many ms (0: log everything).
  std::int64_t slow_ms = 0;
};

/// One server instance over one mutable structure. Start() spawns the accept
/// / dispatcher / metrics threads and returns; Wait() blocks until a client
/// sends a shutdown frame (or Stop() is called); Stop() tears everything
/// down and is idempotent. The structure must outlive the server.
class Server {
 public:
  Server(Structure* a, const ServeOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start();
  /// Blocks until a shutdown frame arrives or Stop() runs.
  void Wait();
  void Stop();

  std::uint16_t port() const { return port_; }
  int metrics_port() const { return metrics_port_; }

  /// The server-lifetime metrics sink (serve.* counters plus every
  /// evaluation's pipeline counters) — what the scrape endpoint renders.
  MetricsSink& metrics() { return metrics_; }

 private:
  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<ClientSession> session);
  void DispatchLoop();
  void MetricsLoop();

  /// Admission (dispatcher thread): assigns seq, routes to the gate +
  /// pool / inline execution.
  void Dispatch(AdmittedRequest admitted);

  /// Executes one statement through ExecuteStatement (core/statement.h):
  /// a read (check/count/term) on a pool worker, an update on the dispatcher
  /// thread. Never touches the gate; the caller brackets it with the shared
  /// or exclusive side. When `log` is non-null the execution-side query-log
  /// fields are filled (kind, text, ok, deadline, cache deltas, digest).
  Response Execute(const Request& request, std::uint64_t seq,
                   QueryLogRecord* log);

  /// Stamps the admission and stage timings on `log` and appends it to the
  /// query log; no-op without one.
  void AppendQueryLog(QueryLogRecord log, const AdmittedRequest& admitted,
                      std::uint64_t seq, std::int64_t queue_ns,
                      std::int64_t gate_ns, std::int64_t exec_ns,
                      std::int64_t write_ns);

  /// Lifecycle span helper: no-op without a trace sink.
  void TraceLaneSpan(const char* stage, std::uint64_t trace_id, int tid,
                     std::int64_t start_ns, std::int64_t duration_ns);

  void SendToClient(std::uint64_t client_id, const Response& response);
  void SignalShutdown();

  Structure* a_;
  ServeOptions options_;
  EvalContext context_;
  MetricsSink metrics_;

  SessionRegistry registry_;
  RequestQueue queue_;
  SnapshotGate gate_;
  std::atomic<std::uint64_t> next_seq_{1};
  // Server-assigned trace ids for requests whose client did not supply one
  // (kRequestFlagTraceId unset). Client-supplied ids are taken verbatim.
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::unique_ptr<QueryLogWriter> query_log_;

  int listen_fd_ = -1;
  int metrics_fd_ = -1;
  std::uint16_t port_ = 0;
  int metrics_port_ = -1;

  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::thread metrics_thread_;
  std::mutex readers_mutex_;
  std::vector<std::thread> reader_threads_;

  // Reads in flight on the pool: Stop() must not tear the server down while
  // a pool task still references the gate / registry / metrics sink.
  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::int64_t inflight_ = 0;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace serve
}  // namespace focq

#endif  // FOCQ_SERVE_SERVER_H_
