// Structured query log: one JSONL record per served request, written
// asynchronously so logging never blocks the request path (DESIGN.md §3g,
// "Request lifecycle & query log").
//
// Each record captures everything needed to (a) answer "why was *this*
// request slow" — the per-stage nanosecond breakdown of the request
// lifecycle (reader decode, admission-queue wait, snapshot-gate wait, pool
// execution, response write) — and (b) *replay* the served interleaving:
// the admission sequence number orders records into exactly the serial
// statement stream the bit-identity contract is defined against, and the
// FNV-1a digest of each response text lets `tools/focq_logreplay` verify a
// re-execution bit for bit. The log is an executable reproduction artifact,
// in the same spirit as the fuzzer's replayable .case files (§3c).
//
// Writer contract: Append() is wait-free from the caller's perspective — it
// takes one uncontended mutex, moves the record into a bounded queue and
// returns. A full queue *drops* a read record (counted, surfaced through
// the serve metrics) instead of blocking the dispatcher; losing a read's
// log line under overload is acceptable, stalling admission is not. Update
// records are never filtered or dropped (only a closed writer refuses
// one): replay re-applies every update, and one lost update would make
// every later read diverge. They come one per write statement, so the
// queue grows past its cap only while updates arrive faster than the
// writer drains them, and without bound while the writer is stuck in file
// I/O; peak_queue() (serve.querylog.peak_queue) shows how deep it got. A
// background thread drains the queue to the file in batches.
#ifndef FOCQ_OBS_QUERYLOG_H_
#define FOCQ_OBS_QUERYLOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "focq/util/status.h"

namespace focq {

/// 64-bit FNV-1a over `text` — the result digest of a query-log record.
/// Stable across platforms and releases: committed logs stay replayable.
std::uint64_t Fnv1a64(std::string_view text);

/// `v` as 16 lowercase hex digits (the JSON encoding of trace ids and
/// digests: u64 values are hex strings because JSON numbers lose precision
/// past 2^53).
std::string HexU64(std::uint64_t v);

/// One served request. Field semantics:
///   * seq            global admission sequence number (the replay order)
///   * client_id      server-side connection id
///   * trace_id       request trace id (client-supplied or server-generated)
///   * kind           statement kind word ("check", "count", "term", "update")
///   * text           the statement text, verbatim
///   * ok             whether the response was a success frame
///   * deadline_exceeded  the request died on its hard deadline
///   * *_ns           per-stage wall time: decode (reader thread), queue
///                    (enqueue -> dispatcher pop, backpressure included),
///                    gate (snapshot-gate acquisition / update drain), exec
///                    (pool-worker evaluation), write (response
///                    serialisation + send), total (decode start -> response
///                    written, pool-dispatch wait included)
///   * cache_hits/misses  EvalContext artifact-cache deltas for this request
///   * digest         Fnv1a64 of the response text (for EXPLAIN requests:
///                    of the result line only — attribution timings are not
///                    deterministic and replay must still verify)
struct QueryLogRecord {
  std::uint64_t seq = 0;
  std::uint64_t client_id = 0;
  std::uint64_t trace_id = 0;
  std::string kind;
  std::string text;
  bool ok = true;
  bool deadline_exceeded = false;
  std::int64_t decode_ns = 0;
  std::int64_t queue_ns = 0;
  std::int64_t gate_ns = 0;
  std::int64_t exec_ns = 0;
  std::int64_t write_ns = 0;
  std::int64_t total_ns = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::uint64_t digest = 0;

  /// One JSONL line (no trailing newline):
  ///   {"seq":3,"client":1,"trace":"000000000000002a","kind":"count",
  ///    "text":"E(x, y)","ok":true,"deadline":false,
  ///    "ns":{"decode":..,"queue":..,"gate":..,"exec":..,"write":..,
  ///          "total":..},
  ///    "cache":{"hits":..,"misses":..},"digest":"a1b2..."}
  std::string ToJsonLine() const;

  friend bool operator==(const QueryLogRecord& a, const QueryLogRecord& b) {
    return a.seq == b.seq && a.client_id == b.client_id &&
           a.trace_id == b.trace_id && a.kind == b.kind && a.text == b.text &&
           a.ok == b.ok && a.deadline_exceeded == b.deadline_exceeded &&
           a.decode_ns == b.decode_ns && a.queue_ns == b.queue_ns &&
           a.gate_ns == b.gate_ns && a.exec_ns == b.exec_ns &&
           a.write_ns == b.write_ns && a.total_ns == b.total_ns &&
           a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
           a.digest == b.digest;
  }
};

/// Parses one line produced by ToJsonLine (field order independent; unknown
/// keys are skipped, so the schema can grow without breaking old replays).
Result<QueryLogRecord> ParseQueryLogLine(std::string_view line);

/// Asynchronous JSONL writer with a bounded queue and an optional slow-ms
/// threshold filter, both of which apply to reads only: records of kind
/// "update" are always written.
class QueryLogWriter {
 public:
  struct Options {
    std::string path;
    /// Log only reads whose total_ns reaches this many milliseconds, and
    /// every update (0: log everything). Filtered records are counted, not
    /// dropped — the two are different signals (policy vs overload).
    std::int64_t slow_ms = 0;
    /// Bounded queue capacity for reads; a full queue drops a read instead
    /// of blocking, and never an update.
    std::size_t queue_capacity = 4096;
  };

  /// Opens (truncates) the file and starts the writer thread.
  static Result<std::unique_ptr<QueryLogWriter>> Open(Options options);

  ~QueryLogWriter();
  QueryLogWriter(const QueryLogWriter&) = delete;
  QueryLogWriter& operator=(const QueryLogWriter&) = delete;

  /// Enqueues one record; never blocks on I/O. Below-threshold reads are
  /// filtered, queue-full reads dropped — both counted. An update is
  /// always enqueued unless the writer is closed.
  void Append(QueryLogRecord record);

  /// Drains the queue, flushes the file and joins the writer thread.
  /// Idempotent; the destructor calls it.
  void Close();

  std::uint64_t written() const { return written_.load(); }
  std::uint64_t dropped() const { return dropped_.load(); }
  std::uint64_t filtered() const { return filtered_.load(); }
  /// The deepest the queue has been. Reads stop at queue_capacity; a peak
  /// past it is updates outrunning the writer thread.
  std::uint64_t peak_queue() const { return peak_queue_.load(); }

 private:
  explicit QueryLogWriter(Options options) : options_(std::move(options)) {}
  void WriterLoop();

  Options options_;
  std::ofstream out_;
  std::thread writer_;
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<QueryLogRecord> queue_;
  bool closing_ = false;
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> filtered_{0};
  std::atomic<std::uint64_t> peak_queue_{0};  // stored under mutex_
};

}  // namespace focq

#endif  // FOCQ_OBS_QUERYLOG_H_
