// The closed-loop load generator: single-threaded, poll(2)-driven, over a
// fixed number of loopback connections with a fixed number of statements in
// flight on each. A connection sends its next statement as soon as one of
// its replies has fully arrived, the way focq_serve --client pipelines.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "focq/util/status.h"
#include "workload.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

/// One statement sent, and what came back.
struct Sample {
  std::size_t index = 0;      // position in the statement source
  FrameKind kind = FrameKind::kCheck;
  std::string text;
  std::uint64_t trace_id = 0;
  std::int64_t send_ns = 0;   // just before the request frame is written
  std::int64_t recv_ns = 0;   // when the full response frame arrived; 0 if
                              // no response came back
  bool ok = false;            // a success frame
  std::uint64_t seq = 0;      // the server's admission sequence number
  std::string response;
  bool correct = false;       // set by the answer check
};

struct LoadOptions {
  int connections = 1;
  int outstanding = 1;
  double ramp_seconds = 0;        // untimed lead-in before the window
  double seconds = 0;             // then stop issuing after this long
                                  // (0: no limit)
  std::size_t max_statements = 0; // stop issuing after this many (0: none)
  std::uint64_t trace_base = 0;   // request i carries trace id base + i + 1
};

struct LoadResult {
  std::vector<Sample> samples;  // every statement sent, in send order
  std::int64_t start_ns = 0;    // the timed window's start (after the ramp)
  std::int64_t end_ns = 0;      // arrival of the last response
  double cpu_seconds = 0;       // the generator's own CPU time in the loop
  focq::Status status = focq::Status::Ok();  // connection-level failure
};

/// Drives the server on `port` with statements source(0), source(1), ...
/// for the ramp and then the window (or up to the count limit), then waits
/// (bounded) for the replies still in flight; replies that never arrive
/// stay with recv_ns == 0. Samples sent before start_ns belong to the ramp.
LoadResult RunClosedLoop(std::uint16_t port,
                         const std::function<Statement(std::size_t)>& source,
                         const LoadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
