#include "loadgen.h"

#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "focq/serve/protocol.h"
#include "focq/serve/socket_util.h"

namespace perfbench {
namespace {

constexpr std::int64_t kDrainTimeoutNs = 30'000'000'000;

double ThreadCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

struct Connection {
  int fd = -1;
  focq::serve::FrameDecoder decoder;
  std::unordered_map<std::uint32_t, std::size_t> pending;  // id -> sample
  std::uint32_t next_id = 1;
};

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LoadResult RunClosedLoop(std::uint16_t port,
                         const std::function<Statement(std::size_t)>& source,
                         const LoadOptions& options) {
  using namespace focq::serve;
  LoadResult result;
  std::vector<Connection> connections(options.connections);
  for (Connection& c : connections) {
    focq::Result<int> fd = ConnectLoopback(port);
    if (!fd.ok()) {
      result.status = fd.status();
      for (Connection& open : connections) {
        if (open.fd >= 0) CloseFd(open.fd);
      }
      return result;
    }
    c.fd = *fd;
  }

  const double cpu_start = ThreadCpuSeconds();
  const std::int64_t loop_start_ns = NowNs();
  result.start_ns =
      loop_start_ns + static_cast<std::int64_t>(options.ramp_seconds * 1e9);
  const std::int64_t stop_issuing_ns =
      options.seconds > 0
          ? result.start_ns + static_cast<std::int64_t>(options.seconds * 1e9)
          : INT64_MAX;
  bool issuing = true;
  std::size_t in_flight = 0;

  auto fill = [&](Connection& c) {
    while (issuing &&
           c.pending.size() < static_cast<std::size_t>(options.outstanding)) {
      const std::size_t i = result.samples.size();
      if (options.max_statements > 0 && i >= options.max_statements) {
        issuing = false;
        return;
      }
      Statement statement = source(i);
      Request request;
      request.kind = statement.kind;
      request.id = c.next_id++;
      request.flags = kRequestFlagTraceId;
      request.trace_id = options.trace_base + i + 1;
      request.text = statement.text;
      const std::string frame = EncodeRequest(request);
      Sample& sample = result.samples.emplace_back();
      sample.index = i;
      sample.kind = statement.kind;
      sample.text = std::move(statement.text);
      sample.trace_id = request.trace_id;
      c.pending.emplace(request.id, i);
      ++in_flight;
      sample.send_ns = NowNs();
      if (focq::Status sent = SendAll(c.fd, frame); !sent.ok()) {
        result.status = sent;
        issuing = false;
        return;
      }
    }
  };

  for (Connection& c : connections) fill(c);
  std::vector<pollfd> fds(connections.size());
  std::int64_t drain_deadline_ns = INT64_MAX;
  while (in_flight > 0 && result.status.ok()) {
    const std::int64_t now = NowNs();
    if (issuing && now >= stop_issuing_ns) issuing = false;
    if (!issuing && drain_deadline_ns == INT64_MAX) {
      drain_deadline_ns = now + kDrainTimeoutNs;
    }
    if (now >= drain_deadline_ns) break;
    const std::int64_t wake_ns = issuing ? stop_issuing_ns : drain_deadline_ns;
    const int timeout_ms =
        static_cast<int>(std::min<std::int64_t>((wake_ns - now) / 1000000 + 1,
                                                100));
    for (std::size_t k = 0; k < connections.size(); ++k) {
      fds[k] = {connections[k].fd, POLLIN, 0};
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) continue;
    for (std::size_t k = 0; k < connections.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = connections[k];
      focq::Result<std::string> chunk = RecvSome(c.fd);
      const std::int64_t arrived = NowNs();
      if (!chunk.ok() || chunk->empty()) {
        result.status = chunk.ok() ? focq::Status::Internal(
                                         "server closed a connection")
                                   : chunk.status();
        break;
      }
      c.decoder.Feed(*chunk);
      for (;;) {
        focq::Result<std::optional<Frame>> next = c.decoder.Next();
        if (!next.ok()) {
          result.status = next.status();
          break;
        }
        if (!next->has_value()) break;
        focq::Result<Response> response = DecodeResponse(**next);
        if (!response.ok()) {
          result.status = response.status();
          break;
        }
        auto it = c.pending.find(response->id);
        if (it == c.pending.end()) continue;  // connection-level diagnostic
        Sample& sample = result.samples[it->second];
        c.pending.erase(it);
        --in_flight;
        sample.recv_ns = arrived;
        sample.ok = response->ok;
        sample.seq = response->seq;
        sample.response = std::move(response->text);
        result.end_ns = arrived;
      }
      fill(c);
    }
  }
  // CPU share over the whole loop, ramp included.
  result.cpu_seconds = (ThreadCpuSeconds() - cpu_start) *
                       static_cast<double>(result.end_ns - result.start_ns) /
                       static_cast<double>(result.end_ns - loop_start_ns);
  for (Connection& c : connections) CloseFd(c.fd);
  return result;
}

}  // namespace perfbench
