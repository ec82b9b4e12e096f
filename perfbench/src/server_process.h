// A focq_serve child process: spawned on a structure file, its port read
// from the startup banner, shut down over the wire, and reaped. The child
// dies with its parent (PR_SET_PDEATHSIG), so no server outlives a run.
#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "focq/util/status.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `serve_path structure_path --engine engine [--query-log log]`
  /// and waits for its "serving on" line.
  static focq::Result<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& serve_path, const std::string& structure_path,
      const std::string& engine, const std::string& query_log_path);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }

  /// The server's peak resident set (VmHWM) in MiB, or -1 if unreadable.
  double PeakRssMb() const;

  /// Sends a shutdown frame and reaps the process (SIGKILL after a grace
  /// period). Ok iff the server exited with status 0.
  focq::Status Shutdown();

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}
  void Kill();

  pid_t pid_;
  int stdout_fd_;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
