#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <thread>
#include <vector>

#include "focq/serve/protocol.h"
#include "focq/serve/socket_util.h"

namespace perfbench {
namespace {

constexpr int kStartTimeoutMs = 60000;
constexpr int kExitTimeoutMs = 30000;

// Reaps `pid` within `timeout_ms`; returns the wait status or -1.
int WaitFor(pid_t pid, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) return status;
    if (done < 0) return -1;
    if (std::chrono::steady_clock::now() > deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

focq::Result<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::string& serve_path, const std::string& structure_path,
    const std::string& engine, const std::string& query_log_path) {
  std::vector<std::string> args = {serve_path, structure_path, "--engine",
                                   engine};
  if (!query_log_path.empty()) {
    args.push_back("--query-log");
    args.push_back(query_log_path);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return focq::Status::Internal("pipe failed");
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return focq::Status::Internal("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, pipe_fds[0]));

  // Read the banner until the port line appears.
  static const std::regex kServing(R"(serving on 127\.0\.0\.1:(\d+))");
  std::string banner;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStartTimeoutMs);
  while (server->port_ == 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd pfd{server->stdout_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
      return focq::Status::Internal("focq_serve did not start in time");
    }
    char buffer[4096];
    const ssize_t got = ::read(server->stdout_fd_, buffer, sizeof(buffer));
    if (got <= 0) {
      return focq::Status::Internal("focq_serve exited at startup: " + banner);
    }
    banner.append(buffer, static_cast<std::size_t>(got));
    std::smatch match;
    if (std::regex_search(banner, match, kServing)) {
      server->port_ = static_cast<std::uint16_t>(std::stoi(match[1].str()));
    }
  }
  return server;
}

ServerProcess::~ServerProcess() {
  Kill();
  ::close(stdout_fd_);
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return -1;
}

focq::Status ServerProcess::Shutdown() {
  using namespace focq::serve;
  focq::Result<int> fd = ConnectLoopback(port_);
  if (fd.ok()) {
    Request request;
    request.kind = FrameKind::kShutdown;
    request.id = 1;
    if (SendAll(*fd, EncodeRequest(request)).ok()) {
      // Wait for the acknowledgement (or EOF) before closing.
      while (true) {
        focq::Result<std::string> chunk = RecvSome(*fd);
        if (!chunk.ok() || chunk->empty()) break;
      }
    }
    CloseFd(*fd);
  }
  const int status = WaitFor(pid_, kExitTimeoutMs);
  if (status == -1) {
    Kill();
    return focq::Status::Internal("focq_serve did not exit; killed");
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return focq::Status::Internal("focq_serve exited abnormally");
  }
  return focq::Status::Ok();
}

}  // namespace perfbench
