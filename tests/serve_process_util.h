// Shared harness for end-to-end tests that drive the real tegra_serve
// binary: fork/exec with stdin/stdout pipes, a reader thread so the child
// can never block on a full stdout pipe, the ready-event reader, a canned
// extraction-request builder and /varz readers. Used by the serve_*_e2e
// tests.
//
// The including target must define TEGRA_SERVE_BINARY (the compile-time
// path of the daemon binary).

#ifndef TEGRA_TESTS_SERVE_PROCESS_UTIL_H_
#define TEGRA_TESTS_SERVE_PROCESS_UTIL_H_

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/http_client.h"
#include "service/serve_json.h"

#ifndef TEGRA_SERVE_BINARY
#error "TEGRA_SERVE_BINARY must be defined to the tegra_serve binary path"
#endif

namespace tegra {
namespace serve {

/// A running tegra_serve child: NDJSON in via `WriteLine`, NDJSON out via
/// `NextLine` (fed by a reader thread so the child can never block on a full
/// stdout pipe).
class ServeProcess {
 public:
  bool Start(const std::vector<std::string>& extra_args) {
    int in_pipe[2];   // parent writes -> child stdin
    int out_pipe[2];  // child stdout -> parent reads
    if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // Child: wire the pipes and exec the daemon.
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      std::vector<std::string> args = {TEGRA_SERVE_BINARY};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(TEGRA_SERVE_BINARY, argv.data());
      ::_exit(127);  // exec failed
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    stdin_fd_ = in_pipe[1];
    stdout_fd_ = out_pipe[0];
    reader_ = std::thread([this] { ReaderLoop(); });
    return true;
  }

  ~ServeProcess() {
    CloseStdin();
    if (reader_.joinable()) reader_.join();
    if (pid_ > 0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
    }
  }

  bool WriteLine(const std::string& line) {
    const std::string data = line + "\n";
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::write(stdin_fd_, data.data() + off, data.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Next stdout line, or empty string after `timeout_ms` / EOF.
  std::string NextLine(int timeout_ms = 30000) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                 [this] { return !lines_.empty() || eof_; });
    if (lines_.empty()) return "";
    std::string line = std::move(lines_.front());
    lines_.pop_front();
    return line;
  }

  void CloseStdin() {
    if (stdin_fd_ >= 0) {
      ::close(stdin_fd_);
      stdin_fd_ = -1;
    }
  }

  /// Waits for the child to exit and returns its exit code (-1 on abnormal
  /// termination).
  int Wait() {
    if (pid_ <= 0) return -1;
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// The child's pid (for out-of-band signals, e.g. SIGHUP reload tests).
  pid_t pid() const { return pid_; }

 private:
  void ReaderLoop() {
    std::string buf;
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(stdout_fd_, chunk, sizeof(chunk))) > 0) {
      buf.append(chunk, static_cast<size_t>(n));
      size_t pos;
      while ((pos = buf.find('\n')) != std::string::npos) {
        std::lock_guard<std::mutex> lock(mu_);
        lines_.push_back(buf.substr(0, pos));
        buf.erase(0, pos + 1);
        cv_.notify_all();
      }
    }
    ::close(stdout_fd_);
    std::lock_guard<std::mutex> lock(mu_);
    eof_ = true;
    cv_.notify_all();
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::thread reader_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> lines_;
  bool eof_ = false;
};

/// Ports announced by the daemon's ready events, in any order.
struct ReadyPorts {
  int admin = -1;
  int data = -1;
};

/// Reads the startup events: `data_ready`, plus `admin_ready` when
/// `expect_admin` (the daemon was started with --admin-port as well).
inline ReadyPorts ReadReadyEvents(ServeProcess* daemon, bool expect_admin) {
  ReadyPorts ports;
  const int expected = expect_admin ? 2 : 1;
  for (int i = 0; i < expected; ++i) {
    const std::string line = daemon->NextLine();
    const auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (!parsed.ok()) return ports;
    const std::string event = (*parsed)["event"].AsString();
    const int port = static_cast<int>((*parsed)["port"].AsNumber(0));
    if (event == "admin_ready") {
      ports.admin = port;
    } else if (event == "data_ready") {
      ports.data = port;
    } else {
      ADD_FAILURE() << "unexpected event line: " << line;
    }
  }
  return ports;
}

/// Sends the quit command, closes stdin and expects a clean exit.
inline void Quit(ServeProcess* daemon) {
  ASSERT_TRUE(daemon->WriteLine("{\"cmd\":\"quit\"}"));
  daemon->CloseStdin();
  EXPECT_EQ(daemon->Wait(), 0);
}

/// Canned NDJSON extraction request (`num_lines` rows starting at `rotate`
/// in a fixed city table; bypass_cache so every request does real work).
inline std::string ExtractionRequestLine(int id, size_t num_lines,
                                         size_t rotate) {
  static const std::vector<std::string> base = {
      "Boston Massachusetts 645,966",    "Worcester Massachusetts 182,544",
      "Providence Rhode Island 178,042", "Hartford Connecticut 124,775",
      "Springfield Massachusetts 153,060", "Bridgeport Connecticut 144,229",
      "New Haven Connecticut 129,779",   "Stamford Connecticut 122,643",
  };
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Number(id));
  JsonValue lines = JsonValue::Array();
  for (size_t i = 0; i < num_lines; ++i) {
    lines.Append(JsonValue::Str(base[(rotate + i) % base.size()]));
  }
  request.Set("lines", std::move(lines));
  request.Set("bypass_cache", JsonValue::Bool(true));
  return request.Dump();
}

/// One metric out of a /varz scrape of the admin plane on `port`; `section`
/// is "counters" or "gauges". -1 when the scrape fails or the name is absent.
inline double VarzValue(int port, const std::string& section,
                        const std::string& name) {
  const auto varz = net::HttpClient("127.0.0.1", port).Get("/varz");
  if (!varz.ok() || varz->status != 200) return -1;
  const auto parsed = ParseJson(varz->body);
  if (!parsed.ok()) return -1;
  return (*parsed)[section][name].AsNumber(-1);
}

inline double VarzGauge(int port, const std::string& name) {
  return VarzValue(port, "gauges", name);
}

inline double VarzCounter(int port, const std::string& name) {
  return VarzValue(port, "counters", name);
}

}  // namespace serve
}  // namespace tegra

#endif  // TEGRA_TESTS_SERVE_PROCESS_UTIL_H_
