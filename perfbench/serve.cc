// serve_mixed: the real tegra_serve daemon as a child process, with its
// production defaults (tracing, the sampling profiler and the health
// recorder on) and 2 workers, driven over loopback HTTP by one closed-loop
// caller in this process.
//
// Each caller's request stream is fixed by the seed: request k is a fresh
// Wiki list when k % 10 == 0 (a result-cache miss that exercises the core),
// otherwise a revisit of a list this caller already got a response for (a
// guaranteed hit). Fresh lists are distinct, so the hit count is exact.
//
// Timed run (--trace 0): in each of kServePasses passes, against that pass's
// freshly started daemon, every caller sends a fixed number of requests,
// sized so the run lasts about --seconds on a 4-core machine.
//
// Traced run (--trace 1): in the last pass, a fixed number of requests per
// caller is sent twice, each time to a freshly started daemon: phase A
// plain, phase B with a client span per request. Service and net figures
// come from phase B's response fields; trace.overhead_ratio is phase B's
// wall time over phase A's.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "common.h"
#include "common/stopwatch.h"
#include "eval/mapping_metric.h"
#include "net/http_client.h"
#include "service/serve_json.h"
#include "store/mmap_corpus.h"
#include "trace/chrome_trace.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

using tegra::serve::JsonValue;

/// One caller. With 4 callers on the 2 workers, hits queued behind misses and
/// the run depended on how misses happened to overlap and on how many cores
/// a shared machine left free: over ten seeds lists_per_s spread 15-23% and
/// the p50 latency 12-19%, against 11% and 8% with one caller.
constexpr int kCallers = 1;
constexpr int kWorkers = 2;
/// Measurement passes per run (see kSetups in common.h).
constexpr int kServePasses = 5;
/// One request in this many is a fresh list (a cache miss).
constexpr size_t kFreshEvery = 10;
/// Requests per caller per second of --seconds, per timed pass and per
/// traced phase: at the measured rate on a 4-core machine the five passes
/// last about 0.6x --seconds together, plus the set-ups. A multiple of
/// kFreshEvery is taken, so the hit ratio is exactly 0.9.
constexpr double kRequestsPerCallerSecond = 10;

size_t RequestsPerCaller(const Args& args) {
  return kFreshEvery *
         std::max<long>(1, std::lround(args.seconds *
                                       kRequestsPerCallerSecond / kFreshEvery));
}

/// \brief A tegra_serve child process: stdin held open (EOF would stop it),
/// stdout drained by a reader thread that picks up the data-plane port,
/// stderr appended to a log file.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  tegra::Status Start(const std::string& corpus_path,
                      const std::string& log_path) {
    int in_pipe[2];
    int out_pipe[2];
    if (::pipe(in_pipe) != 0) return tegra::Status::IOError("pipe failed");
    if (::pipe(out_pipe) != 0) {
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      return tegra::Status::IOError("pipe failed");
    }
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const std::string workers = std::to_string(kWorkers);
    pid_ = ::fork();
    if (pid_ < 0) {
      for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1], log_fd}) {
        if (fd >= 0) ::close(fd);
      }
      return tegra::Status::IOError("fork failed");
    }
    if (pid_ == 0) {
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      const char* argv[] = {TEGRA_SERVE_BINARY, "--corpus",
                            corpus_path.c_str(), "--workers",
                            workers.c_str(),    "--port",
                            "0",                nullptr};
      ::execv(TEGRA_SERVE_BINARY, const_cast<char**>(argv));
      ::_exit(127);
    }
    if (log_fd >= 0) ::close(log_fd);
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    stdin_fd_ = in_pipe[1];
    const int stdout_fd = out_pipe[0];
    reader_ = std::thread([this, stdout_fd] { ReadStdout(stdout_fd); });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(60),
                 [this] { return port_ != 0 || eof_; });
    if (port_ == 0) return tegra::Status::Internal("daemon never got ready");
    return tegra::Status::OK();
  }

  int port() {
    std::lock_guard<std::mutex> lock(mu_);
    return port_;
  }
  pid_t pid() const { return pid_; }

  /// SIGTERM (graceful drain), escalating to SIGKILL after 30 s; waits for
  /// the process and the reader thread. Returns true on a clean exit 0.
  bool Stop() {
    bool clean = true;
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      tegra::Stopwatch watch;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (watch.ElapsedSeconds() > 30) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      pid_ = -1;
    }
    if (stdin_fd_ >= 0) {
      ::close(stdin_fd_);
      stdin_fd_ = -1;
    }
    if (reader_.joinable()) reader_.join();
    return clean;
  }

 private:
  void ReadStdout(int fd) {
    std::string pending;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      pending.append(buf, static_cast<size_t>(n));
      size_t eol = 0;
      while ((eol = pending.find('\n')) != std::string::npos) {
        const std::string line = pending.substr(0, eol);
        pending.erase(0, eol + 1);
        auto event = tegra::serve::ParseJson(line);
        if (event.ok() && (*event)["event"].AsString() == "data_ready") {
          std::lock_guard<std::mutex> lock(mu_);
          port_ = static_cast<int>((*event)["port"].AsNumber(0));
          cv_.notify_all();
        }
      }
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(mu_);
    eof_ = true;
    cv_.notify_all();
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  int port_ = 0;     // Guarded by mu_.
  bool eof_ = false;  // Guarded by mu_.
  std::thread reader_;  // Declared last: uses the members above.
};

/// One completed request as the caller saw it.
struct Exchange {
  size_t list = 0;  ///< Index into the pass's lists.
  bool fresh = false;
  double latency_ms = 0;
  int status = 0;  ///< HTTP status; 0 on a transport error.
  std::string body;
  // Filled in by Validate() once the load has stopped.
  bool ok = false;  ///< HTTP 200, "ok": true and a valid segmentation.
  bool cache_hit = false;
  double queue_ms = 0;
  double extract_ms = 0;
  double total_ms = 0;
  double f1 = 0;
};

/// \brief Deterministic request stream of one caller.
class CallerStream {
 public:
  CallerStream(int caller, uint64_t seed, size_t lists_in_pool)
      : caller_(caller),
        lists_in_pool_(lists_in_pool),
        rng_(seed * 1000003 + static_cast<uint64_t>(caller)) {}

  /// Pool index of request number `sent_` (kCallers warm-up lists come
  /// first in the pool), or nullopt when the caller's fresh lists ran out.
  std::optional<std::pair<size_t, bool>> Next() {
    const bool fresh = sent_ % kFreshEvery == 0;
    ++sent_;
    if (fresh) {
      const size_t index = kCallers + static_cast<size_t>(caller_) +
                           kCallers * served_.size();
      if (index >= lists_in_pool_) return std::nullopt;
      served_.push_back(index);
      return std::make_pair(index, true);
    }
    return std::make_pair(served_[rng_() % served_.size()], false);
  }

 private:
  int caller_;
  size_t lists_in_pool_;
  std::mt19937_64 rng_;
  size_t sent_ = 0;
  std::vector<size_t> served_;
};

std::string RequestBody(const std::vector<std::string>& lines) {
  JsonValue body = JsonValue::Object();
  JsonValue array = JsonValue::Array();
  for (const std::string& line : lines) array.Append(JsonValue::Str(line));
  body.Set("lines", std::move(array));
  return body.Dump();
}

/// Sends one prepared request body. Callers only do I/O while the load
/// runs; responses are parsed and checked afterwards, so the client's work
/// does not compete with the daemon for the machine's cores.
Exchange SendOne(tegra::net::HttpClient* client, const std::string& body,
                 size_t list, bool fresh) {
  Exchange ex;
  ex.list = list;
  ex.fresh = fresh;
  tegra::Stopwatch watch;
  auto response = client->Post("/v1/extract", body);
  ex.latency_ms = watch.ElapsedMillis();
  if (response.ok()) {
    ex.status = response->status;
    ex.body = std::move(response->body);
  } else {
    ex.body = response.status().ToString();
  }
  return ex;
}

/// Checks one response: HTTP 200, "ok": true, and a table that is a valid
/// segmentation of the list; scores fresh lists against the ground truth.
void Validate(const tegra::eval::EvalInstance& list, bool corrupt,
              Exchange* ex) {
  static const tegra::Tokenizer tokenizer;
  if (ex->status != 200) {
    std::fprintf(stderr, "list %zu: HTTP %d %s\n", list.index, ex->status,
                 ex->body.substr(0, 200).c_str());
    return;
  }
  auto parsed = tegra::serve::ParseJson(ex->body);
  if (!parsed.ok() || !(*parsed)["ok"].AsBool(false)) {
    std::fprintf(stderr, "list %zu: bad body\n", list.index);
    return;
  }
  const JsonValue& json = *parsed;
  std::vector<std::vector<std::string>> rows;
  for (const JsonValue& row : json["rows"].AsArray()) {
    rows.emplace_back();
    for (const JsonValue& cell : row.AsArray()) {
      rows.back().push_back(cell.AsString());
    }
  }
  if (corrupt) CorruptRows(&rows);
  const size_t columns = static_cast<size_t>(json["columns"].AsNumber(0));
  if (!ValidSegmentation(tokenizer, list.lines, rows, columns)) {
    std::fprintf(stderr, "list %zu: invalid table\n", list.index);
    return;
  }
  ex->ok = true;
  ex->cache_hit = json["cache_hit"].AsBool(false);
  ex->queue_ms = json["queue_ms"].AsNumber(0);
  ex->extract_ms = json["extract_ms"].AsNumber(0);
  ex->total_ms = json["total_ms"].AsNumber(0);
  if (ex->fresh) {
    ex->f1 = tegra::eval::ScoreTable(list.truth, tegra::Table(rows)).f1;
  }
}

/// Outcome of driving one daemon with all callers.
struct LoadResult {
  std::vector<Exchange> exchanges;
  double wall_s = 0;
  uint64_t connects = 0;
};

/// Runs kCallers closed-loop callers of `per_caller` requests each, then
/// validates every response. Every caller first sends one untimed warm-up
/// list of its own.
LoadResult Drive(int port, const Args& args,
                 const std::vector<tegra::eval::EvalInstance>& lists,
                 size_t per_caller, tegra::trace::Tracer* tracer) {
  std::vector<std::string> bodies;
  bodies.reserve(lists.size());
  for (const auto& list : lists) bodies.push_back(RequestBody(list.lines));
  std::vector<std::vector<Exchange>> per(kCallers);
  std::vector<uint64_t> connects(kCallers, 0);
  tegra::Stopwatch wall;
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      tegra::net::HttpClient client("127.0.0.1", port, 120000);
      const size_t warm = static_cast<size_t>(c);
      (void)SendOne(&client, bodies[warm], warm, true);
      CallerStream stream(c, args.seed, lists.size());
      std::vector<Exchange>& mine = per[static_cast<size_t>(c)];
      mine.reserve(per_caller);
      for (size_t k = 0; k < per_caller; ++k) {
        const auto next = stream.Next();
        if (!next) {
          std::fprintf(stderr, "warning: caller %d ran out of lists\n", c);
          break;
        }
        tegra::trace::Span span(tracer, next->second ? "miss" : "hit",
                                "perfbench");
        mine.push_back(
            SendOne(&client, bodies[next->first], next->first, next->second));
      }
      connects[static_cast<size_t>(c)] = client.connects();
    });
  }
  for (std::thread& t : callers) t.join();
  LoadResult out;
  out.wall_s = wall.ElapsedSeconds();
  for (int c = 0; c < kCallers; ++c) {
    for (Exchange& ex : per[static_cast<size_t>(c)]) {
      const bool corrupt = args.inject_invalid && out.exchanges.empty();
      Validate(lists[ex.list], corrupt, &ex);
      ex.body.clear();
      out.exchanges.push_back(std::move(ex));
    }
    out.connects += connects[static_cast<size_t>(c)];
  }
  return out;
}

void Tally(const LoadResult& load, Report* report) {
  for (const Exchange& ex : load.exchanges) {
    ++report->attempted;
    if (!ex.ok) ++report->failed;
  }
}

struct ServeInputs {
  std::string corpus_path;
  std::string log_path;
  std::vector<tegra::eval::EvalInstance> lists;
  std::unique_ptr<Daemon> daemon;
};

/// One set-up: corpus snapshot built in a child process (unless `reuse`)
/// and opened (the daemon maps it again), the pass's lists generated, the
/// daemon started.
tegra::Status SetUp(const Args& args, int pass, bool reuse, ServeInputs* in,
                    SetupTimes* times) {
  in->corpus_path = args.out_dir + "/" + kWebCorpus.file_name;
  in->log_path = args.out_dir + "/" + args.workload + ".daemon.log";
  tegra::Stopwatch total;
  if (!reuse) {
    TEGRA_RETURN_NOT_OK(BuildSnapshot(kWebCorpus, in->corpus_path, times));
  }
  tegra::Stopwatch watch;
  {
    auto opened = tegra::store::MmapCorpus::Open(in->corpus_path);
    if (!opened.ok()) return opened.status();
  }
  times->snapshot_open_s = watch.ElapsedSeconds();
  watch.Restart();
  in->lists = MakeLists(tegra::eval::DatasetId::kWiki, kCallers,
                        kCallers * RequestsPerCaller(args) / kFreshEvery,
                        args.seed * kServePasses + static_cast<uint64_t>(pass));
  times->dataset_s = watch.ElapsedSeconds();
  watch.Restart();
  in->daemon = std::make_unique<Daemon>();
  TEGRA_RETURN_NOT_OK(in->daemon->Start(in->corpus_path, in->log_path));
  times->daemon_start_s = watch.ElapsedSeconds();
  times->total_s = total.ElapsedSeconds();
  return tegra::Status::OK();
}

void TimedRun(const Args& args, int pass, ServeInputs* in, Report* report) {
  const LoadResult load = Drive(in->daemon->port(), args, in->lists,
                                RequestsPerCaller(args), nullptr);
  const double peak_rss = PeakRssMb(in->daemon->pid());
  if (!in->daemon->Stop()) {
    std::fprintf(stderr, "daemon did not exit cleanly\n");
    report->correct = false;
  }
  Tally(load, report);
  // Requests differ between passes, so every request is its own item.
  const uint64_t first_key =
      static_cast<uint64_t>(pass) * load.exchanges.size();
  std::vector<double> f1;
  for (size_t i = 0; i < load.exchanges.size(); ++i) {
    const Exchange& ex = load.exchanges[i];
    report->latencies_ms.emplace_back(first_key + i, ex.latency_ms);
    if (ex.fresh) f1.push_back(ex.f1);
  }
  report->Add("lists_per_s",
              static_cast<double>(load.exchanges.size()) / load.wall_s, "1/s");
  report->Add("quality_f1", Mean(f1), "ratio");
  report->Add("peak_rss_mb", peak_rss, "MiB");
  report->notes.push_back({"requests_per_pass",
                           static_cast<double>(load.exchanges.size()),
                           "count"});
}

void TracedRun(const Args& args, ServeInputs* in, Report* report) {
  const size_t per_caller = RequestsPerCaller(args);
  const LoadResult plain =
      Drive(in->daemon->port(), args, in->lists, per_caller, nullptr);
  bool clean = in->daemon->Stop();

  Daemon daemon;
  const tegra::Status started = daemon.Start(in->corpus_path, in->log_path);
  if (!started.ok()) {
    std::fprintf(stderr, "daemon restart: %s\n", started.ToString().c_str());
    report->correct = false;
    return;
  }
  tegra::trace::Tracer tracer(1 << 16);
  tracer.SetEnabled(true);
  const LoadResult traced =
      Drive(daemon.port(), args, in->lists, per_caller, &tracer);
  clean = daemon.Stop() && clean;
  if (!clean) {
    std::fprintf(stderr, "daemon did not exit cleanly\n");
    report->correct = false;
  }
  Tally(plain, report);
  Tally(traced, report);

  std::vector<double> queue_ms, extract_ms, overhead_ms;
  double hits = 0;
  for (const Exchange& ex : traced.exchanges) {
    if (!ex.ok) continue;
    queue_ms.push_back(ex.queue_ms);
    extract_ms.push_back(ex.extract_ms);
    overhead_ms.push_back(ex.latency_ms - ex.total_ms);
    if (ex.cache_hit) hits += 1;
  }
  report->Add("service.queue_ms_p50", Quantile(queue_ms, 0.50), "ms");
  report->Add("service.queue_ms_p95", Quantile(queue_ms, 0.95), "ms");
  report->Add("service.extract_ms_p50", Quantile(extract_ms, 0.50), "ms");
  report->Add("service.extract_ms_p95", Quantile(extract_ms, 0.95), "ms");
  report->Add("service.cache_hit_ratio",
              queue_ms.empty() ? 0 : hits / static_cast<double>(queue_ms.size()),
              "ratio");
  report->Add("net.overhead_ms_p50", Quantile(overhead_ms, 0.50), "ms");
  report->Add("net.overhead_ms_p95", Quantile(overhead_ms, 0.95), "ms");
  report->Add("net.connects", static_cast<double>(traced.connects), "count");
  report->Add("trace.lists", static_cast<double>(traced.exchanges.size()),
              "count");
  report->Add("trace.overhead_ratio",
              plain.wall_s > 0 ? traced.wall_s / plain.wall_s : 0, "ratio");

  const std::string trace_path = args.out_dir + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".trace.json";
  const tegra::Status written =
      tegra::trace::WriteChromeTrace(trace_path, tracer.RingSnapshot());
  if (!written.ok()) {
    std::fprintf(stderr, "chrome trace: %s\n", written.ToString().c_str());
    report->correct = false;
  }
}

}  // namespace

Report RunServe(const Args& args) {
  Report report;
  std::vector<SetupTimes> setups;
  std::vector<Report> passes;
  // A traced run traces the last set-up pass and makes no further passes.
  const int num_passes = args.trace ? kSetups : kServePasses;
  for (int pass = 0; pass < num_passes; ++pass) {
    ServeInputs in;
    SetupTimes times;
    const bool reuse = pass >= kSetups;
    const tegra::Status set_up = SetUp(args, pass, reuse, &in, &times);
    if (!set_up.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", set_up.ToString().c_str());
      report.correct = false;
      return report;
    }
    if (!reuse) setups.push_back(times);
    passes.emplace_back();
    if (!args.trace) {
      TimedRun(args, pass, &in, &passes.back());
    } else if (pass == num_passes - 1) {
      TracedRun(args, &in, &passes.back());
    } else if (!in.daemon->Stop()) {
      std::fprintf(stderr, "daemon did not exit cleanly\n");
      passes.back().correct = false;
    }
  }
  AddSetupMetrics(setups, args.trace, &report);
  MergePasses(passes, &report);
  return report;
}

}  // namespace perfbench
