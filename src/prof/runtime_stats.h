// Background runtime telemetry: a collector thread polls
// /proc/self/{stat,statm,fd} and getrusage() into `process.*` gauges so a
// /metrics scrape answers "is this process growing / thrashing / leaking
// fds" without shelling into the box. Registered profiler threads
// additionally get per-thread CPU gauges from /proc/self/task/<tid>/stat,
// so a hot worker is visible by name.

#ifndef TEGRA_PROF_RUNTIME_STATS_H_
#define TEGRA_PROF_RUNTIME_STATS_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/metrics.h"

namespace tegra {
namespace prof {

/// \brief Polls process-level runtime stats into `registry` every
/// `period_seconds`. Start()/Stop() manage the background thread;
/// SampleOnce() is the synchronous core (used by the thread and by tests).
class RuntimeStatsCollector {
 public:
  explicit RuntimeStatsCollector(MetricsRegistry* registry,
                                 double period_seconds = 5.0);
  ~RuntimeStatsCollector();

  RuntimeStatsCollector(const RuntimeStatsCollector&) = delete;
  RuntimeStatsCollector& operator=(const RuntimeStatsCollector&) = delete;

  void Start();
  void Stop();

  /// Reads /proc and getrusage once and updates every gauge.
  void SampleOnce();

 private:
  void Loop();

  MetricsRegistry* registry_;
  double period_seconds_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace prof
}  // namespace tegra

#endif  // TEGRA_PROF_RUNTIME_STATS_H_
