// Hot-swappable corpus handle for long-lived serving processes.
//
// CorpusManager owns the *current* corpus generation as an atomically
// swappable shared_ptr<const CorpusView>. Readers call Current() once per
// request and keep the returned shared_ptr for the request's lifetime —
// that pin guarantees the mapping (or heap index) stays alive even if a
// reload swaps in a new generation mid-request, so in-flight extractions
// never observe a torn corpus and never fail because of a reload.
//
// Reload() opens the configured path (a TGRAIDX2 snapshot or a TGRSMAN1
// manifest, magic-sniffed), swaps on success and bumps the generation; on
// failure the previous generation keeps serving and only an error counter
// moves. The optional on-swap callback lets the service layer rebuild
// derived state (CorpusStats, extractor) for the new generation.
//
// Metrics (when a registry is configured):
//   store.reload_total         successful reloads (the initial load counts).
//   store.reload_errors_total  failed reload attempts.
//   corpus.generation          gauge: current generation number.

#ifndef TEGRA_STORE_CORPUS_MANAGER_H_
#define TEGRA_STORE_CORPUS_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "corpus/corpus_view.h"
#include "service/metrics.h"

namespace tegra {
namespace store {

/// \brief Construction knobs for CorpusManager.
struct CorpusManagerOptions {
  /// Optional metrics sink (not owned; must outlive the manager).
  MetricsRegistry* metrics = nullptr;
};

class CorpusManager {
 public:
  using Options = CorpusManagerOptions;

  /// \brief Manager that (re)loads from `path`. No corpus is resident until
  /// the first Reload() succeeds.
  explicit CorpusManager(std::string path, Options options = {});

  /// \brief Manager seeded with an in-memory view (no file backing). Used
  /// when the corpus was built in-process; Reload() works only if `path`
  /// is non-empty.
  CorpusManager(std::shared_ptr<const CorpusView> initial, std::string path,
                Options options = {});

  /// \brief Invoked after each successful swap with the new view and its
  /// generation. Runs on the thread that called Reload(), outside the
  /// manager's lock. Set before serving starts.
  void SetOnSwap(
      std::function<void(std::shared_ptr<const CorpusView>, uint64_t)> cb) {
    on_swap_ = std::move(cb);
  }

  /// \brief (Re)opens path() and atomically swaps the current view on
  /// success. Thread-safe; concurrent reloads serialize.
  Status Reload();

  /// \brief The current generation's view (may be null before the first
  /// successful load). The returned pointer pins the generation.
  std::shared_ptr<const CorpusView> Current() const;

  /// \brief Monotonic generation number; 0 before any corpus is resident.
  uint64_t Generation() const;

  /// Format name of the current view ("heap-v1", "mmap-v2", "none").
  std::string CurrentFormat() const;

  const std::string& path() const { return path_; }

  uint64_t ReloadCount() const;
  uint64_t ReloadErrorCount() const;
  /// Message of the most recent failed reload ("" when none).
  std::string LastError() const;

 private:
  void Publish(std::shared_ptr<const CorpusView> view);

  const std::string path_;
  Options options_;
  std::function<void(std::shared_ptr<const CorpusView>, uint64_t)> on_swap_;

  mutable std::mutex mu_;
  std::shared_ptr<const CorpusView> current_;  // Guarded by mu_.
  uint64_t generation_ = 0;                    // Guarded by mu_.
  uint64_t reloads_ = 0;                       // Guarded by mu_.
  uint64_t reload_errors_ = 0;                 // Guarded by mu_.
  std::string last_error_;                     // Guarded by mu_.
  std::mutex reload_mu_;  ///< Serializes whole reload operations.

  Counter* reload_total_ = nullptr;
  Counter* reload_errors_total_ = nullptr;
  Gauge* generation_gauge_ = nullptr;
};

}  // namespace store
}  // namespace tegra

#endif  // TEGRA_STORE_CORPUS_MANAGER_H_
