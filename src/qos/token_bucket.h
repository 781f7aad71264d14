// Per-tenant token-bucket quotas for the data plane.
//
// Each distinct `X-Tegra-Tenant` header value owns one bucket refilled at
// `rate` tokens/second up to `burst`; a request (or each item of a batch)
// costs one token. When a bucket is empty the data plane answers 429 with a
// Retry-After derived from the bucket's own refill time — so one heavy
// client exhausts *its* bucket before pushing the whole service down the
// degradation ladder.
//
// Quotas are opt-in: a TenantQuotas with rate <= 0 admits everything.
// Requests without the tenant header share the "(anonymous)" bucket.
//
// All methods take an explicit `now_seconds` (synthetic clocks in tests).

#ifndef TEGRA_QOS_TOKEN_BUCKET_H_
#define TEGRA_QOS_TOKEN_BUCKET_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace tegra {
namespace qos {

/// The tenant key used when a request carries no X-Tegra-Tenant header.
inline constexpr const char* kAnonymousTenant = "(anonymous)";

struct QuotaOptions {
  /// Steady-state refill in tokens/second per tenant; <= 0 disables quotas.
  double rate = 0;
  /// Bucket capacity (burst); <= 0 defaults to max(rate, 1).
  double burst = 0;
};

/// \brief One classic token bucket on an explicit clock.
class TokenBucket {
 public:
  TokenBucket(double rate, double burst)
      : rate_(rate), burst_(burst), tokens_(burst) {}

  /// Takes `tokens` if available; refills lazily from the elapsed time.
  bool TryAcquire(double now_seconds, double tokens = 1);

  /// Seconds until `tokens` would be available (0 when available now).
  double RetryAfterSeconds(double now_seconds, double tokens = 1) const;

  double tokens(double now_seconds) const;
  double rate() const { return rate_; }
  double burst() const { return burst_; }

 private:
  void Refill(double now_seconds);

  double rate_;
  double burst_;
  double tokens_;
  double last_refill_ = -1;  ///< <0 = never refilled yet
};

/// \brief Thread-safe tenant -> bucket map with admission metrics.
class TenantQuotas {
 public:
  /// `registry` may be null; when set, maintains qos.quota_rejected_total /
  /// qos.quota_admitted_total and the qos.tenants gauge.
  TenantQuotas(const QuotaOptions& options, MetricsRegistry* registry);

  TenantQuotas(const TenantQuotas&) = delete;
  TenantQuotas& operator=(const TenantQuotas&) = delete;

  bool enabled() const { return options_.rate > 0; }
  const QuotaOptions& options() const { return options_; }

  struct Decision {
    bool allowed = true;
    /// When denied: seconds until the bucket refills enough (>= 0).
    double retry_after_seconds = 0;
  };

  /// Charges `tokens` to `tenant`'s bucket (empty tenant maps to
  /// kAnonymousTenant). Always allows when quotas are disabled.
  Decision Check(const std::string& tenant, double now_seconds,
                 double tokens = 1);

  struct TenantState {
    std::string tenant;
    double tokens = 0;
    double rate = 0;
    double burst = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
  };
  /// Per-tenant bucket states for /qosz and /statusz.
  std::vector<TenantState> Snapshot(double now_seconds) const;

 private:
  struct Entry {
    TokenBucket bucket;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
  };

  const QuotaOptions options_;
  const double burst_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> tenants_;

  Counter* admitted_total_ = nullptr;
  Counter* rejected_total_ = nullptr;
  Gauge* tenants_gauge_ = nullptr;
};

}  // namespace qos
}  // namespace tegra

#endif  // TEGRA_QOS_TOKEN_BUCKET_H_
