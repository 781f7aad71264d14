#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/build_info.h"
#include "common/string_util.h"

namespace tegra {

namespace {

// CAS helpers: libstdc++ supports atomic<double>::fetch_add only from C++20's
// atomic-float support; spell the loops out so older standard libraries and
// TSan instrumented builds behave identically.
void AtomicAdd(std::atomic<double>* target, double delta) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v < cur && !target->compare_exchange_weak(cur, v,
                                                   std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v > cur && !target->compare_exchange_weak(cur, v,
                                                   std::memory_order_relaxed)) {
  }
}

}  // namespace

std::vector<double> Histogram::DefaultLatencyBounds() {
  // Geometric (x2) ladder in seconds: 50us, 100us, ..., ~26s. 20 buckets.
  std::vector<double> bounds;
  double b = 50e-6;
  for (int i = 0; i < 20; ++i) {
    bounds.push_back(b);
    b *= 2.0;
  }
  return bounds;
}

std::vector<double> Histogram::LinearBounds(double start, double width,
                                            size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(start + width * static_cast<double>(i));
  }
  return bounds;
}

std::atomic<Histogram::ExemplarSourceFn> Histogram::exemplar_source_{nullptr};

void Histogram::SetExemplarSource(ExemplarSourceFn fn) {
  exemplar_source_.store(fn, std::memory_order_release);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(bounds.empty() ? DefaultLatencyBounds() : std::move(bounds)),
      buckets_(bounds_.size() + 1),
      exemplar_slots_(new ExemplarSlot[bounds_.size() + 1]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void Histogram::Observe(double value) {
  // Index of the first bound >= value; the +inf bucket is bounds_.size().
  const size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  // Update the scalar accumulators (CAS loops, never racy read-modify-write)
  // *before* publishing the observation via the bucket counter: the bucket
  // increment uses release ordering and Snapshot reads buckets with acquire,
  // so any observation a snapshot counts also has its min/max/sum update
  // visible — the snapshot can never pair count > 0 with an untouched
  // (infinite) min or max.
  AtomicAdd(&sum_, value);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
  buckets_[idx].fetch_add(1, std::memory_order_release);
  count_.fetch_add(1, std::memory_order_release);

  // Exemplar: if a source is installed and the calling thread is inside an
  // identified request, stake this observation as the bucket's exemplar.
  // One CAS claims the seqlock; losers simply skip (a recent exemplar is as
  // good as the latest one), so the hot path never spins here.
  const ExemplarSourceFn source =
      exemplar_source_.load(std::memory_order_acquire);
  if (source != nullptr) {
    uint64_t trace_id = 0;
    uint64_t request_id = 0;
    if (source(&trace_id, &request_id) && trace_id != 0) {
      ExemplarSlot& slot = exemplar_slots_[idx];
      uint32_t seq = slot.seq.load(std::memory_order_relaxed);
      if ((seq & 1) == 0 &&
          slot.seq.compare_exchange_strong(seq, seq + 1,
                                           std::memory_order_acquire)) {
        slot.value.store(value, std::memory_order_relaxed);
        slot.trace_id.store(trace_id, std::memory_order_relaxed);
        slot.request_id.store(request_id, std::memory_order_relaxed);
        slot.seq.store(seq + 2, std::memory_order_release);
      }
    }
  }
}

double Histogram::PercentileLocked(const std::vector<uint64_t>& counts,
                                   uint64_t total, double q) const {
  if (total == 0) return 0.0;
  // Rank of the q-th percentile observation (1-based, ceil).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] >= rank) {
      // Interpolate within bucket i between its lower and upper bound.
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = i < bounds_.size()
                            ? bounds_[i]
                            : std::max(max_.load(std::memory_order_relaxed),
                                       bounds_.empty() ? 0.0 : bounds_.back());
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
    seen += counts[i];
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  std::vector<uint64_t> counts(buckets_.size());
  uint64_t total = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    // Acquire pairs with the release increment in Observe: every observation
    // counted here has its min/max/sum CAS update visible below.
    counts[i] = buckets_[i].load(std::memory_order_acquire);
    total += counts[i];
  }
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (total > 0) {
    double mn = min_.load(std::memory_order_relaxed);
    double mx = max_.load(std::memory_order_relaxed);
    // Defensive sanitation: even though the acquire/release pairing above
    // makes an infinite min/max with total > 0 unreachable, never let a
    // non-finite or inverted range escape into the clamp below (the previous
    // racy snapshot could produce clamp(lo=+inf, hi=-inf), which is UB).
    if (!std::isfinite(mn)) mn = 0.0;
    if (!std::isfinite(mx) || mx < mn) mx = mn;
    snap.min = mn;
    snap.max = mx;
  }
  snap.p50 = PercentileLocked(counts, total, 0.50);
  snap.p95 = PercentileLocked(counts, total, 0.95);
  snap.p99 = PercentileLocked(counts, total, 0.99);
  // Percentiles are bucket-interpolated estimates; clamp them to the observed
  // range so p50 can never undercut the true minimum (or exceed the max).
  if (total > 0) {
    snap.p50 = std::clamp(snap.p50, snap.min, snap.max);
    snap.p95 = std::clamp(snap.p95, snap.min, snap.max);
    snap.p99 = std::clamp(snap.p99, snap.min, snap.max);
    // Enforce monotonicity across the quantile estimates.
    snap.p95 = std::max(snap.p95, snap.p50);
    snap.p99 = std::max(snap.p99, snap.p95);
  }
  snap.bounds = bounds_;
  snap.bucket_counts = std::move(counts);
  // Exemplars: seqlock read per bucket. A torn write (odd or changed seq)
  // just leaves that bucket's exemplar unset for this snapshot.
  snap.exemplars.resize(snap.bucket_counts.size());
  for (size_t i = 0; i < snap.bucket_counts.size(); ++i) {
    ExemplarSlot& slot = exemplar_slots_[i];
    for (int attempt = 0; attempt < 3; ++attempt) {
      const uint32_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) break;  // never written / mid-write
      Exemplar ex;
      ex.value = slot.value.load(std::memory_order_relaxed);
      ex.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      ex.request_id = slot.request_id.load(std::memory_order_relaxed);
      const uint32_t s2 = slot.seq.load(std::memory_order_acquire);
      if (s1 == s2) {
        snap.exemplars[i] = ex;
        break;
      }
    }
  }
  return snap;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream out;
  for (const auto& [name, v] : counters) out << name << " " << v << "\n";
  for (const auto& [name, v] : gauges) {
    out << name << " " << FormatDouble(v, 3) << "\n";
  }
  for (const auto& [name, h] : histograms) {
    out << name << "{count=" << h.count << " mean=" << FormatDouble(h.Mean(), 6)
        << " p50=" << FormatDouble(h.p50, 6)
        << " p95=" << FormatDouble(h.p95, 6)
        << " p99=" << FormatDouble(h.p99, 6) << "}\n";
  }
  return out.str();
}

std::string MetricsSnapshot::ToJson() const {
  auto num = [](double v) {
    if (!std::isfinite(v)) return std::string("0");
    std::ostringstream o;
    o << v;
    return o.str();
  };
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << v;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << num(v);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":{\"count\":" << h.count
        << ",\"sum\":" << num(h.sum) << ",\"mean\":" << num(h.Mean())
        << ",\"min\":" << num(h.min) << ",\"max\":" << num(h.max)
        << ",\"p50\":" << num(h.p50) << ",\"p95\":" << num(h.p95)
        << ",\"p99\":" << num(h.p99) << "}";
  }
  // Self-identification: every snapshot names the build that produced it and
  // how long the process has been up.
  out << "},\"build\":" << BuildInfoJson()
      << ",\"uptime_seconds\":" << num(ProcessUptimeSeconds()) << "}";
  return out.str();
}

ScopedLatency::ScopedLatency(Histogram* hist) : hist_(hist) {}

ScopedLatency::~ScopedLatency() {
  if (hist_ == nullptr) return;
  hist_->Observe(watch_.ElapsedSeconds());
}

}  // namespace tegra
