// Prometheus text exposition (version 0.0.4) of a MetricsSnapshot.
//
// Counters render as `# TYPE <name> counter`, gauges as gauge, and
// histograms as the full cumulative-bucket form:
//
//   # TYPE tegra_service_total_seconds histogram
//   tegra_service_total_seconds_bucket{le="5e-05"} 0
//   ...
//   tegra_service_total_seconds_bucket{le="+Inf"} 12
//   tegra_service_total_seconds_sum 0.84
//   tegra_service_total_seconds_count 12
//
// Metric names are prefixed (default "tegra_") and sanitized to the
// Prometheus charset: every character outside [a-zA-Z0-9_:] becomes '_', so
// the registry's dotted names ("service.queue_seconds") map 1:1 onto valid
// exposition names.

#ifndef TEGRA_TRACE_PROMETHEUS_H_
#define TEGRA_TRACE_PROMETHEUS_H_

#include <string>

#include "common/metrics.h"

namespace tegra {
namespace trace {

/// \brief Sanitizes one metric name for exposition (prefix + charset fix).
std::string PrometheusName(const std::string& name,
                           const std::string& prefix = "tegra_");

/// \brief Escapes a label *value* per the Prometheus/OpenMetrics text
/// formats: backslash -> \\, double quote -> \", newline -> \n. Label
/// values are the only place arbitrary strings enter the exposition (build
/// info, exemplar labels), and an unescaped quote there corrupts every
/// sample after it.
std::string EscapeLabelValue(const std::string& value);

/// \brief The process "info metric": a constant-1 gauge whose labels carry
/// the build identity, e.g.
///   tegra_build_info{git_sha="abc",build_type="Release",trace="on"} 1
/// Appended to every ToPrometheusText exposition; exposed separately for
/// callers composing their own payloads.
std::string BuildInfoPrometheusText(const std::string& prefix = "tegra_");

/// \brief Renders the whole snapshot in Prometheus text exposition format,
/// followed by the tegra_build_info line.
std::string ToPrometheusText(const MetricsSnapshot& snapshot,
                             const std::string& prefix = "tegra_");

/// \brief Renders the snapshot in OpenMetrics 1.0 text format: counters get
/// the mandated `_total` sample suffix, histogram buckets carry exemplars
/// (`# {trace_id="...",request_id="..."} value`) when the snapshot has them,
/// and the exposition ends with `# EOF`. Served by the admin plane at
/// `/metrics?format=openmetrics` (or via Accept negotiation); trace ids are
/// rendered in decimal, matching /slowlogz and /tracez.
std::string ToOpenMetricsText(const MetricsSnapshot& snapshot,
                              const std::string& prefix = "tegra_");

}  // namespace trace
}  // namespace tegra

#endif  // TEGRA_TRACE_PROMETHEUS_H_
