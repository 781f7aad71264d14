// Process build identity + uptime.
//
// Values are baked in at configure time through a CMake-generated header
// (cmake/build_info_gen.h.in), so every binary in the build can report which
// git revision, build type and tracing configuration it was produced from.
// Exposure points:
//  * Prometheus: `tegra_build_info{git_sha=...,build_type=...,trace=...} 1`
//    (appended by trace::ToPrometheusText) — the standard "info metric"
//    pattern, joinable against every other series of the process.
//  * JSON: MetricsSnapshot::ToJson() carries a "build" object, so the
//    daemon's /varz admin page is self-identifying.
//  * /statusz renders it as the page header.

#ifndef TEGRA_COMMON_BUILD_INFO_H_
#define TEGRA_COMMON_BUILD_INFO_H_

#include <string>

namespace tegra {

/// \brief Static description of how this binary was built. All fields are
/// string literals baked in at configure time.
struct BuildInfo {
  const char* git_sha;       ///< `git rev-parse --short HEAD`, or "unknown".
  const char* build_type;    ///< CMAKE_BUILD_TYPE (e.g. "Release").
  const char* trace;         ///< "on"/"off": TEGRA_TRACE at configure time.
  const char* compiler;      ///< Compiler id + version.
  const char* cxx_standard;  ///< e.g. "c++20".
};

/// \brief The build identity of this binary.
const BuildInfo& GetBuildInfo();

/// \brief Seconds since this process started (measured from static
/// initialization of the common library; monotonic clock).
double ProcessUptimeSeconds();

/// \brief Renders GetBuildInfo() as one JSON object, e.g.
/// {"git_sha":"abc123","build_type":"Release","trace":"on",...}.
std::string BuildInfoJson();

}  // namespace tegra

#endif  // TEGRA_COMMON_BUILD_INFO_H_
