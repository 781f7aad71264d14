#include "trace/chrome_trace.h"

#include <cstdio>

#include "common/string_util.h"

namespace tegra {
namespace trace {

std::string ToChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(128 + events.size() * 160);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    out += JsonQuote(event.name);
    out += ",\"cat\":";
    out += JsonQuote(event.category);
    out += ",\"ph\":\"X\",\"ts\":";
    out += std::to_string(event.start_us);
    out += ",\"dur\":";
    out += std::to_string(event.duration_us);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(event.thread_id);
    out += ",\"args\":{\"trace_id\":";
    out += std::to_string(event.trace_id);
    out += ",\"span_id\":";
    out += std::to_string(event.span_id);
    out += ",\"parent_id\":";
    out += std::to_string(event.parent_id);
    out += ",\"depth\":";
    out += std::to_string(event.depth);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<TraceEvent>& events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace output file: " + path);
  }
  const std::string json = ToChromeTraceJson(events);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::Internal("short write to trace output file: " + path);
  }
  return Status::OK();
}

}  // namespace trace
}  // namespace tegra
