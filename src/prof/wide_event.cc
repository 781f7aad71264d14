#include "prof/wide_event.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "trace/json_util.h"

namespace tegra {
namespace prof {

namespace {

// splitmix64: a cheap, well-mixed hash so the per-request keep decision is
// deterministic (replayable in tests) yet uncorrelated with id assignment
// order.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out << v;
  return out.str();
}

std::string Escape(const std::string& in) {
  std::string out;
  trace::AppendJsonEscaped(&out, in);
  return out;
}

}  // namespace

std::string WideEvent::ToJson() const {
  std::ostringstream out;
  out << "{\"request_id\":" << request_id << ",\"trace_id\":" << trace_id
      << ",\"endpoint\":\"" << Escape(endpoint)
      << "\",\"outcome\":\"" << Escape(outcome)
      << "\",\"status\":" << http_status
      << ",\"cache_hit\":" << (cache_hit ? "true" : "false")
      << ",\"batch\":" << (batch ? "true" : "false") << ",\"items\":" << items
      << ",\"corpus_generation\":" << corpus_generation
      << ",\"queue_ms\":" << Num(queue_seconds * 1000.0)
      << ",\"extract_ms\":" << Num(extract_seconds * 1000.0)
      << ",\"total_ms\":" << Num(total_seconds * 1000.0)
      << ",\"sp_score\":" << Num(sp_score)
      << ",\"quality_level\":" << quality_level
      << ",\"num_lines\":" << num_lines << ",\"columns\":" << num_columns
      << ",\"tenant\":\"" << Escape(tenant)
      << "\",\"bytes_in\":" << bytes_in
      << ",\"bytes_out\":" << bytes_out << "}";
  return out.str();
}

const char* OutcomeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kUnavailable:
      return "rejected";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kInvalidArgument:
      return "bad_request";
    default:
      return "failed";
  }
}

WideEventLog::~WideEventLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr && owns_sink_) fclose(sink_);
}

Status WideEventLog::Open(const std::string& path, Options options) {
  FILE* sink = nullptr;
  bool owns = false;
  if (path == "stderr") {
    sink = stderr;
  } else {
    sink = fopen(path.c_str(), "a");
    if (sink == nullptr) {
      return Status::IOError("wide-event log: cannot open " + path);
    }
    owns = true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr && owns_sink_) fclose(sink_);
  sink_ = sink;
  owns_sink_ = owns;
  options_ = options;
  return Status::OK();
}

void WideEventLog::SetSink(FILE* sink, Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr && owns_sink_) fclose(sink_);
  sink_ = sink;
  owns_sink_ = false;
  options_ = options;
}

bool WideEventLog::WouldKeep(const WideEvent& event) const {
  // Errors and slow requests are the whole point of a wide-event log; they
  // bypass sampling unconditionally.
  if (event.http_status >= 400) return true;
  if (event.outcome != "ok") return true;
  if (event.total_seconds * 1000.0 >= options_.slow_ms) return true;
  if (options_.sample >= 1.0) return true;
  if (options_.sample <= 0.0) return false;
  const double u = static_cast<double>(Mix64(event.request_id) >> 11) *
                   (1.0 / 9007199254740992.0);  // uniform in [0,1)
  return u < options_.sample;
}

bool WideEventLog::Record(const WideEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ == nullptr) return false;
  if (!WouldKeep(event)) {
    ++sampled_out_;
    return false;
  }
  const std::string line = event.ToJson();
  fwrite(line.data(), 1, line.size(), sink_);
  fputc('\n', sink_);
  ++written_;
  return true;
}

void WideEventLog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) fflush(sink_);
}

bool SlowEventLog::AdmitsLocked(double total_seconds) const {
  return events_.size() < capacity_ ||
         total_seconds > events_.back().total_seconds;
}

bool SlowEventLog::WouldAdmit(double total_seconds) const {
  if (capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return AdmitsLocked(total_seconds);
}

bool SlowEventLog::Add(WideEvent event) {
  if (capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!AdmitsLocked(event.total_seconds)) return false;
  // upper_bound keeps earlier-arrived events ahead of later ties.
  auto pos = std::upper_bound(
      events_.begin(), events_.end(), event.total_seconds,
      [](double total, const WideEvent& e) { return total > e.total_seconds; });
  events_.insert(pos, std::move(event));
  if (events_.size() > capacity_) events_.pop_back();
  return true;
}

std::vector<WideEvent> SlowEventLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t SlowEventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void SlowEventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

}  // namespace prof
}  // namespace tegra
