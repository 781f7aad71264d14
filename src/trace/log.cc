#include "trace/log.h"

#include <cctype>
#include <cmath>
#include <ctime>
#include <sstream>

#include "common/string_util.h"

namespace tegra {
namespace trace {

namespace {

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out << v;
  return out.str();
}

std::string NowTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

LogField::LogField(std::string k, double v)
    : key(std::move(k)), value(FormatNumber(v)), numeric(true) {}
LogField::LogField(std::string k, int v)
    : key(std::move(k)), value(std::to_string(v)), numeric(true) {}
LogField::LogField(std::string k, unsigned int v)
    : key(std::move(k)), value(std::to_string(v)), numeric(true) {}
LogField::LogField(std::string k, long v)
    : key(std::move(k)), value(std::to_string(v)), numeric(true) {}
LogField::LogField(std::string k, unsigned long v)
    : key(std::move(k)), value(std::to_string(v)), numeric(true) {}
LogField::LogField(std::string k, long long v)
    : key(std::move(k)), value(std::to_string(v)), numeric(true) {}
LogField::LogField(std::string k, unsigned long long v)
    : key(std::move(k)), value(std::to_string(v)), numeric(true) {}
LogField::LogField(std::string k, bool v)
    : key(std::move(k)), value(v ? "true" : "false"), numeric(true) {}

Logger& Logger::Global() {
  static Logger* logger = new Logger();  // Leaked: usable during exit.
  return *logger;
}

void Logger::SetFormat(Format format) {
  std::lock_guard<std::mutex> lock(mu_);
  format_ = format;
}

void Logger::SetOutput(std::FILE* out) {
  std::lock_guard<std::mutex> lock(mu_);
  out_ = out;
}

void Logger::SetCallback(
    std::function<void(LogLevel, const std::string&)> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  callback_ = std::move(callback);
}

std::string Logger::Render(LogLevel level, std::string_view message,
                           std::initializer_list<LogField> fields) const {
  Format format;
  {
    std::lock_guard<std::mutex> lock(mu_);
    format = format_;
  }
  std::string line;
  if (format == Format::kJson) {
    line += "{\"ts\":";
    line += JsonQuote(NowTimestampUtc());
    line += ",\"level\":\"";
    line += LogLevelName(level);
    line += "\",\"msg\":";
    line += JsonQuote(message);
    for (const LogField& field : fields) {
      line += ',';
      line += JsonQuote(field.key);
      line += ':';
      if (field.numeric) {
        line += field.value;
      } else {
        line += JsonQuote(field.value);
      }
    }
    line += '}';
  } else {
    line += NowTimestampUtc();
    line += ' ';
    std::string level_tag = LogLevelName(level);
    for (char& c : level_tag) c = static_cast<char>(std::toupper(c));
    line += level_tag;
    line += ' ';
    line.append(message.data(), message.size());
    for (const LogField& field : fields) {
      line += ' ';
      line += field.key;
      line += '=';
      // Quote values containing spaces so the line stays splittable.
      if (!field.numeric &&
          field.value.find_first_of(" \t\"") != std::string::npos) {
        line += JsonQuote(field.value);
      } else {
        line += field.value;
      }
    }
  }
  return line;
}

void Logger::Log(LogLevel level, std::string_view message,
                 std::initializer_list<LogField> fields) {
  if (!ShouldLog(level)) return;
  const std::string line = Render(level, message, fields);
  std::lock_guard<std::mutex> lock(mu_);
  if (callback_) {
    callback_(level, line);
    return;
  }
  if (out_ == nullptr) return;
  std::fputs(line.c_str(), out_);
  std::fputc('\n', out_);
  // Warnings and errors are what operators grep for during an incident;
  // push those through the stdio buffer immediately. Info/debug lines stay
  // buffered (cheap) and are drained by Flush() on ordered shutdown.
  if (level >= LogLevel::kWarn) std::fflush(out_);
}

void Logger::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) std::fflush(out_);
}

void LogDebug(std::string_view message,
              std::initializer_list<LogField> fields) {
  Logger::Global().Log(LogLevel::kDebug, message, fields);
}
void LogInfo(std::string_view message, std::initializer_list<LogField> fields) {
  Logger::Global().Log(LogLevel::kInfo, message, fields);
}
void LogWarn(std::string_view message, std::initializer_list<LogField> fields) {
  Logger::Global().Log(LogLevel::kWarn, message, fields);
}
void LogError(std::string_view message,
              std::initializer_list<LogField> fields) {
  Logger::Global().Log(LogLevel::kError, message, fields);
}

}  // namespace trace
}  // namespace tegra
