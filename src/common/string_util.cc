#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace tegra {

std::vector<std::string> SplitOnAny(std::string_view s,
                                    std::string_view delims) {
  std::vector<std::string> out;
  size_t start = std::string_view::npos;
  for (size_t i = 0; i < s.size(); ++i) {
    const bool is_delim = delims.find(s[i]) != std::string_view::npos;
    if (is_delim) {
      if (start != std::string_view::npos) {
        out.emplace_back(s.substr(start, i - start));
        start = std::string_view::npos;
      }
    } else if (start == std::string_view::npos) {
      start = i;
    }
  }
  if (start != std::string_view::npos) {
    out.emplace_back(s.substr(start));
  }
  return out;
}

std::vector<std::string> SplitExact(std::string_view s, std::string_view sep) {
  std::vector<std::string> out;
  if (sep.empty()) {
    out.emplace_back(s);
    return out;
  }
  size_t pos = 0;
  while (true) {
    size_t next = s.find(sep, pos);
    if (next == std::string_view::npos) {
      out.emplace_back(s.substr(pos));
      break;
    }
    out.emplace_back(s.substr(pos, next - pos));
    pos = next + sep.size();
  }
  return out;
}

std::string JoinRange(const std::vector<std::string>& parts, size_t begin,
                      size_t end, std::string_view sep) {
  std::string out;
  bool first = true;
  end = std::min(end, parts.size());
  for (size_t i = begin; i < end; ++i) {
    if (parts[i].empty()) continue;
    if (!first) out.append(sep);
    out.append(parts[i]);
    first = false;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  return JoinRange(parts, 0, parts.size(), sep);
}

std::string_view TrimView(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return std::string(buf);
}

std::string PadRight(std::string s, size_t width) {
  if (s.size() < width) {
    s.append(width - s.size(), ' ');
  } else if (s.size() > width) {
    s.resize(width);
  }
  return s;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  size_t run = 0;  // start of the pending run of bytes copied verbatim
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  AppendJsonEscaped(&out, s);
  out += '"';
  return out;
}

}  // namespace tegra
