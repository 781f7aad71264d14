#include "net/http_parser.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace tegra {
namespace net {

namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Strips HTTP optional whitespace (SP / HTAB, plus a stray trailing CR).
/// Narrower than tegra::TrimView, which strips every isspace byte.
std::string_view TrimView(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// A method whose semantics imply a request body; such requests must carry
/// an explicit Content-Length (chunked framing is unsupported, see 501).
bool MethodRequiresLength(const std::string& method) {
  return method == "POST" || method == "PUT" || method == "PATCH";
}

/// Strict non-negative decimal parse; rejects signs, whitespace and any
/// non-digit so "Content-Length: 10abc" cannot smuggle framing confusion.
bool ParseContentLength(std::string_view s, size_t* out) {
  if (s.empty() || s.size() > 19) return false;
  size_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

std::string PercentDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out += ' ';
    } else if (in[i] == '%' && i + 2 < in.size() && HexValue(in[i + 1]) >= 0 &&
               HexValue(in[i + 2]) >= 0) {
      out += static_cast<char>(HexValue(in[i + 1]) * 16 + HexValue(in[i + 2]));
      i += 2;
    } else {
      out += in[i];
    }
  }
  return out;
}

std::string HttpRequest::Param(const std::string& key,
                               const std::string& fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

std::string HttpRequest::Header(const std::string& key,
                                const std::string& fallback) const {
  const auto it = headers.find(key);
  return it == headers.end() ? fallback : it->second;
}

bool HttpRequest::WantsKeepAlive() const {
  const std::string connection = ToLower(Header("connection"));
  if (version == "HTTP/1.0") return connection == "keep-alive";
  return connection != "close";
}

HttpResponse HttpResponse::Text(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::Html(std::string body) {
  HttpResponse response;
  response.content_type = "text/html; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::Json(std::string body) {
  HttpResponse response;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::JsonStatus(int status, std::string body) {
  HttpResponse response = Json(std::move(body));
  response.status = status;
  return response;
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpStatusReason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [key, value] : response.extra_headers) {
    out += key + ": " + value + "\r\n";
  }
  out += "Cache-Control: no-store\r\n\r\n";
  out += response.body;
  return out;
}

HttpParser::HttpParser(HttpParserLimits limits) : limits_(limits) {}

void HttpParser::Fail(int status, std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_message_ = std::move(message);
}

void HttpParser::Feed(std::string_view data) {
  if (state_ == State::kError) return;
  buffer_.append(data.data(), data.size());
  Advance();
}

void HttpParser::Next() {
  if (state_ != State::kComplete) return;
  request_ = HttpRequest();
  body_needed_ = 0;
  state_ = State::kHead;
  Advance();
}

void HttpParser::Advance() {
  if (state_ == State::kHead) {
    const size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() > limits_.max_head_bytes) {
        Fail(413, "request head exceeds " +
                      std::to_string(limits_.max_head_bytes) + " bytes");
      }
      return;
    }
    if (head_end > limits_.max_head_bytes) {
      Fail(413, "request head exceeds " +
                    std::to_string(limits_.max_head_bytes) + " bytes");
      return;
    }
    ParseHead(head_end);
    if (state_ != State::kBody) return;
  }
  if (state_ == State::kBody) {
    const size_t take = std::min(body_needed_, buffer_.size());
    request_.body.append(buffer_, 0, take);
    buffer_.erase(0, take);
    body_needed_ -= take;
    if (body_needed_ == 0) state_ = State::kComplete;
  }
}

void HttpParser::ParseHead(size_t head_end) {
  const std::string_view head(buffer_.data(), head_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  // METHOD SP TARGET SP VERSION
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1) {
    Fail(400, "malformed request line");
    return;
  }
  request_.method = std::string(request_line.substr(0, sp1));
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  request_.version = std::string(request_line.substr(sp2 + 1));
  if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0") {
    Fail(400, "unsupported HTTP version: " + request_.version);
    return;
  }

  const size_t qmark = target.find('?');
  request_.path = PercentDecode(
      qmark == std::string_view::npos ? target : target.substr(0, qmark));
  if (qmark != std::string_view::npos) {
    request_.query = std::string(target.substr(qmark + 1));
    std::string_view rest = request_.query;
    while (!rest.empty()) {
      const size_t amp = rest.find('&');
      const std::string_view pair =
          amp == std::string_view::npos ? rest : rest.substr(0, amp);
      rest = amp == std::string_view::npos ? std::string_view()
                                           : rest.substr(amp + 1);
      if (pair.empty()) continue;
      const size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        request_.params[PercentDecode(pair)] = "";
      } else {
        request_.params[PercentDecode(pair.substr(0, eq))] =
            PercentDecode(pair.substr(eq + 1));
      }
    }
  }

  // Header lines (keys lower-cased; lines without a colon are tolerated as
  // junk but still count against the header limit).
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  size_t header_count = 0;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (++header_count > limits_.max_header_count) {
      Fail(431, "more than " + std::to_string(limits_.max_header_count) +
                    " header fields");
      return;
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    request_.headers[ToLower(TrimView(line.substr(0, colon)))] =
        std::string(TrimView(line.substr(colon + 1)));
  }

  // Body framing. Chunked (or any other) transfer coding is deliberately
  // not implemented: reject explicitly instead of mis-framing the stream.
  const auto te = request_.headers.find("transfer-encoding");
  if (te != request_.headers.end() &&
      ToLower(te->second) != "identity") {
    Fail(501, "transfer-encoding \"" + te->second +
                  "\" not supported; use Content-Length");
    return;
  }
  const auto cl = request_.headers.find("content-length");
  size_t content_length = 0;
  if (cl != request_.headers.end()) {
    if (!ParseContentLength(cl->second, &content_length)) {
      Fail(400, "malformed Content-Length: " + cl->second);
      return;
    }
    if (content_length > limits_.max_body_bytes) {
      Fail(413, "declared body of " + cl->second + " bytes exceeds limit of " +
                    std::to_string(limits_.max_body_bytes));
      return;
    }
  } else if (MethodRequiresLength(request_.method)) {
    Fail(400, "missing Content-Length on " + request_.method + " request");
    return;
  }

  buffer_.erase(0, head_end + 4);
  body_needed_ = content_length;
  request_.body.clear();
  request_.body.reserve(content_length);
  state_ = State::kBody;  // Advance() completes immediately when 0 bytes due.
}

}  // namespace net
}  // namespace tegra
