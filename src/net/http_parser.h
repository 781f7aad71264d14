// tegra::net — the dependency-free HTTP/1.1 framing layer of
// net::HttpServer, the one server behind both HTTP planes of a tegra
// process (the data plane and the admin zPages). It parses incrementally:
// bodies framed by Content-Length, requests split across arbitrary read
// boundaries, and pipelined requests sharing one buffer.
//
// The parser is a push-style state machine: callers Feed() whatever bytes
// the socket produced and inspect state(). Limits (head bytes, header
// count, body bytes) are enforced *during* parsing, so a hostile client can
// never make the server buffer an unbounded request. Framing violations are
// rejected with a specific HTTP status instead of relying on read-loop
// behavior:
//
//   400  malformed request line / unsupported version / bad or missing
//        Content-Length on a method that requires one
//   413  request head or declared body beyond the configured limits
//   431  more header fields than the configured limit
//   501  any Transfer-Encoding other than "identity" (chunked bodies are
//        deliberately unimplemented; clients must send Content-Length)
//
// This header also owns the HttpRequest/HttpResponse value types and the
// response serializer, so "what an HTTP message is" has exactly one
// definition in the codebase.

#ifndef TEGRA_NET_HTTP_PARSER_H_
#define TEGRA_NET_HTTP_PARSER_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tegra {
namespace net {

/// \brief One parsed HTTP request.
struct HttpRequest {
  std::string method;   ///< "GET", "POST", ... (verbatim; methods are
                        ///< case-sensitive per RFC 9110).
  std::string path;     ///< Percent-decoded path without the query string.
  std::string query;    ///< Raw query string (no leading '?'); may be empty.
  std::string version;  ///< "HTTP/1.1" or "HTTP/1.0".
  /// Parsed query parameters (percent-decoded, last key wins).
  std::map<std::string, std::string> params;
  /// Request headers, keys lower-cased.
  std::map<std::string, std::string> headers;
  /// Request body (Content-Length framed; empty for bodyless requests).
  std::string body;
  /// Server-assigned per-process request id (stamped by HttpServer at
  /// dispatch, 0 until then). Threads the request through the service layer
  /// so wide events, exemplars and responses all name the same request.
  uint64_t request_id = 0;

  /// Convenience: params lookup with default.
  std::string Param(const std::string& key,
                    const std::string& fallback = std::string()) const;
  /// Convenience: headers lookup with default (key must be lower-case).
  std::string Header(const std::string& key,
                     const std::string& fallback = std::string()) const;
  /// HTTP/1.1 defaults to keep-alive unless "Connection: close"; HTTP/1.0
  /// requires an explicit "Connection: keep-alive".
  bool WantsKeepAlive() const;
};

/// \brief One response. Handlers fill status/content type/body; the
/// serializer adds Content-Length and Connection framing.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Additional response headers (e.g. {"Retry-After", "1"}). Content-Type,
  /// Content-Length and Connection are always owned by the serializer.
  std::vector<std::pair<std::string, std::string>> extra_headers;

  static HttpResponse Text(int status, std::string body);
  static HttpResponse Html(std::string body);
  static HttpResponse Json(std::string body);
  static HttpResponse JsonStatus(int status, std::string body);
};

/// \brief Standard reason phrase for an HTTP status code.
const char* HttpStatusReason(int status);

/// \brief Serializes one response with Content-Length framing, ready to
/// write to a socket.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// \brief Percent-decodes `in` ('+' also becomes space, as in form
/// encoding). Malformed escapes are passed through literally.
std::string PercentDecode(std::string_view in);

/// \brief Hard limits enforced while a request is being parsed.
struct HttpParserLimits {
  /// Upper bound on one request's head (request line + headers).
  size_t max_head_bytes = 16384;
  /// Upper bound on the number of header fields.
  size_t max_header_count = 64;
  /// Upper bound on the declared Content-Length.
  size_t max_body_bytes = 4u << 20;
};

/// \brief Incremental HTTP/1.1 request parser.
///
/// Push bytes with Feed() as they arrive; when state() reaches kComplete,
/// request() holds one fully framed request and any pipelined surplus stays
/// buffered — call Next() to start parsing the following request. On
/// kError, error_status()/error_message() describe the rejection and the
/// connection should be answered and closed (framing is lost).
class HttpParser {
 public:
  enum class State {
    kHead,      ///< Accumulating the request line + headers.
    kBody,      ///< Head parsed; accumulating a Content-Length framed body.
    kComplete,  ///< request() is fully parsed; surplus bytes stay buffered.
    kError,     ///< Irrecoverable framing error; see error_status().
  };

  explicit HttpParser(HttpParserLimits limits = {});

  /// Appends bytes and advances the state machine as far as they allow.
  void Feed(std::string_view data);

  State state() const { return state_; }
  bool done() const { return state_ == State::kComplete; }
  bool failed() const { return state_ == State::kError; }

  /// The parsed request; fully valid only when state() == kComplete (during
  /// kBody the head fields are populated and the body is partial).
  const HttpRequest& request() const { return request_; }
  /// Mutable access so the owner can move the body out before Next().
  HttpRequest& mutable_request() { return request_; }

  /// HTTP status to answer with when state() == kError.
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

  /// After kComplete: discards the current request and continues parsing
  /// any buffered pipelined bytes (which may immediately complete again).
  void Next();

  /// Bytes received but not yet consumed by a completed request.
  size_t buffered_bytes() const { return buffer_.size(); }

  const HttpParserLimits& limits() const { return limits_; }

 private:
  void Advance();
  /// Parses buffer_[0, head_end) as request line + headers; on success sets
  /// up body framing and erases the head (+ blank line) from the buffer.
  void ParseHead(size_t head_end);
  void Fail(int status, std::string message);

  HttpParserLimits limits_;
  State state_ = State::kHead;
  std::string buffer_;
  HttpRequest request_;
  size_t body_needed_ = 0;
  int error_status_ = 0;
  std::string error_message_;
};

}  // namespace net
}  // namespace tegra

#endif  // TEGRA_NET_HTTP_PARSER_H_
